package interp_test

import (
	"bytes"
	"testing"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/parexec"
	"repro/internal/transform"
)

// TestSimulatedRunsOnTheWalker: the machine model has one
// implementation. Whatever Config.Engine says, a Simulated run executes
// on the tree walker — every engine name gives the one answer, cycles
// included — and lowers nothing: the VM and its code hold no cost
// model to run it on.
func TestSimulatedRunsOnTheWalker(t *testing.T) {
	prog, err := lang.Parse(parexec.PolyNormalizePSL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := transform.StripMine(prog, parexec.NormalizeFunc, parexec.NormalizeLoop, 4)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		v, out string
		st     interp.Stats
	}
	run := func(eng interp.Engine) answer {
		var out bytes.Buffer
		v, st, err := interp.Run(res.Program, interp.Config{Engine: eng, Mode: interp.Simulated, PEs: 4, Output: &out},
			"run", interp.IntVal(200), interp.RealVal(1.001))
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		return answer{v.String(), out.String(), st}
	}

	c0 := interp.CompileCount()
	ref := run(interp.EngineWalk)
	if ref.st.Cycles <= 0 || ref.st.WorkCycles <= ref.st.Cycles || ref.st.Barriers == 0 ||
		ref.st.Steps == 0 || ref.st.Allocations == 0 {
		t.Fatalf("walker's simulated run counted nothing: %+v", ref.st)
	}
	for _, eng := range []interp.Engine{interp.EngineKernel, interp.EngineBytecode} {
		if got := run(eng); got != ref {
			t.Errorf("simulated on %s:\n got %+v\nwant %+v", eng, got, ref)
		}
	}
	if d := interp.CompileCount() - c0; d != 0 {
		t.Errorf("three simulated runs lowered the program %d times, want 0", d)
	}

	// A handle someone already built is ignored the same way.
	cp := interp.CompileProgram(res.Program)
	v, st, err := interp.RunCompiled(cp, interp.Config{Mode: interp.Simulated, PEs: 4},
		"run", interp.IntVal(200), interp.RealVal(1.001))
	if err != nil || v.String() != ref.v || st != ref.st {
		t.Errorf("simulated over a built handle: %s %+v, %v; want %s %+v", v, st, err, ref.v, ref.st)
	}
}
