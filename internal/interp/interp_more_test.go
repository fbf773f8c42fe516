package interp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/nbody"
)

// TestNestedForallSimulated: a forall inside a forall accounts time
// sensibly (inner barrier charged within the iteration's cost).
func TestNestedForallSimulated(t *testing.T) {
	src := `
procedure inner(int j) {
  var int s = 0;
  for k = 1 to 50 { s = s + k; }
}
procedure main() {
  forall i = 0 to 3 {
    forall j = 0 to 3 {
      inner(j);
    }
  }
}`
	prog := lang.MustParse(src)
	ip := New(prog, Config{Mode: Simulated, PEs: 4})
	if _, err := ip.Call("main"); err != nil {
		t.Fatal(err)
	}
	st := ip.Stats()
	if st.Barriers != 5 { // 4 inner + 1 outer
		t.Errorf("barriers = %d, want 5", st.Barriers)
	}
	if st.Cycles <= 0 || st.WorkCycles < st.Cycles {
		t.Errorf("cycles=%d work=%d", st.Cycles, st.WorkCycles)
	}
}

// TestForallReturnRejectedSimulated: return inside a simulated forall is
// an error (it has no sensible parallel semantics).
func TestForallReturnRejectedSimulated(t *testing.T) {
	src := `
function int main() {
  forall i = 0 to 3 {
    return 1;
  }
  return 0;
}`
	prog := lang.MustParse(src)
	ip := New(prog, Config{Mode: Simulated, PEs: 2})
	if _, err := ip.Call("main"); err == nil || !strings.Contains(err.Error(), "forall") {
		t.Errorf("expected forall-return error, got %v", err)
	}
}

// TestPrintPointerForms: NULL and node values print deterministically.
func TestPrintPointerForms(t *testing.T) {
	src := `
type T [X] { int v; T *next is uniquely forward along X; };
procedure main() {
  var T *p = NULL;
  print(p);
  p = new T;
  print(p);
}`
	prog := lang.MustParse(src)
	var out bytes.Buffer
	ip := New(prog, Config{Output: &out})
	if _, err := ip.Call("main"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "NULL" {
		t.Errorf("null printed as %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "<T#") {
		t.Errorf("node printed as %q", lines[1])
	}
}

// TestCallArityMismatch: calling with wrong arg count via the API fails.
func TestCallArityMismatch(t *testing.T) {
	prog := lang.MustParse(`procedure f(int a) { }`)
	ip := New(prog, Config{})
	if _, err := ip.Call("f"); err == nil {
		t.Error("arity mismatch must error")
	}
	if _, err := ip.Call("nosuch"); err == nil {
		t.Error("unknown function must error")
	}
}

// TestFunctionFallsOffEnd: a function that can fail to return is a
// runtime error when it does.
func TestFunctionFallsOffEnd(t *testing.T) {
	prog := lang.MustParse(`
function int f(bool b) {
  if b {
    return 1;
  }
}`)
	ip := New(prog, Config{})
	if _, err := ip.Call("f", BoolVal(false)); err == nil || !strings.Contains(err.Error(), "fell off") {
		t.Errorf("expected fall-off error, got %v", err)
	}
	if v, err := ip.Call("f", BoolVal(true)); err != nil || v.I != 1 {
		t.Errorf("true path: %v %v", v, err)
	}
}

// TestFormatRoundTripBarnesHut: the printer output of the full
// Barnes-Hut program re-parses and runs to the same trajectories.
func TestFormatRoundTripBarnesHut(t *testing.T) {
	prog := lang.MustParse(nbody.BarnesHutPSL)
	text := lang.Format(prog)
	prog2, err := lang.Parse(text)
	if err != nil {
		t.Fatalf("formatted Barnes-Hut does not re-parse: %v", err)
	}
	run := func(p *lang.Program) Value {
		ip := New(p, Config{Seed: 7})
		v, err := ip.Call("simulate", IntVal(16), IntVal(1), RealVal(0.5), RealVal(0.01))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	v1, v2 := run(prog), run(prog2)
	x1, err1 := FieldReal(v1, "posx")
	x2, err2 := FieldReal(v2, "posx")
	if err1 != nil || err2 != nil {
		t.Fatalf("posx: %v, %v", err1, err2)
	}
	if x1 != x2 {
		t.Errorf("round-tripped program diverges: %g vs %g", x1, x2)
	}
}

// TestSimulatedDeterminism: identical configs give identical cycle
// counts (the property the table harness depends on).
func TestSimulatedDeterminism(t *testing.T) {
	prog := lang.MustParse(nbody.BarnesHutPSL)
	run := func() int64 {
		ip := New(prog, Config{Mode: Simulated, PEs: 3, Seed: 11})
		if _, err := ip.Call("simulate", IntVal(20), IntVal(1), RealVal(0.5), RealVal(0.01)); err != nil {
			t.Fatal(err)
		}
		return ip.Stats().Cycles
	}
	if a, b := run(), run(); a != b {
		t.Errorf("simulated cycles not deterministic: %d vs %d", a, b)
	}
}

// TestNewOctreeAllocations: a heap record has one view of itself — the
// node, its scalar slots, its pointer table and one target array per
// pointer field. Barnes-Hut's Octree has two pointer fields: five Go
// allocations (the name maps the walker used to read cost six more).
func TestNewOctreeAllocations(t *testing.T) {
	prog := lang.MustParse(nbody.BarnesHutPSL)
	ip := New(prog, Config{Engine: EngineWalk})
	decl := prog.Universe.Decl("Octree")
	got := testing.AllocsPerRun(100, func() {
		if _, err := ip.allocNode(decl, "Octree"); err != nil {
			t.Fatal(err)
		}
	})
	if got > 5 {
		t.Errorf("new Octree costs %v Go allocations, want at most 5", got)
	}
}

// TestNewBuildsEveryTime: the package keeps no code cache. New builds a
// program's code on every call (and nothing at all for the walk
// engine); whoever runs a program twice holds a CompiledProgram.
func TestNewBuildsEveryTime(t *testing.T) {
	prog := lang.MustParse(`function int main() { return 42; }`)
	c0 := CompileCount()
	for i := 0; i < 2; i++ {
		if v, err := New(prog, Config{}).Call("main"); err != nil || v.I != 42 {
			t.Fatalf("main = %v, %v", v, err)
		}
	}
	if d := CompileCount() - c0; d != 2 {
		t.Errorf("two New on one program built %d times, want 2", d)
	}
	c0 = CompileCount()
	if v, err := New(prog, Config{Engine: EngineWalk}).Call("main"); err != nil || v.I != 42 {
		t.Fatalf("walk: main = %v, %v", v, err)
	}
	cp := CompileProgram(prog)
	for i := 0; i < 2; i++ {
		if v, err := NewCompiled(cp, Config{}).Call("main"); err != nil || v.I != 42 {
			t.Fatalf("main = %v, %v", v, err)
		}
	}
	if d := CompileCount() - c0; d != 1 {
		t.Errorf("a walk interpreter and two runs of one handle built %d times, want 1", d)
	}
}
