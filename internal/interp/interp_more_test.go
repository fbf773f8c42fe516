package interp

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
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

// TestProcedureCallIsNotAValue: a call that returns nothing may stand
// only as a statement. As a print argument, as an operand of == or !=,
// or nested in another print, the checker rejects it, so the walker and
// the VM fail alike instead of the walker printing a zero the VM's
// lowering cannot produce.
func TestProcedureCallIsNotAValue(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`procedure p() { }
function int main() { print(p()); return 0; }`, "2:29: procedure p has no value"},
		{`procedure p() { }
function int main() { if p() == p() { return 1; } if p() != 1 { return 2; } return 0; }`, "2:26: procedure p has no value"},
		{`function int main() { print(print(1)); return 0; }`, "1:29: procedure print has no value"},
	} {
		var errs []string
		for _, eng := range []Engine{EngineWalk, EngineBytecode} {
			err := func() error {
				prog, err := lang.Parse(tc.src)
				if err != nil {
					return err
				}
				_, _, err = Run(prog, Config{Engine: eng, Output: io.Discard}, "main")
				return err
			}()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%q on %s: %v, want %q", tc.src, eng, err, tc.want)
				continue
			}
			errs = append(errs, err.Error())
		}
		if len(errs) == 2 && errs[0] != errs[1] {
			t.Errorf("%q: the walker says %q, the VM %q", tc.src, errs[0], errs[1])
		}
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
// node, its data words, its pointer table and one array of slots shared
// by every pointer field. Barnes-Hut's Octree has two pointer fields:
// four Go allocations (a Value per field cost five, the name maps the
// walker used to read cost six more). TestNodeAllocs below reads the same
// cost through a `new` on both engines, with its bytes.
func TestNewOctreeAllocations(t *testing.T) {
	prog := lang.MustParse(nbody.BarnesHutPSL)
	ip := New(prog, Config{Engine: EngineWalk})
	decl := prog.Universe.Decl("Octree")
	got := testing.AllocsPerRun(100, func() {
		if _, err := ip.allocNode(decl); err != nil {
			t.Fatal(err)
		}
	})
	if got > 4 {
		t.Errorf("new Octree costs %v Go allocations, want at most 4", got)
	}
}

// TestNodeAllocs counts what one `new` costs, in Go allocations and
// bytes, on the walker and on the VM, for three record shapes: data
// only, data plus one pointer, and Barnes-Hut's Octree (15 data fields,
// subtrees[8] and next). A node is its header, one word per data field
// and, when it has pointers, the per-field slice headers and one array
// of slots: the Octree is 4 allocations of 320 B. The cost is read as a
// loop of n `new`s less the same loop run zero times. Under the race
// detector the counts are not read; CI's cost-gate step runs this test
// without it.
func TestNodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes what allocates")
	}
	const loop = `
function int make(int n) {
  var int i = 0;
  while i < n {
    var %[1]s *t = new %[1]s;
    i = i + 1;
  }
  return i;
}
`
	for _, shape := range []struct {
		name, src     string
		allocs, bytes float64
	}{
		{"Flat", `type Flat [X] { int a, b; real c; bool d; };`, 2, 96},
		{"Link", `type Link [X] { int a; real c; Link *next is uniquely forward along X; };`, 4, 112},
		{"Octree", nbody.BarnesHutPSL, 4, 320},
	} {
		prog := lang.MustParse(shape.src + fmt.Sprintf(loop, shape.name))
		for _, eng := range []Engine{EngineWalk, EngineBytecode} {
			ip := New(prog, Config{Engine: eng})
			run := func(n int64) func() {
				return func() {
					if v, err := ip.Call("make", IntVal(n)); err != nil || v.I != n {
						t.Fatalf("make(%d) = %v, %v", n, v, err)
					}
				}
			}
			const n = 256
			allocs := (testing.AllocsPerRun(10, run(n)) - testing.AllocsPerRun(10, run(0))) / n
			bytes := (bytesPerRun(run(n)) - bytesPerRun(run(0))) / n
			t.Logf("new %s on %s: %.2f allocations, %.0f B", shape.name, eng, allocs, bytes)
			if allocs > shape.allocs || bytes > shape.bytes {
				t.Errorf("new %s on %s costs %.2f allocations and %.0f B, want at most %.0f and %.0f B",
					shape.name, eng, allocs, bytes, shape.allocs, shape.bytes)
			}
		}
	}
}

// bytesPerRun is the fewest bytes f allocates in one of ten runs after a
// warm-up run. TotalAlloc counts the whole process, so a run that the
// runtime or a leftover goroutine allocates beside reads high; the
// fewest is f's own cost.
func bytesPerRun(f func()) float64 {
	const runs = 10
	f()
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return float64(least)
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

// TestCompiledProgramOneError: a handle has one error. A program the
// lowering rejects — a var whose type no register bank holds — fails
// its handle's Err, as a program the tables reject does, so a caller
// that checks Err (serve's miss path) never keeps code whose every Call
// would fail; the VM reports the same error, and the walker still runs
// the program.
func TestCompiledProgramOneError(t *testing.T) {
	prog := lang.MustParse(`function int f() { var int x = 1; return x + 1; }`)
	prog.Func("f").Body.Stmts[0].(*lang.VarStmt).DeclType = &lang.Scalar{Kind: 9}
	cp := CompileProgram(prog)
	if cp.Err() == nil || !strings.Contains(cp.Err().Error(), "unbankable type") {
		t.Fatalf("Err() = %v, want the lowering's failure", cp.Err())
	}
	if bc, err := cp.Bytecode(); bc != nil || err != cp.Err() {
		t.Errorf("Bytecode() = %v, %v; want nil and Err()'s error", bc, err)
	}
	if _, _, err := RunCompiled(cp, Config{}, "f"); err == nil || !strings.Contains(err.Error(), cp.Err().Error()) {
		t.Errorf("run on the VM: %v, want %v", err, cp.Err())
	}
	if v, _, err := RunCompiled(cp, Config{Engine: EngineWalk}, "f"); err != nil || v.I != 2 {
		t.Errorf("run on the walker: %v, %v; want 2", v, err)
	}
}
