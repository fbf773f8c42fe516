// FuzzBytecodeVsWalk / FuzzKernelVsBytecode: differential fuzzing of
// the three execution engines. Any program the front end accepts must
// behave identically under the tree-walking oracle, the flat bytecode
// VM, and the kernel engine — same value, same printed output, same
// error/no-error outcome, and the same step/allocation counters. (The
// simulated machine's cycles are the walker's alone, so they have no
// second engine to disagree with.) This is the property that lets
// later PRs refactor the execution core freely: the walker defines
// the semantics, the fuzzers hunt for programs where a fast path
// disagrees. The two fuzzers compose: bytecode is pinned to the
// walker, kernel is pinned to bytecode, so a kernel-vs-walker
// divergence cannot hide.
package interp_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/parexec"
)

// fuzzMaxSteps bounds each engine run. Runaway programs hit the limit
// in every engine; the limit is detected at slightly different
// instants (the bytecode VM batches step accounting), so limit-hit
// runs only compare error-ness, not counters.
const fuzzMaxSteps = 100_000

func seedPrograms(f *testing.F) {
	f.Helper()
	for _, name := range []string{"polyscale.psl", "violations.psl", "orthlist.psl"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(`
type L [X] { int v; L *next is uniquely forward along X; };
function int main() {
  var L *h = NULL;
  var int i = 0;
  while i < 5 {
    var L *t = new L;
    t->v = i * i;
    t->next = h;
    h = t;
    i = i + 1;
  }
  var int s = 0;
  var L *p = h;
  while p != NULL { s = s + p->v; p = p->next; }
  print("sum", s, 1.5 / 2.0, true);
  return s % 7;
}`)
	f.Add(`
function real main() {
  var real s = 0.0;
  for i = 1 to 6 { s = s + sqrt(i) + rand(); }
  if s > 3.0 || !(s == 0.0) { s = -s; }
  return abs(s);
}`)
}

// pickEntry chooses a function to drive: main if present, otherwise
// the first function whose parameters are all scalars (pointers get
// NULL semantics we'd rather not guess arguments for).
func pickEntry(prog *lang.Program) (string, []interp.Value, bool) {
	if f := prog.Func("main"); f != nil && len(f.Params) == 0 {
		return "main", nil, true
	}
	for _, f := range prog.Funcs {
		args := make([]interp.Value, 0, len(f.Params))
		ok := true
		for _, prm := range f.Params {
			switch t := prm.Type.(type) {
			case *lang.Scalar:
				switch t.Kind {
				case lang.KindInt:
					args = append(args, interp.IntVal(3))
				case lang.KindReal:
					args = append(args, interp.RealVal(1.25))
				case lang.KindBool:
					args = append(args, interp.BoolVal(true))
				default:
					args = append(args, interp.StrVal("s"))
				}
			case *lang.Pointer:
				args = append(args, interp.NullVal())
			default:
				ok = false
			}
		}
		if ok {
			return f.Name, args, true
		}
	}
	return "", nil, false
}

// hasParallelLoop reports whether any function contains a forall: the
// programs worth a second run on a pool of PEs.
func hasParallelLoop(prog *lang.Program) bool {
	for _, f := range prog.Funcs {
		found := false
		lang.Walk(f.Body, func(s lang.Stmt) bool {
			if fs, ok := s.(*lang.ForStmt); ok && fs.Parallel {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

type engineOutcome struct {
	v     interp.Value
	stats interp.Stats
	out   string
	err   error
}

func runOne(prog *lang.Program, eng interp.Engine, mode interp.Mode, fn string, args []interp.Value) engineOutcome {
	var out bytes.Buffer
	v, st, err := interp.Run(prog, interp.Config{
		Engine:   eng,
		Mode:     mode,
		PEs:      3,
		Seed:     11,
		Output:   &out,
		MaxSteps: fuzzMaxSteps,
		MaxDepth: 256,
	}, fn, args...)
	return engineOutcome{v: v, stats: st, out: out.String(), err: err}
}

func isLimitErr(err error) bool {
	return err != nil && (strings.Contains(err.Error(), "step limit") ||
		strings.Contains(err.Error(), "recursion depth"))
}

func compareOutcomes(t *testing.T, label string, a, b interp.Engine, w, c engineOutcome) {
	t.Helper()
	// Resource-limit errors fire at engine-specific instants; only
	// agreement on "some limit was hit" is required.
	if isLimitErr(w.err) || isLimitErr(c.err) {
		if !isLimitErr(w.err) || !isLimitErr(c.err) {
			t.Fatalf("%s: limit asymmetry: %s err=%v, %s err=%v", label, a, w.err, b, c.err)
		}
		return
	}
	if (w.err != nil) != (c.err != nil) {
		t.Fatalf("%s: error asymmetry: %s err=%v, %s err=%v", label, a, w.err, b, c.err)
	}
	if w.err != nil {
		return
	}
	if w.v.String() != c.v.String() {
		t.Fatalf("%s: value divergence: %s %s, %s %s", label, a, w.v, b, c.v)
	}
	if w.out != c.out {
		t.Fatalf("%s: output divergence:\n%s %q\n%s %q", label, a, w.out, b, c.out)
	}
	if w.stats != c.stats {
		t.Fatalf("%s: stats divergence: %s %+v, %s %+v", label, a, w.stats, b, c.stats)
	}
}

// fuzzDiff runs src under the engine pair (a = reference, b = engine
// under test) and fails on any observable divergence.
func fuzzDiff(t *testing.T, src string, a, b interp.Engine) {
	prog, err := lang.Parse(src)
	if err != nil {
		return
	}
	fn, args, ok := pickEntry(prog)
	if !ok {
		return
	}
	// Real mode runs foralls in place. A forall's trip count is charged
	// to the step budget at entry, so any forall size is safe.
	w := runOne(prog, a, interp.Real, fn, args)
	c := runOne(prog, b, interp.Real, fn, args)
	compareOutcomes(t, "real", a, b, w, c)

	// Simulated mode runs on the walker whatever the engine, so there is
	// no pair to compare: one run keeps the cost accounting (including
	// simForall's PE table and rewind) under the fuzzer's inputs. A
	// simulated forall shares its frame where a Real one copies it, so
	// a racy body may legitimately answer differently from w.
	if s := runOne(prog, a, interp.Simulated, fn, args); s.err == nil &&
		(s.stats.Cycles <= 0 || s.stats.WorkCycles < s.stats.Cycles) {
		t.Fatalf("simulated: elapsed %d cycles, work %d", s.stats.Cycles, s.stats.WorkCycles)
	}
}

// FuzzBytecodeVsWalk pins the bytecode VM to the walker, the
// reference: a failure means the front end's slot resolution, the
// lowering, or the VM is wrong.
func FuzzBytecodeVsWalk(f *testing.F) {
	seedPrograms(f)
	f.Fuzz(func(t *testing.T, src string) {
		fuzzDiff(t, src, interp.EngineWalk, interp.EngineBytecode)
	})
}

// stripPatternSeed is the exact shape transform.StripMine emits — a
// forall whose body is one helper call, the helper doing a skip-to-lane
// walk plus NULL guard — so the kernel classifier accepts it and the
// fuzzer starts from a program that actually exercises the vector path
// (gather, masked compute, scatter, and the scalar fallback).
const stripPatternSeed = `
type C [L] { int tag; real w; C *next is uniquely forward along L; };
procedure _scale_it(int _pe, C *p, real k) {
  for _k = 1 to _pe { p = p->next; }
  if p != NULL {
    if p->tag % 3 == 0 { p->w = p->w * k + 1.0; } else { p->tag = p->tag - 2; }
  }
}
function real main() {
  var C *head = NULL;
  var int i = 0;
  while i < 11 {
    var C *t = new C;
    t->tag = i;
    t->w = 0.5 + i;
    t->next = head;
    head = t;
    i = i + 1;
  }
  var C *p = head;
  while p != NULL {
    forall _pe = 0 to 3 { _scale_it(_pe, p, 1.25); }
    for _pe = 0 to 3 { p = p->next; }
  }
  var real acc = 0.0;
  p = head;
  while p != NULL { acc = acc + p->w + p->tag; p = p->next; }
  return acc;
}`

// fuzzKernelParallel is the pooled leg of FuzzKernelVsBytecode: forall
// programs run again through parexec (2 PEs) — the deployment path, on
// which the kernel engine's vector strips go through the strip
// scheduler and scalar iterations run concurrently.
func fuzzKernelParallel(t *testing.T, src string) {
	prog, err := lang.Parse(src)
	if err != nil {
		return
	}
	fn, args, ok := pickEntry(prog)
	if !ok || !hasParallelLoop(prog) {
		return
	}
	run := func(eng interp.Engine) engineOutcome {
		var out bytes.Buffer
		v, st, err := parexec.Run(prog, parexec.Options{
			Interp:   eng,
			PEs:      2,
			Seed:     11,
			Output:   &out,
			MaxSteps: fuzzMaxSteps,
		}, fn, args...)
		return engineOutcome{v: v, stats: st, out: out.String(), err: err}
	}
	w := run(interp.EngineBytecode)
	c := run(interp.EngineKernel)
	compareOutcomes(t, "parexec", interp.EngineBytecode, interp.EngineKernel, w, c)
}

// FuzzKernelVsBytecode pins the SPMD kernel engine to the bytecode VM
// it extends. The VM is the reference: a failure here alone means the
// kernel lowering, a mask, or the slab gather/scatter is wrong; this
// and FuzzBytecodeVsWalk failing together means the drift is in the
// shared scalar core.
func FuzzKernelVsBytecode(f *testing.F) {
	seedPrograms(f)
	f.Add(stripPatternSeed)
	f.Fuzz(func(t *testing.T, src string) {
		fuzzDiff(t, src, interp.EngineBytecode, interp.EngineKernel)
		fuzzKernelParallel(t, src)
	})
}

// TestForallDepthParity: a forall body's recursion budget is the
// enclosing call chain's remaining depth in BOTH engines (a fast
// engine once reset workers to depth 0, silently granting forall
// bodies the full MaxDepth the walker would refuse). Sweeping MaxDepth
// across the boundary must flip both engines at the same value.
func TestForallDepthParity(t *testing.T) {
	prog, err := lang.Parse(`
function int rec(int n) {
  if n <= 0 { return 0; }
  return rec(n - 1);
}
procedure p() {
  forall i = 0 to 1 {
    var int x = rec(6);
    x = x;
  }
}
function int main() {
  p();
  return 1;
}`)
	if err != nil {
		t.Fatal(err)
	}
	sawOK, sawErr := false, false
	for maxDepth := 2; maxDepth <= 16; maxDepth++ {
		var outcome [2]error
		for i, eng := range []interp.Engine{interp.EngineWalk, interp.EngineBytecode} {
			_, _, err := interp.Run(prog, interp.Config{Engine: eng, MaxDepth: maxDepth}, "main")
			outcome[i] = err
		}
		if (outcome[0] != nil) != (outcome[1] != nil) {
			t.Errorf("MaxDepth=%d: walk err=%v, bytecode err=%v", maxDepth, outcome[0], outcome[1])
		}
		if outcome[0] == nil {
			sawOK = true
		} else {
			sawErr = true
		}
	}
	if !sawOK || !sawErr {
		t.Fatalf("sweep never crossed the depth boundary (ok=%v err=%v) — widen the range", sawOK, sawErr)
	}
}

// TestStringComparison: string == / != compares contents in both
// engines (a fuzz-era fix: both used to fall through to the integer
// branch and compare the always-zero I fields).
func TestStringComparison(t *testing.T) {
	prog, err := lang.Parse(`
function int main() {
  var int s = 0;
  if "a" == "b" { s = s + 1; }
  if "a" == "a" { s = s + 10; }
  if "a" != "b" { s = s + 100; }
  if "" == "" { s = s + 1000; }
  return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []interp.Engine{interp.EngineWalk, interp.EngineBytecode} {
		v, _, err := interp.Run(prog, interp.Config{Engine: eng}, "main")
		if err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
		if v.I != 1110 {
			t.Errorf("engine %s: main = %d, want 1110", eng, v.I)
		}
	}
}
