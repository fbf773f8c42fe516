// FuzzBytecodeVsWalk / FuzzKernelVsBytecode: differential fuzzing of
// the three execution engines. Any program the front end accepts must
// behave identically under the tree-walking oracle, the flat bytecode
// VM, and the kernel engine — same value, same printed output, same
// error text, and the same step/allocation counters, a failed run's
// too. (The simulated machine's cycles are the walker's alone, so they
// have no second engine to disagree with.) This is the property that lets
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

	"repro/internal/bytecode"
	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/parexec"
)

// fuzzMaxSteps bounds each engine run. Runaway programs hit the limit
// in every engine, on the same statement (the step ledger is one), so
// limit-hit runs compare like any other failed run.
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
	for _, src := range conditionSeeds {
		f.Add(src)
	}
}

// conditionSeeds cover every if and while condition shape the lowering
// treats apart: each comparison over ints, reals (a NaN included, whose
// every ordered comparison is false) and pointers, which branches in one
// fused instruction, and the shapes that keep a compare and br.false —
// an && / || chain ending in a comparison, a bare bool, an indexed
// pointer load with its NULL join. x < x compares a register with
// itself.
var conditionSeeds = []string{`
function int main() {
  var int s = 0;
  var int a = 3;
  var int b = 5;
  if a == b { s = s + 1; }
  if a != b { s = s + 2; } else { s = s - 1; }
  if a < b { s = s + 4; }
  if a <= a { s = s + 8; }
  if a > b { s = s + 16; } else { s = s + 17; }
  if b >= a { s = s + 32; }
  if a < a { s = s + 64; }
  var int i = 0;
  while i == 0 { i = i + 1; }
  while i != 4 { i = i + 1; s = s * 3 % 1000; }
  while i < 9 { i = i + 1; s = s + i; }
  while i <= 12 { i = i + 1; s = s - 1; }
  while i > 2 { i = i - 2; s = s + 7; }
  while i >= 0 { i = i - 1; s = s + 3; }
  while 0 > i && s < 5000 { s = s + 100; i = i - 1; if i < -3 { i = 5; } }
  return s;
}`, `
function real main() {
  var real s = 0.0;
  var real x = 1.5;
  var real y = 2.5;
  var real z = 0.0 / 0.0;
  var int k = 2;
  if x == y { s = s + 1.0; }
  if x != y { s = s + 2.0; }
  if x < y { s = s + 4.0; } else { s = s - 4.0; }
  if x <= k { s = s + 8.0; }
  if x > y { s = s + 16.0; }
  if k >= x { s = s + 32.0; }
  if z == z { s = s + 64.0; }
  if z != z { s = s + 128.0; }
  if z < z { s = s + 256.0; }
  if z <= 1.0 { s = s + 512.0; }
  if z > 1.0 { s = s + 1024.0; }
  if 1.0 >= z { s = s + 2048.0; }
  if x < x { s = s + 4096.0; }
  while x == 1.5 { x = x + 0.25; }
  while x != 2.5 { x = x + 0.25; s = s + x; }
  while x < 4.0 { x = x + 0.5; }
  while x <= 5.0 { x = x + 0.5; s = s - x; }
  while x > y { x = x - 1.0; }
  while x >= 0.0 { x = x - 0.75; s = s + 1.0; }
  while z < 1.0 || z >= 1.0 { z = 0.0; }
  return s;
}`, `
type T [X][Y] { int v; T *next is uniquely forward along X; T *sub[2] is uniquely forward along Y; };
function int main() {
  var T *h = NULL;
  var int i = 0;
  while i < 4 { var T *t = new T; t->v = i + 1; t->next = h; h = t; i = i + 1; }
  h->sub[1] = h->next;
  var int s = 0;
  var T *p = h;
  var T *q = h->next;
  if p == q { s = s + 1; }
  if p != q { s = s + 2; }
  if p == NULL { s = s + 4; }
  if NULL == p { s = s + 8; } else { s = s + 9; }
  if p != NULL { s = s + 16; }
  if NULL != q { s = s + 32; }
  if p->sub[1] != NULL { s = s + 64; }
  if p->sub[0] == NULL { s = s + 128; }
  if q->sub[i - 3] != NULL { s = s + 256; }
  var int k = 1;
  if h->sub[k] != NULL { s = s + 1024; }
  if p->next == q { s = s + 512; }
  while p != NULL { s = s + p->v; p = p->next; }
  while p == NULL { p = h; }
  while NULL != p->next { p = p->next; }
  while p->next == NULL && p != q { p = q; s = s + 1000; }
  while p != q { p = q; }
  while p == q { p = h; }
  p = q;
  var bool c = p == q;
  if c { s = s * 2; }
  while c { c = false; s = s + 1; }
  if s > 0 && p == q { s = s + 3; }
  if s < 0 || p != q { s = s + 5; }
  while i > 0 && p != NULL { i = i - 1; p = p->next; }
  while h->sub[1] != NULL { h->sub[1] = h->sub[1]->next; s = s + 1; }
  return s;
}`}

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
				default:
					args = append(args, interp.BoolVal(true))
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

// compareOutcomes fails on any difference between two runs: the same
// error text (position included) or none, and the same value, output
// and Stats, for a failed run too.
func compareOutcomes(t *testing.T, label string, a, b interp.Engine, w, c engineOutcome) {
	t.Helper()
	if errText(w.err) != errText(c.err) {
		t.Fatalf("%s: error divergence: %s err=%v, %s err=%v", label, a, w.err, b, c.err)
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

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func isStepLimit(err error) bool {
	return err != nil && strings.Contains(err.Error(), "step limit exceeded")
}

// FuzzBytecodeVsWalk pins the bytecode VM to the walker, the
// reference: a failure means the front end's slot resolution, the
// lowering, or the VM is wrong.
func FuzzBytecodeVsWalk(f *testing.F) {
	seedPrograms(f)
	seedStrips(f)
	f.Fuzz(func(t *testing.T, src string) {
		fuzzDiff(t, src, interp.EngineWalk, interp.EngineBytecode)
	})
}

// stripPatternSeed is the exact shape transform.StripMine emits — a
// forall whose body is one helper call, the helper doing a skip-to-lane
// walk plus NULL guard, its arguments variables — so the kernel
// classifier accepts it and the fuzzer starts from a program that
// actually exercises the vector path (gather, masked compute, scatter,
// and the scalar fallback).
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
  var real k = 1.25;
  while p != NULL {
    forall _pe = 0 to 3 { _scale_it(_pe, p, k); }
    for _pe = 0 to 3 { p = p->next; }
  }
  var real acc = 0.0;
  p = head;
  while p != NULL { acc = acc + p->w + p->tag; p = p->next; }
  return acc;
}`

// stripVariant is stripPatternSeed with each old text replaced by its
// new one, in order; it panics when one is missing, so a seed never
// silently stops being the variant it names.
func stripVariant(repl ...string) string {
	src := stripPatternSeed
	for i := 0; i < len(repl); i += 2 {
		if !strings.Contains(src, repl[i]) {
			panic("stripVariant: no " + repl[i])
		}
		src = strings.Replace(src, repl[i], repl[i+1], 1)
	}
	return src
}

// stripSeed is one strip-shaped seed program, whether the recognizer
// must take it and whether the classifier must vectorize it.
type stripSeed struct {
	name, src     string
	strip, kernel bool
}

// stripSeeds are stripPatternSeed's neighbours. The first is a strip
// wider than its list (16 lanes over 11 nodes), which the recognizer
// takes; then near misses it must refuse, each one change away from
// the shape: a skip loop over an indexed field, a guard on another
// variable, a statement before the skip loop, a skip loop bounded by
// another parameter than the helper's _pe (though it holds the same
// lane index), the lane index passed again as a later argument that
// the guarded body reads. The rest are strips whose bodies stress the
// kernel's masks and renaming — an else-if chain; a variable assigned
// in one arm and read after the join; a field read into a variable,
// stored, and the variable read after the store (a load must not be
// renamed past a store of its field); a % under a mask whose inactive
// lanes hold a zero divisor; values that cross two ifs in a row, whose
// masks overlap (a loaded value whose field the first if stores, a
// value loaded under the first if only, a loaded value the first if
// reassigns) — and a strip passing a literal argument, which no strip
// path takes: its lanes run the call literally. The fuzzers start from
// every one of them.
var stripSeeds = []stripSeed{
	{"wider than its list", stripVariant("_pe = 0 to 3", "_pe = 0 to 15", "_pe = 0 to 3", "_pe = 0 to 15"), true, true},
	{"skip over an indexed field", stripVariant(
		"C *next is uniquely forward along L;", "C *next is uniquely forward along L; C *alt[2];",
		"p = p->next; }\n  if", "p = p->alt[0]; }\n  if"), false, false},
	{"guard on another variable", stripVariant(
		"real k) {", "real k, C *q) {",
		"if p != NULL {", "if q != NULL { if p != NULL {",
		"p->tag - 2; }\n  }", "p->tag - 2; }\n  } }",
		"_scale_it(_pe, p, k);", "_scale_it(_pe, p, k, p);"), false, false},
	{"statement before the skip loop", stripVariant(
		"real k) {\n", "real k) {\n  var int z = _pe;\n"), false, false},
	{"skip bound is not the helper's _pe", stripVariant(
		"real k) {", "real k, int n) {",
		"for _k = 1 to _pe", "for _k = 1 to n",
		"_scale_it(_pe, p, k);", "_scale_it(_pe, p, k, _pe);"), false, false},
	{"lane index passed again", stripVariant(
		"real k) {", "real k, int n) {",
		"p->tag = p->tag - 2;", "p->tag = p->tag - n;",
		"_scale_it(_pe, p, k);", "_scale_it(_pe, p, k, _pe);"), false, false},
	{"else-if chain", stripVariant(
		"} else { p->tag = p->tag - 2; }",
		"} else if p->tag % 3 == 1 { p->tag = p->tag - 2; } else if p->w > 4.0 { p->w = p->w - k; } else { p->tag = p->tag * 5; }"), true, true},
	{"assigned in one arm, read after the join", stripVariant(
		"if p->tag % 3 == 0 {", "var real d = 0.5;\n    if p->tag % 2 == 0 { d = p->w * k; }\n    p->w = p->w + d;\n    if p->tag % 3 == 0 {"), true, true},
	{"load, store, then the loaded value", stripVariant(
		"if p->tag % 3 == 0 {", "var int t = p->tag;\n    p->tag = t * 2 + 1;\n    p->w = p->w + t;\n    if p->tag % 3 == 0 {"), true, true},
	{"% under a mask over a zero divisor", stripVariant(
		"if p->tag % 3 == 0 {", "if p->tag != 0 { p->w = p->w + 100 % p->tag; }\n    if p->tag % 3 == 0 {"), true, true},
	{"a loaded value across an if that stores its field", stripVariant(
		"if p->tag % 3 == 0 {", "var real t = p->w;\n    if p->tag > 4 { p->w = 2.0; }\n    if p->tag % 2 == 0 { p->w = p->w + t; }\n    if p->tag % 3 == 0 {"), true, true},
	{"a value loaded under one if, read under the next", stripVariant(
		"if p->tag % 3 == 0 {", "var real t = 0.5;\n    if p->tag > 4 { t = p->w; }\n    if p->tag % 2 == 0 { p->w = p->w + t; }\n    if p->tag % 3 == 0 {"), true, true},
	{"a loaded value reassigned under one if, read under the next", stripVariant(
		"if p->tag % 3 == 0 {", "var real t = p->w;\n    if p->tag > 4 { t = 3.0; }\n    if p->tag % 2 == 0 { p->w = p->w + t; }\n    if p->tag % 3 == 0 {"), true, true},
	{"literal argument", stripVariant("_scale_it(_pe, p, k);", "_scale_it(_pe, p, 1.25);"), true, false},
}

// TestStripSeedsRecognized: the recognizer takes the strip-shaped seeds
// and refuses each near miss, whose forall then carries the not-a-strip
// verdict, and the classifier vectorizes every strip but the one that
// passes a literal.
func TestStripSeedsRecognized(t *testing.T) {
	for _, sd := range append([]stripSeed{{"stripPatternSeed", stripPatternSeed, true, true}}, stripSeeds...) {
		prog, err := lang.Parse(sd.src)
		if err != nil {
			t.Fatalf("%s: %v", sd.name, err)
		}
		cp, err := compile.Compile(prog)
		if err != nil {
			t.Fatalf("%s: %v", sd.name, err)
		}
		bp, err := bytecode.Compile(cp)
		if err != nil {
			t.Fatalf("%s: %v", sd.name, err)
		}
		sites := bp.Func("main").Foralls
		if len(sites) != 1 {
			t.Fatalf("%s: %d foralls in main, want 1", sd.name, len(sites))
		}
		if got := sites[0].Strip != nil; got != sd.strip {
			t.Errorf("%s: recognized as a strip = %t, want %t (%s)", sd.name, got, sd.strip, sites[0].VectorReason)
		}
		if got := sites[0].Kernel != nil; got != sd.kernel {
			t.Errorf("%s: vectorized = %t, want %t (%s)", sd.name, got, sd.kernel, sites[0].VectorReason)
		}
	}
}

// seedStrips adds stripPatternSeed and its neighbours.
func seedStrips(f *testing.F) {
	f.Add(stripPatternSeed)
	for _, sd := range stripSeeds {
		f.Add(sd.src)
	}
}

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
	// Two PEs charge one budget concurrently, each publishing its count
	// every few hundred statements, so which statement of which
	// iteration passes the limit is a race: pooled runs must agree only
	// that it was passed.
	if isStepLimit(w.err) && isStepLimit(c.err) {
		return
	}
	compareOutcomes(t, "parexec", interp.EngineBytecode, interp.EngineKernel, w, c)
}

// FuzzKernelVsBytecode pins the SPMD kernel engine to the bytecode VM
// it extends. The VM is the reference: a failure here alone means the
// kernel lowering, a mask, or the slab gather/scatter is wrong; this
// and FuzzBytecodeVsWalk failing together means the drift is in the
// shared scalar core.
func FuzzKernelVsBytecode(f *testing.F) {
	seedPrograms(f)
	seedStrips(f)
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
