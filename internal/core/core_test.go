package core

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/adds"
	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/nbody"
)

const scaleSrc = adds.OneWayListSrc + `
function OneWayList * build(int n) {
  var OneWayList *head = NULL;
  var int i = n;
  while i > 0 {
    var OneWayList *node = new OneWayList;
    node->data = i;
    node->next = head;
    head = node;
    i = i - 1;
  }
  return head;
}

procedure scale(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data * c;
    p = p->next;
  }
}

function int total(OneWayList *head) {
  var int s = 0;
  var OneWayList *p = head;
  while p != NULL {
    s = s + p->data;
    p = p->next;
  }
  return s;
}

function int main(int n, int c) {
  var OneWayList *h = build(n);
  scale(h, c);
  print("scaled", n, "nodes");
  return total(h);
}
`

func TestCompileAndRun(t *testing.T) {
	c, err := Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	v, stats, err := c.Run(RunConfig{Output: &out}, "main", interp.IntVal(10), interp.IntVal(2))
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 110 {
		t.Errorf("main = %d, want 110", v.I)
	}
	if !strings.Contains(out.String(), "scaled 10 nodes") {
		t.Errorf("output = %q", out.String())
	}
	if stats.Allocations != 10 {
		t.Errorf("allocations = %d", stats.Allocations)
	}
}

// TestCompilationBuildsCodeOnce: a Compilation holds its program's
// code, so however it is run — Run, RunChecked, RunParallel, any of the
// code-running engines — the code is built once; the walk engine builds
// none.
func TestCompilationBuildsCodeOnce(t *testing.T) {
	c, err := Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	args := []interp.Value{interp.IntVal(10), interp.IntVal(2)}
	c0 := interp.CompileCount()
	if _, _, err := c.Run(RunConfig{Engine: interp.EngineWalk}, "main", args...); err != nil {
		t.Fatal(err)
	}
	if d := interp.CompileCount() - c0; d != 0 {
		t.Errorf("a walk run built code %d times, want 0", d)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := c.Run(RunConfig{}, "main", args...); err != nil {
			t.Fatal(err)
		}
	}
	if d := interp.CompileCount() - c0; d != 1 {
		t.Errorf("two Run built code %d times, want 1", d)
	}
	if _, _, _, err := c.RunChecked(RunConfig{Engine: interp.EngineBytecode}, "main", args...); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RunParallel(RunConfig{Engine: interp.EngineBytecode}, 2, "main", args...); err != nil {
		t.Fatal(err)
	}
	if d := interp.CompileCount() - c0; d != 1 {
		t.Errorf("Run, RunChecked and RunParallel built code %d times between them, want 1", d)
	}
}

// TestAutoPlanSharesPlanCode: AutoParallel plans on the analyses the
// Compilation already holds — no whole-program analysis runs, where it
// used to analyze the input again and then the result — and the planned
// program runs the planner's own lowering: one build while planning,
// none when it runs. The planned program is analyzed if and when a
// caller asks about it, once.
func TestAutoPlanSharesPlanCode(t *testing.T) {
	a0 := analysis.AnalyzeAllCount()
	c, err := Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if d := analysis.AnalyzeAllCount() - a0; d != 1 {
		t.Fatalf("Compile analyzed the program %d times, want 1", d)
	}
	c0 := interp.CompileCount()
	auto, err := c.AutoParallel(8)
	if err != nil {
		t.Fatal(err)
	}
	if d := analysis.AnalyzeAllCount() - a0; d != 1 {
		t.Errorf("Compile and AutoParallel analyzed %d times between them, want 1", d)
	}
	if d := interp.CompileCount() - c0; d != 1 {
		t.Errorf("AutoParallel built code %d times, want 1 (the planner's lowering)", d)
	}
	if auto.Plan.Code == nil || auto.Plan.Code.Program() != auto.Program {
		t.Fatalf("plan code %v is not the planned program's", auto.Plan.Code)
	}
	args := []interp.Value{interp.IntVal(10), interp.IntVal(2)}
	for _, run := range []func() (interp.Value, interp.Stats, error){
		func() (interp.Value, interp.Stats, error) { return auto.RunParallel(RunConfig{}, 2, "main", args...) },
		func() (interp.Value, interp.Stats, error) { return auto.Run(RunConfig{}, "main", args...) },
	} {
		if v, _, err := run(); err != nil || v.I != 110 {
			t.Fatalf("planned run = %v, %v", v, err)
		}
	}
	if d := interp.CompileCount() - c0; d != 1 {
		t.Errorf("running the planned program built code %d more times, want 0", d-1)
	}
	for i := 0; i < 2; i++ {
		if reps, err := auto.LoopReports("scale"); err != nil || len(reps) != 1 {
			t.Fatalf("LoopReports on the planned program: %v, %v", reps, err)
		}
	}
	if d := analysis.AnalyzeAllCount() - a0; d != 2 {
		t.Errorf("asking about the planned program twice brought the analyses to %d, want 2", d)
	}
}

// TestAutoPlansShareUnrewrittenFuncs: a plan copies only the functions
// it rewrites and shares every other FuncDecl with its input. Planning
// one Compilation at three widths at once, then running the input and
// every planned program on the walker and on the bytecode VM at once,
// leaves the input's text and FuncDecls as they were; under -race a
// write to a shared function is reported.
func TestAutoPlansShareUnrewrittenFuncs(t *testing.T) {
	c, err := Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	text, funcs := lang.Format(c.Program), slices.Clone(c.Program.Funcs)
	widths := []int{4, 8, 16}
	plans := make([]*AutoPlan, len(widths))
	var wg sync.WaitGroup
	for i, w := range widths {
		wg.Add(1)
		go func(i, w int) {
			defer wg.Done()
			var err error
			if plans[i], err = c.AutoParallel(w); err != nil {
				t.Error(err)
			}
		}(i, w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	args := []interp.Value{interp.IntVal(10), interp.IntVal(2)}
	for _, comp := range []*Compilation{c, plans[0].Compilation, plans[1].Compilation, plans[2].Compilation} {
		for _, eng := range []interp.Engine{interp.EngineWalk, interp.EngineBytecode} {
			wg.Add(1)
			go func(comp *Compilation, eng interp.Engine) {
				defer wg.Done()
				if v, _, err := comp.Run(RunConfig{Engine: eng}, "main", args...); err != nil || v.I != 110 {
					t.Errorf("engine %v: main = %v, %v; want 110", eng, v, err)
				}
			}(comp, eng)
		}
	}
	wg.Wait()
	if got := lang.Format(c.Program); got != text {
		t.Errorf("planning and running changed the input:\n%s\nwas:\n%s", got, text)
	}
	if !slices.Equal(c.Program.Funcs, funcs) {
		t.Error("planning changed the input's FuncDecls")
	}
	for i, ap := range plans {
		if ap.Plan.Parallelized != 1 {
			t.Fatalf("width %d: parallelized %d loops, want 1 (scale)", widths[i], ap.Plan.Parallelized)
		}
		for _, f := range funcs {
			if shared := ap.Program.Func(f.Name) == f; shared == (f.Name == "scale") {
				t.Errorf("width %d: %s shared with the input: %v", widths[i], f.Name, shared)
			}
		}
	}
}

func TestCompileError(t *testing.T) {
	if _, err := Compile("procedure f() { x = 1; }"); err == nil {
		t.Error("bad program accepted")
	}
}

func TestLoopReports(t *testing.T) {
	c, err := Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := c.LoopReports("scale")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || !reps[0].Parallelizable {
		t.Errorf("scale report: %v", reps)
	}
	reps, err = c.LoopReports("total")
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Parallelizable {
		t.Error("reduction must not parallelize")
	}
	if _, err := c.LoopReports("nosuch"); err == nil {
		t.Error("unknown function must error")
	}
}

func TestStripMineViaCore(t *testing.T) {
	c, err := Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := c.Run(RunConfig{}, "main", interp.IntVal(23), interp.IntVal(3))
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.StripMine("scale", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A simulated run is a walker run: it lowers nothing.
	c0 := interp.CompileCount()
	got, _, err := par.Run(RunConfig{Simulate: true, PEs: 4}, "main", interp.IntVal(23), interp.IntVal(3))
	if err != nil {
		t.Fatal(err)
	}
	if got.I != want.I {
		t.Errorf("transformed result %d, want %d", got.I, want.I)
	}
	if d := interp.CompileCount() - c0; d != 0 {
		t.Errorf("RunConfig{Simulate: true} built code %d times, want 0", d)
	}
	if !strings.Contains(par.Source(), "forall") {
		t.Error("transformed source lacks forall")
	}
	// The original compilation is untouched.
	if strings.Contains(c.Source(), "forall") {
		t.Error("StripMine mutated the original")
	}
}

// TestAutoParallelViaCore: the planner through the pipeline API — plan
// report, per-width caching, and bit-identical execution.
func TestAutoParallelViaCore(t *testing.T) {
	c, err := Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := c.AutoParallel(8)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Plan.Parallelized != 1 || auto.Plan.Width != 8 {
		t.Fatalf("plan: %s", auto.Plan)
	}
	if !strings.Contains(auto.Source(), "forall") {
		t.Error("planned source lacks forall")
	}
	if strings.Contains(c.Source(), "forall") {
		t.Error("AutoParallel mutated the original")
	}
	// The planned variant equals the hand-tuned transformation.
	hand, err := c.StripMine("scale", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Source() != hand.Source() {
		t.Errorf("auto variant diverged from hand-tuned StripMine:\n%s", auto.Source())
	}
	// Same width is cached (same handle); a new width plans anew.
	again, err := c.AutoParallel(8)
	if err != nil {
		t.Fatal(err)
	}
	if again != auto {
		t.Error("repeated AutoParallel(8) should return the cached plan")
	}
	wider, err := c.AutoParallel(16)
	if err != nil {
		t.Fatal(err)
	}
	if wider == auto || wider.Plan.Width != 16 {
		t.Errorf("AutoParallel(16) returned width %d", wider.Plan.Width)
	}
	// Parallel execution of the planned program reproduces the serial run.
	var wantOut, gotOut bytes.Buffer
	want, _, err := c.Run(RunConfig{Output: &wantOut}, "main", interp.IntVal(23), interp.IntVal(3))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := auto.RunParallel(RunConfig{Output: &gotOut}, 4, "main", interp.IntVal(23), interp.IntVal(3))
	if err != nil {
		t.Fatal(err)
	}
	if got.I != want.I || gotOut.String() != wantOut.String() {
		t.Errorf("auto parallel run diverged: %d %q vs %d %q", got.I, gotOut.String(), want.I, wantOut.String())
	}
}

func TestMatrixRendering(t *testing.T) {
	c, err := Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.MatrixAfter("scale", "p = p->next;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "next") || !strings.Contains(m, "p'") {
		t.Errorf("matrix:\n%s", m)
	}
	before, err := c.MatrixBeforeLoop("scale", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(before, "=") {
		t.Errorf("before-loop matrix:\n%s", before)
	}
	if _, err := c.MatrixAfter("scale", "q = q->next;"); err == nil {
		t.Error("missing statement must error")
	}
}

func TestExitViolations(t *testing.T) {
	src := adds.BinTreeSrc + `
procedure bad(BinTree *a, BinTree *b) {
  a->left = b->left;
}`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := c.ExitViolations("bad")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Errorf("violations = %v", keys)
	}
}

func TestCompareBaselines(t *testing.T) {
	c, err := Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.CompareBaselines("scale", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Conservative || v.KLimited || !v.ADDS {
		t.Errorf("verdicts: %s", v)
	}
	table := FormatVerdictTable([]*BaselineVerdicts{v})
	if !strings.Contains(table, "ADDS+GPM") || !strings.Contains(table, "yes") {
		t.Errorf("table:\n%s", table)
	}
}

func TestBarnesHutThroughCore(t *testing.T) {
	c, err := Compile(nbody.BarnesHutPSL)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := c.LoopReports(nbody.TimestepFunc)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || !reps[0].Parallelizable || !reps[1].Parallelizable {
		t.Fatalf("BHL1/BHL2 reports: %v", reps)
	}
	keys, err := c.ExitViolations("build_tree")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Errorf("build_tree violations: %v", keys)
	}
}

// TestPlannedAnalysisErrorSurfacesAtFirstUse: planning reads the
// input's analysis and analyzes nothing again, so an analysis failure
// of the *planned* program does not fail AutoParallel, or running the
// plan — it is the answer to the first question asked about the planned
// program, and to every later one. No source text gets there (the
// planner's output analyses whenever its input did), so the input's AST
// is damaged by hand after Compile analyzed it, in a function the
// rewrite copies untouched: total's p = p->next becomes a chained load
// the path-matrix rules refuse.
func TestPlannedAnalysisErrorSurfacesAtFirstUse(t *testing.T) {
	c, err := Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	loop := c.Program.Func("total").Body.Stmts[2].(*lang.WhileStmt)
	advance := loop.Body.Stmts[len(loop.Body.Stmts)-1].(*lang.AssignStmt)
	inner := advance.RHS.(*lang.FieldExpr)
	outer := &lang.FieldExpr{X: inner, Field: "next", FieldID: inner.FieldID}
	outer.SetType(inner.Type())
	advance.RHS = outer

	auto, err := c.AutoParallel(8)
	if err != nil || auto.Plan.Parallelized != 1 {
		t.Fatalf("AutoParallel = %+v, %v; want the scale loop approved", auto, err)
	}
	args := []interp.Value{interp.IntVal(10), interp.IntVal(2)}
	if v, _, err := auto.RunParallel(RunConfig{}, 2, "main", args...); err != nil || v.I != 50 { // 2×(1+3+5+7+9)
		t.Fatalf("planned run = %v, %v", v, err)
	}
	for i := 0; i < 2; i++ {
		if _, err := auto.LoopReports("scale"); err == nil || !strings.Contains(err.Error(), "chained load not normalized") {
			t.Errorf("question %d about the planned program: err = %v, want the analysis failure", i+1, err)
		}
	}
}
