// The auto-parallelization planner: the layer that turns the paper's
// per-loop machinery into a push-button whole-program transformation.
// Everywhere else in this repository a caller hand-picks a function
// name, a loop index, and a strip width and calls StripMine;
// AutoParallelize instead walks every function of a checked program,
// runs the dependence test on every while loop, strip-mines each
// approved loop, and returns a Plan that says what it did and — the
// paper's real deliverable — *why* every other loop was rejected.
//
// Mechanics worth knowing:
//
//   - Verdict first, rewrite once — the paper's own order (§3 analysis,
//     §4.2 test, §4.3.3 strip-mine). The *input* program is analyzed
//     once; every while loop is tested against that one analysis; the
//     outermost approved loops are then strip-mined, in scan order, on
//     one clone. Nothing is re-analyzed after a rewrite, so planning
//     costs one analysis plus one test and at most one rewrite per
//     loop, and every approval is a fact about the program the caller
//     wrote. That is sound on its own — strip-mining preserves a loop's
//     reads and writes, so a rewrite cannot un-approve a neighbour — and
//     it reproduces what re-analyzing the whole program after every
//     rewrite would report: TestPlanMatchesFullRestart holds the two
//     byte-identical (plan text, transformed program, loop coordinates)
//     over the corpus and over generated programs.
//
//   - The dependence tests are independent read-only queries, so they
//     run as one batch on parexec's own scheduling machinery
//     (parexec.ForEach) — the tool eating its own cooking. Verdicts are
//     consumed strictly in scan order (functions in program order, each
//     function's loops in lang.Walk order), so the plan and the
//     transformed program are deterministic.
//
//   - Parallelism is never nested. An approved loop inside an approved
//     loop moves into the outer loop's helper and is reported as
//     absorbed, not rejected; a rejected loop around an approved one
//     reports that its body holds a forall; helpers synthesized by the
//     rewrites are not planned at all. Either way the inner loop
//     already runs inside (or as) parallel iterations, and a second
//     level of foralls would only oversubscribe the worker pool.
//
//   - A rewrite moves the while loops nested in the approved body into
//     the helper, shifting the index of every later loop of that
//     function. Plan entries always carry the loop's index in the
//     *input* program; the rewrite itself addresses the loop at its
//     current index, which is what names the helper
//     (_<fn>_L<index>_iteration). Source positions survive the move:
//     they join the kernel classifier's verdicts (and the profiler's
//     samples) back onto plan entries, so a program whose loops share a
//     position (a hand-built AST with all-zero positions) is rejected
//     up front with a DuplicateLoopPosError.
package transform

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/depend"
	"repro/internal/effects"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/parexec"
)

// DefaultWidth is the planner's width policy when the caller has no
// opinion: 4 forall iterations per PE per barrier — wide enough that
// the scheduling policy owns the iteration→PE map (the R2 convention),
// narrow enough that the FOR2 skip-ahead (quadratic in width) stays
// modest. pes <= 0 means "this host": runtime.GOMAXPROCS.
func DefaultWidth(pes int) int {
	if pes <= 0 {
		pes = runtime.GOMAXPROCS(0)
	}
	return 4 * pes
}

// DuplicateLoopPosError reports that two while loops of the input
// program share one source position, so the position-keyed joins (the
// kernel classifier's verdict per strip, the profiler's samples per
// loop) cannot tell them apart. Programs built by lang.Parse give every
// loop a distinct position; the usual way to hit this is a hand-built
// AST whose loops all carry the zero position.
type DuplicateLoopPosError struct {
	// Pos is the shared position; FuncA/FuncB name the functions holding
	// the two conflated loops (equal when both loops share a function).
	Pos   lang.Pos
	FuncA string
	FuncB string
}

// Error renders the conflict.
func (e *DuplicateLoopPosError) Error() string {
	return fmt.Sprintf("transform: loops in %s and %s share source position %s; the planner keys loops by position — give hand-built AST loops distinct positions",
		e.FuncA, e.FuncB, e.Pos)
}

// checkLoopPositions returns a DuplicateLoopPosError if two while loops
// of prog share a source position.
func checkLoopPositions(prog *lang.Program) error {
	owner := map[lang.Pos]string{}
	for _, f := range prog.Funcs {
		for _, loop := range whileLoops(f.Body) {
			if prev, dup := owner[loop.Pos()]; dup {
				return &DuplicateLoopPosError{Pos: loop.Pos(), FuncA: prev, FuncB: f.Name}
			}
			owner[loop.Pos()] = f.Name
		}
	}
	return nil
}

// LoopPlan is one while loop's entry in a Plan: where the loop was
// when planning started, the dependence verdict, and what the planner
// did about it.
type LoopPlan struct {
	// Func and Index locate the loop in the *input* program (Index
	// counts while loops in lang.Walk order, the LoopReports/StripMine
	// convention — so the coordinates are valid against the caller's
	// own source even after sibling rewrites shifted the working
	// program's indices); Pos is its source position.
	Func  string
	Index int
	Pos   lang.Pos
	// Parallelized marks an approved, strip-mined loop; Helper is its
	// generated iteration procedure and Width its strip width.
	Parallelized bool
	Helper       string
	Width        int
	// Absorbed marks a loop nested in the body of an approved loop: it
	// moved into AbsorbedInto's body and runs serially inside the
	// parallel iterations — neither approved nor rejected on its own.
	Absorbed     bool
	AbsorbedInto string
	// Vectorized marks an approved loop whose strip additionally lowers
	// to a batched SPMD kernel (the `kernel` engine's vector path);
	// VectorReason gives the classifier's concrete why-not for every
	// approved loop that stays scalar ("body calls function f",
	// "pointer-chasing access", "allocates", ...).
	Vectorized   bool
	VectorReason string
	// Report is the dependence verdict (nil for absorbed loops: the
	// planner does not act on theirs).
	Report *depend.Report
}

// ReasonText joins every reason of the loop's dependence report with
// "; " — all of them, since a report may carry several facts (the
// success case lists three) and dropping any hides the verdict's
// grounds. Absorbed loops without a report render a fixed placeholder.
func (lp *LoopPlan) ReasonText() string {
	if lp.Report == nil || len(lp.Report.Reasons) == 0 {
		return "loop not analyzable"
	}
	return strings.Join(lp.Report.Reasons, "; ")
}

// String renders one plan line.
func (lp *LoopPlan) String() string {
	at := fmt.Sprintf("%s#%d (line %d)", lp.Func, lp.Index, lp.Pos.Line)
	switch {
	case lp.Parallelized:
		vec := fmt.Sprintf("vectorized: no (%s)", lp.VectorReason)
		if lp.Vectorized {
			vec = "vectorized: kernel"
		}
		return fmt.Sprintf("PARALLELIZED %-28s -> %s, width %d — %s", at, lp.Helper, lp.Width, vec)
	case lp.Absorbed:
		return fmt.Sprintf("absorbed     %-28s runs serially inside %s", at, lp.AbsorbedInto)
	default:
		return fmt.Sprintf("rejected     %-28s %s", at, lp.ReasonText())
	}
}

// Plan is the planner's report: the transformed program plus one entry
// per while loop saying what happened to it and why.
type Plan struct {
	// Program is the fully transformed program (the input program when
	// nothing was approved; the input is never modified).
	Program *lang.Program
	// Width is the strip width applied to every approved loop.
	Width int
	// Loops lists every while loop of the planned functions in program
	// order.
	Loops []*LoopPlan
	// Parallelized counts the approved (strip-mined) loops.
	Parallelized int
	// Code is Program's executable code. The planner lowers the
	// transformed program once, to read the kernel classifier's verdict
	// on every strip, and the plan owns the result: whoever runs Program
	// runs this handle instead of compiling it again (Code.Err reports a
	// lowering failure). Nil when nothing was approved — Program is then
	// the caller's input, which the planner never lowers.
	Code *interp.CompiledProgram
	// Timings says where the planning time went.
	Timings Timings
}

// Timings is the wall time of each planning stage, always filled:
// Analyze and Effects are the two whole-program analyses (zero when the
// caller handed them in, see PlanAnalyzed), Depend the batch of loop
// tests, Rewrite the strip-mining and the type check of what it
// touched, Lower the build of Plan.Code.
type Timings struct {
	Analyze, Effects, Depend, Rewrite, Lower time.Duration
}

// Summary is the one-line form: "parallelized 2/7 loops (width 16):
// timestep#0, timestep#1".
func (p *Plan) Summary() string {
	var done []string
	for _, lp := range p.Loops {
		if lp.Parallelized {
			done = append(done, fmt.Sprintf("%s#%d", lp.Func, lp.Index))
		}
	}
	if len(done) == 0 {
		return fmt.Sprintf("parallelized 0/%d loops (width %d)", len(p.Loops), p.Width)
	}
	return fmt.Sprintf("parallelized %d/%d loops (width %d): %s",
		p.Parallelized, len(p.Loops), p.Width, strings.Join(done, ", "))
}

// String renders the full per-loop report, rejection reasons included.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "auto-parallelization plan — %s\n", p.Summary())
	for _, lp := range p.Loops {
		fmt.Fprintf(&b, "  %s\n", lp)
	}
	return strings.TrimRight(b.String(), "\n")
}

// noNesting is the verdict of a loop whose body holds a forall, written
// in the source or about to be put there by strip-mining a nested loop.
func noNesting(fn string, loop *lang.WhileStmt) *depend.Report {
	return &depend.Report{Func: fn, Loop: loop,
		Reasons: []string{"body already contains a parallel forall (the planner does not nest parallelism)"}}
}

// AutoParallelize plans and transforms a whole checked program: every
// while loop of every function is put through the dependence test, and
// every approved loop not nested in another approved loop is
// strip-mined with the given width (width <= 0 selects DefaultWidth for
// this host). The input program is analyzed once and not modified; the
// tests run in parallel as one batch; the resulting program is exactly
// what the equivalent sequence of hand-written StripMine calls would
// produce, in program order (see the package comment).
func AutoParallelize(prog *lang.Program, width int) (*Plan, error) {
	// 1. One analysis of the input program.
	t0 := time.Now()
	res, err := analysis.New(prog).AnalyzeAll()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	eff := effects.NewAnalyzer(prog)
	t2 := time.Now()
	plan, err := PlanAnalyzed(prog, res, eff, width)
	if err != nil {
		return nil, err
	}
	plan.Timings.Analyze, plan.Timings.Effects = t1.Sub(t0), t2.Sub(t1)
	return plan, nil
}

// PlanAnalyzed is AutoParallelize for a caller that already holds the
// program's path-matrix analysis and effect summaries (core.Compilation
// does): steps 2 to 5, against res and eff, which must describe prog as
// it is now.
func PlanAnalyzed(prog *lang.Program, res *analysis.Result, eff *effects.Analyzer, width int) (*Plan, error) {
	if width <= 0 {
		width = DefaultWidth(0)
	}
	if err := checkLoopPositions(prog); err != nil {
		return nil, err
	}

	// 2. Every while loop, in scan order, tested in one batch on the
	// executor's own pool: each test is a read-only query of the program,
	// the analysis and the effect summaries. Walk order is pre-order, so
	// the loops nested in sites[k] are the next sites[k].nested entries.
	t0 := time.Now()
	type site struct {
		fn     string
		index  int // among fn's while loops, in the input program
		loop   *lang.WhileStmt
		nested int
	}
	var sites []site
	for _, f := range prog.Funcs {
		for i, loop := range whileLoops(f.Body) {
			sites = append(sites, site{fn: f.Name, index: i, loop: loop, nested: len(whileLoops(loop.Body))})
		}
	}
	reports := make([]*depend.Report, len(sites))
	errs := make([]error, len(sites))
	parexec.ForEach(0, len(sites), func(k int) {
		s := sites[k]
		if containsForall(s.loop.Body) {
			reports[k] = noNesting(s.fn, s.loop)
			return
		}
		reports[k], errs[k] = depend.AnalyzeLoop(prog, res.Funcs[s.fn], eff, s.fn, s.index)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// 3. Choose, in scan order: an approved loop not inside a chosen loop
	// is chosen and the loops nested in it are absorbed; a rejected loop
	// around an approved one will hold that loop's forall.
	plan := &Plan{Width: width, Program: prog, Loops: make([]*LoopPlan, len(sites))}
	for k, s := range sites {
		plan.Loops[k] = &LoopPlan{Func: s.fn, Index: s.index, Pos: s.loop.Pos(), Report: reports[k]}
	}
	var chosen []int
	for k := 0; k < len(sites); k++ {
		inner := reports[k+1 : k+1+sites[k].nested]
		if reports[k].Parallelizable {
			chosen = append(chosen, k)
			k += len(inner)
		} else if slices.ContainsFunc(inner, func(r *depend.Report) bool { return r.Parallelizable }) {
			plan.Loops[k].Report = noNesting(sites[k].fn, sites[k].loop)
		}
	}
	t1 := time.Now()
	plan.Timings.Depend = t1.Sub(t0)
	if len(chosen) == 0 {
		return plan, nil
	}

	// 4. Rewrite the chosen loops, in scan order, on one clone. Each
	// rewrite moves its nested loops out of the function, so a later
	// sibling is addressed at its input index less the loops moved so far.
	// A rewrite reads types only off the loop it moves, so the synthesized
	// nodes are typed by one check at the end: each touched function and
	// each helper once.
	plan.Program = prog.Clone()
	plan.Parallelized = len(chosen)
	var touched []*lang.FuncDecl
	fn, moved := "", 0
	for _, k := range chosen {
		s := sites[k]
		if s.fn != fn {
			fn, moved = s.fn, 0
			touched = append(touched, plan.Program.Func(fn))
		}
		helper, err := rewriteLoop(plan.Program, reports[k], s.fn, s.index-moved, width)
		if err != nil {
			return nil, err
		}
		touched = append(touched, helper)
		moved += s.nested
		lp := plan.Loops[k]
		lp.Parallelized, lp.Helper, lp.Width = true, helper.Name, width
		for _, in := range plan.Loops[k+1 : k+1+s.nested] {
			in.Absorbed, in.AbsorbedInto, in.Report = true, helper.Name, nil
		}
	}
	if err := checkGenerated(plan.Program, touched...); err != nil {
		return nil, err
	}
	t2 := time.Now()
	plan.Timings.Rewrite = t2.Sub(t1)

	// 5. The kernel classifier's verdict on every strip.
	annotateVectorVerdicts(plan)
	plan.Timings.Lower = time.Since(t2)
	return plan, nil
}

// annotateVectorVerdicts builds the plan's code and joins the kernel
// classifier's per-strip verdicts onto the plan: lowering the
// transformed program through the bytecode pipeline runs the classifier
// on every forall (see bytecode/kernel.go), and strips match plan
// entries by source position — transform stamps each generated forall
// with the original while loop's position, the same key the profiler
// joins on. The verdict is advisory reporting; lowering failure
// therefore degrades to a stated reason rather than failing the plan
// (running plan.Code then reports the failure).
func annotateVectorVerdicts(plan *Plan) {
	if plan.Parallelized == 0 {
		return
	}
	plan.Code = interp.CompileProgram(plan.Program)
	bp, err := plan.Code.Bytecode()
	if err != nil {
		for _, lp := range plan.Loops {
			if lp.Parallelized {
				lp.VectorReason = fmt.Sprintf("kernel lowering unavailable: %v", err)
			}
		}
		return
	}
	byPos := map[lang.Pos]*bytecode.ForallSite{}
	for _, f := range bp.Funcs {
		for i := range f.Foralls {
			byPos[f.Foralls[i].Pos] = &f.Foralls[i]
		}
	}
	for _, lp := range plan.Loops {
		if !lp.Parallelized {
			continue
		}
		if s, ok := byPos[lp.Pos]; ok {
			lp.Vectorized = s.Kernel != nil
			lp.VectorReason = s.VectorReason
		} else {
			lp.VectorReason = "kernel lowering unavailable: no forall at the loop's position"
		}
	}
}

// whileLoops enumerates the while loops under a block in lang.Walk
// order — the same order LoopReports and FindLoop count by.
func whileLoops(body *lang.Block) []*lang.WhileStmt {
	var loops []*lang.WhileStmt
	lang.Walk(body, func(s lang.Stmt) bool {
		if w, ok := s.(*lang.WhileStmt); ok {
			loops = append(loops, w)
		}
		return true
	})
	return loops
}

// containsForall reports whether any statement under body is a
// parallel for (a forall region).
func containsForall(body *lang.Block) bool {
	found := false
	lang.Walk(body, func(s lang.Stmt) bool {
		if f, ok := s.(*lang.ForStmt); ok && f.Parallel {
			found = true
		}
		return !found
	})
	return found
}
