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
//     once; package depend gives every while loop its verdict against
//     that one analysis (depend.AnalyzeProgram, the verdict StripMine,
//     core's LoopReports and the X1 table read too); the outermost
//     approved loops are then strip-mined, in scan order, on
//     one copy that clones only the functions holding them (the others
//     are shared with the input, which nothing modifies). Nothing is
//     re-analyzed after a rewrite, so planning costs one analysis plus
//     one test and at most one rewrite per loop, and every approval is
//     a fact about the program the caller wrote. That is sound on its
//     own — strip-mining preserves a loop's reads and writes, so a
//     rewrite cannot un-approve a neighbour — and it reproduces what
//     re-analyzing the whole program after every rewrite would report:
//     TestPlanMatchesFullRestart holds the two byte-identical (plan
//     text, transformed program, loop coordinates) over the corpus and
//     over generated programs.
//
//   - Verdicts are consumed strictly in depend's scan order (functions
//     in program order, each function's loops in lang.Walk order), so
//     the plan and the transformed program are deterministic.
//
//   - Parallelism is never nested. depend rejects a loop whose body
//     already holds a forall; an approved loop inside an approved loop
//     moves into the outer loop's helper and is reported as absorbed,
//     not rejected; a rejected loop around an approved one reports that
//     its body holds a forall; helpers synthesized by the rewrites are
//     not planned at all. Either way the inner loop already runs inside
//     (or as) parallel iterations, and a second level of foralls would
//     only oversubscribe the worker pool.
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
	"repro/internal/interp"
	"repro/internal/lang"
)

// DefaultWidth is the planner's width policy when the caller has no
// opinion: 16 forall iterations per PE per barrier, at most 128. Each
// barrier has a fixed cost (the pool's dispatch and join, a vector
// strip's gather setup) that a wider strip spreads over more lanes, and
// a PE that finishes early takes more from the pool's cursor. Width
// costs no quadratic time: the VM walks a strip's chain once and charges
// the lanes' FOR2 skip loops in closed form, so what grows with W is
// only the paper's own accounting, W−1 skip steps per element. The cap
// holds that charge at 127 steps, what 4 iterations per PE gave a
// request at the server's default cap of 32 PEs. pes <= 0 means "this
// host": runtime.GOMAXPROCS.
//
// Chosen on the one host measured (2-vCPU sandbox, go1.24, PEs 2; the
// benchmark's run_s in ms, `go run ./benchmark -workload W -seconds 5`,
// three rounds each taking every width in turn; median and range):
//
//	width          bh_sim              vec_sweep        plan_cold
//	 8×PEs (16)   15.69 (15.22–15.77)  5.27 (5.22–5.32)  2.22 (2.19–2.25)
//	16×PEs (32)   15.20 (15.01–15.24)  4.72 (4.32–4.73)  2.15 (2.13–2.18)
//	32×PEs (64)   14.54 (14.42–14.81)  4.48 (4.45–4.50)  2.12 (2.09–2.14)
//
// 32×PEs read 1–5 % lower again, but it doubles the skip steps every
// element is charged, which a served request's step budget pays, and
// leaves a pool of four PEs at the cap already; 16×PEs took most of the
// gain over 8×PEs.
func DefaultWidth(pes int) int {
	if pes <= 0 {
		pes = runtime.GOMAXPROCS(0)
	}
	return min(16*pes, 128)
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

// checkLoopPositions returns a DuplicateLoopPosError if two of the
// reported loops share a source position.
func checkLoopPositions(reports []*depend.Report) error {
	owner := map[lang.Pos]string{}
	for _, r := range reports {
		if prev, dup := owner[r.Loop.Pos()]; dup {
			return &DuplicateLoopPosError{Pos: r.Loop.Pos(), FuncA: prev, FuncB: r.Func}
		}
		owner[r.Loop.Pos()] = r.Func
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
	// nothing was approved; the input is never modified, and shares
	// every function the planner did not rewrite).
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

// Timings is the wall time of each planning stage: Analyze is the
// whole-program analysis, effect summaries included, and Depend the
// verdicts (depend.AnalyzeProgram) — both zero when the caller handed
// the verdicts in, see PlanAnalyzed; Rewrite is the strip-mining and
// the type check of what it touched, Lower the build of Plan.Code.
type Timings struct {
	Analyze, Depend, Rewrite, Lower time.Duration
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

// AutoParallelize plans and transforms a whole checked program: every
// while loop of every function gets depend's verdict, and every
// approved loop not nested in another approved loop is strip-mined with
// the given width (width <= 0 selects DefaultWidth for this host). The
// input program is analyzed once and not modified; the verdicts are
// reached in parallel as one batch; the resulting program is exactly
// what the equivalent sequence of hand-written StripMine calls would
// produce, in program order (see the package comment).
func AutoParallelize(prog *lang.Program, width int) (*Plan, error) {
	t0 := time.Now()
	res, err := analysis.New(prog).AnalyzeAll()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	reports, err := depend.AnalyzeProgram(prog, res)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	plan, err := PlanAnalyzed(prog, reports, width)
	if err != nil {
		return nil, err
	}
	plan.Timings.Analyze, plan.Timings.Depend = t1.Sub(t0), t2.Sub(t1)
	return plan, nil
}

// PlanAnalyzed is AutoParallelize for a caller that already holds the
// program's verdicts (core.Compilation does): reports must be
// depend.AnalyzeProgram's for prog as it is now. It chooses the loops
// to strip-mine, rewrites them and lowers the result; it decides no
// verdict of its own.
func PlanAnalyzed(prog *lang.Program, reports []*depend.Report, width int) (*Plan, error) {
	if width <= 0 {
		width = DefaultWidth(0)
	}
	if err := checkLoopPositions(reports); err != nil {
		return nil, err
	}

	// Choose, in scan order: an approved loop not inside a chosen loop is
	// chosen and the loops nested in it are absorbed; a rejected loop
	// around an approved one will hold that loop's forall.
	plan := &Plan{Width: width, Program: prog, Loops: make([]*LoopPlan, len(reports))}
	for k, r := range reports {
		plan.Loops[k] = &LoopPlan{Func: r.Func, Index: r.Index, Pos: r.Loop.Pos(), Report: r}
	}
	var chosen []int
	for k := 0; k < len(reports); k++ {
		r := reports[k]
		inner := reports[k+1 : k+1+r.Nested]
		if r.Parallelizable {
			chosen = append(chosen, k)
			k += len(inner)
		} else if slices.ContainsFunc(inner, func(r *depend.Report) bool { return r.Parallelizable }) {
			plan.Loops[k].Report = &depend.Report{Func: r.Func, Index: r.Index, Loop: r.Loop, Nested: r.Nested,
				Reasons: []string{depend.NestedForall}}
		}
	}
	if len(chosen) == 0 {
		return plan, nil
	}

	t0 := time.Now()
	program, helpers, err := rewrite(prog, reports, chosen, width)
	if err != nil {
		return nil, err
	}
	plan.Program, plan.Parallelized = program, len(chosen)
	for j, k := range chosen {
		lp := plan.Loops[k]
		lp.Parallelized, lp.Helper, lp.Width = true, helpers[j], width
		for _, in := range plan.Loops[k+1 : k+1+reports[k].Nested] {
			in.Absorbed, in.AbsorbedInto, in.Report = true, helpers[j], nil
		}
	}
	t1 := time.Now()
	plan.Timings.Rewrite = t1.Sub(t0)

	// The kernel classifier's verdict on every strip.
	annotateVectorVerdicts(plan)
	plan.Timings.Lower = time.Since(t1)
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
