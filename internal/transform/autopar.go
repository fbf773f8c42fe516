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
//   - Loops are identified by their source position, not their index.
//     Strip-mining loop k of a function moves any while loops nested
//     in its body into the generated helper procedure, shifting the
//     indices of every later loop in that function; positions survive
//     the move, so the planner's bookkeeping does not. Position keying
//     demands distinct positions: a program whose loops conflate (a
//     hand-built AST with all-zero positions) is rejected up front with
//     a DuplicateLoopPosError.
//
//   - Planning is incremental. The input is cloned once; every rewrite
//     then edits that working program in place, touching exactly two
//     functions (the rewritten one and its appended helper), and the
//     memoized analyses — analysis.Cache for path matrices,
//     effects.Analyzer.Update for effect summaries — re-derive only the
//     touched functions plus whatever the summary cascade reaches.
//     Dependence verdicts are cached per loop and invalidated only for
//     loops in re-analyzed functions, so a rewrite never re-tests the
//     rest of the program; see analysis.Cache for the argument that a
//     rewrite cannot change the dependence facts of an untouched
//     function. The scan converges because a strip-mined loop can never
//     be approved again (its body no longer ends with the advance) and
//     no rewrite creates new while loops.
//
//   - Within a pass, the dependence tests of the candidate loops are
//     independent read-only queries, so they run in parallel on
//     parexec's own scheduling machinery (parexec.ForEach) — the tool
//     eating its own cooking. Verdicts are consumed strictly in scan
//     order, so the plan (and the transformed program) is deterministic
//     and byte-identical to what the serial full-restart planner
//     produces.
//
//   - Helper procedures synthesized by the rewrites are not re-planned:
//     their loops already run inside parallel iterations, and nesting
//     foralls would only oversubscribe the worker pool. A loop that
//     moves into a helper is reported as absorbed, not rejected.
package transform

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/effects"
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
// program share one source position, so the planner's position-keyed
// bookkeeping cannot tell them apart. Programs built by lang.Parse give
// every loop a distinct position; the usual way to hit this is a
// hand-built AST whose loops all carry the zero position.
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
	// Report is the dependence verdict (nil for absorbed loops that
	// moved before the scan reached them).
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

	// reanalyzed and resummarized count the functions analysis.Cache
	// .Update and effects.Analyzer.Update reported re-deriving, summed
	// over the plan's rewrites: the planner's incremental cost in units
	// that repeat exactly (TestPlanCostSubquadratic pins them).
	reanalyzed, resummarized int
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
// while loop of every function is put through the dependence test, and
// every approved loop is strip-mined with the given width (width <= 0
// selects DefaultWidth for this host). The input program is not
// modified. Planning is incremental — each rewrite re-analyzes only the
// functions it touched (see the package comment and analysis.Cache) —
// and the per-loop dependence tests of a pass run in parallel; the
// resulting program is exactly what the equivalent sequence of
// hand-written StripMine calls would produce, in program order.
func AutoParallelize(prog *lang.Program, width int) (*Plan, error) {
	if width <= 0 {
		width = DefaultWidth(0)
	}
	plan := &Plan{Width: width}

	// The functions to plan: a snapshot of what exists before any
	// rewrite. Helpers synthesized below are appended after these and
	// never revisited. origIndex remembers every loop's (function,
	// index) in the *input* program — rewrites shift indices (nested
	// loops move into helpers), and plan entries must report the
	// coordinates the caller's own program uses. Position keying is only
	// sound when positions are distinct, so conflation is an error, not
	// a silent mis-plan.
	names := make([]string, 0, len(prog.Funcs))
	type loopAt struct {
		fn    string
		index int
	}
	origIndex := map[lang.Pos]loopAt{}
	for _, f := range prog.Funcs {
		names = append(names, f.Name)
		for i, loop := range whileLoops(f.Body) {
			if prev, dup := origIndex[loop.Pos()]; dup {
				return nil, &DuplicateLoopPosError{Pos: loop.Pos(), FuncA: prev.fn, FuncB: f.Name}
			}
			origIndex[loop.Pos()] = loopAt{fn: f.Name, index: i}
		}
	}
	newLoopPlan := func(pos lang.Pos, fn string, index int) (*LoopPlan, error) {
		if at, ok := origIndex[pos]; ok {
			fn, index = at.fn, at.index
		}
		if index < 0 {
			// Every plannable loop exists in the input program and was
			// indexed above; reaching here means the bookkeeping lost a
			// loop, and an entry with Index -1 would point the caller at
			// nothing.
			return nil, fmt.Errorf("transform: internal: loop at %s in %s has no input-program index", pos, fn)
		}
		return &LoopPlan{Func: fn, Index: index, Pos: pos}, nil
	}

	// One clone up front; every rewrite edits cur in place so that
	// untouched functions keep their AST identity — the key the memoized
	// analyses are filed under.
	cur := prog.Clone()
	cache, err := analysis.NewCache(cur)
	if err != nil {
		return nil, err
	}
	eff := effects.NewAnalyzer(cur)

	// seen keys loop identity by source position (verified distinct
	// above; positions survive the move into a helper). verdicts caches
	// dependence reports by position until a rewrite dirties the
	// enclosing function.
	seen := map[lang.Pos]*LoopPlan{}
	verdicts := map[lang.Pos]*depend.Report{}
	for {
		// Candidates, in scan order: every not-yet-settled loop of the
		// planned functions.
		type cand struct {
			name  string
			index int
			loop  *lang.WhileStmt
		}
		var cands []cand
		for _, name := range names {
			fn := cur.Func(name)
			for i, loop := range whileLoops(fn.Body) {
				if lp := seen[loop.Pos()]; lp != nil && (lp.Parallelized || lp.Absorbed) {
					continue
				}
				cands = append(cands, cand{name: name, index: i, loop: loop})
			}
		}

		// Test every candidate without a cached verdict — in parallel,
		// on the executor's own pool: each test is a read-only query of
		// the shared program, analysis cache, and effect summaries.
		var need []int
		for k, c := range cands {
			if _, ok := verdicts[c.loop.Pos()]; !ok {
				need = append(need, k)
			}
		}
		reports := make([]*depend.Report, len(cands))
		errs := make([]error, len(cands))
		parexec.ForEach(0, len(need), func(j int) {
			k := need[j]
			c := cands[k]
			if containsForall(c.loop.Body) {
				// Never nest parallel regions: a loop whose body already
				// holds a forall (an inner loop this planner approved on
				// an earlier pass, or surface-syntax forall) stays serial
				// — the pool is already busy inside it.
				reports[k] = &depend.Report{Func: c.name, Loop: c.loop,
					Reasons: []string{"body already contains a parallel forall (the planner does not nest parallelism)"}}
				return
			}
			reports[k], errs[k] = depend.AnalyzeLoop(cur, cache.Func(c.name), eff, c.name, c.index)
		})
		for _, k := range need {
			if errs[k] != nil {
				return nil, errs[k]
			}
			verdicts[cands[k].loop.Pos()] = reports[k]
		}

		// Consume verdicts in scan order; the first approval rewrites in
		// place and ends the pass (the rewrite dirties its function, so
		// later siblings re-test against the post-rewrite program).
		transformed := false
		for _, c := range cands {
			rep := verdicts[c.loop.Pos()]
			lp := seen[c.loop.Pos()]
			if lp == nil {
				if lp, err = newLoopPlan(c.loop.Pos(), c.name, c.index); err != nil {
					return nil, err
				}
				seen[c.loop.Pos()] = lp
				plan.Loops = append(plan.Loops, lp)
			}
			lp.Report = rep
			if !rep.Parallelizable {
				continue
			}
			// Snapshot the function's loop list and the approved body's
			// nested loops before the in-place rewrite replaces the body.
			loops := whileLoops(cur.Func(c.name).Body)
			inners := whileLoops(c.loop.Body)
			helper, err := stripMineInPlace(cur, rep, c.name, c.index, width)
			if err != nil {
				return nil, err
			}
			lp.Parallelized = true
			lp.Helper = helper
			lp.Width = width
			plan.Parallelized++
			// Loops nested in the approved body move into the helper
			// and run serially inside the parallel iterations; record
			// them so the plan accounts for every loop of the input.
			for _, inner := range inners {
				ilp := seen[inner.Pos()]
				if ilp == nil {
					if ilp, err = newLoopPlan(inner.Pos(), c.name, indexOfLoop(loops, inner)); err != nil {
						return nil, err
					}
					seen[inner.Pos()] = ilp
					plan.Loops = append(plan.Loops, ilp)
				}
				ilp.Absorbed = true
				ilp.AbsorbedInto = helper
			}
			// Re-derive the memoized analyses for the touched functions
			// and drop the cached verdicts of every loop whose facts the
			// rewrite could have reached.
			reanalyzed, err := cache.Update(c.name, helper)
			if err != nil {
				return nil, err
			}
			resummarized := eff.Update(c.name, helper)
			plan.reanalyzed += len(reanalyzed)
			plan.resummarized += len(resummarized)
			for _, fn := range append(reanalyzed, resummarized...) {
				if f := cur.Func(fn); f != nil {
					for _, loop := range whileLoops(f.Body) {
						delete(verdicts, loop.Pos())
					}
				}
			}
			transformed = true
			break
		}
		if !transformed {
			break
		}
	}
	plan.Program = cur
	annotateVectorVerdicts(plan)
	return plan, nil
}

// annotateVectorVerdicts joins the kernel classifier's per-strip
// verdicts onto the plan: lower the transformed program through the
// bytecode pipeline (whose forall lowering runs the classifier; see
// bytecode/kernel.go) and match strips to plan entries by source
// position — transform stamps each generated forall with the original
// while loop's position, the same key the profiler joins on. The
// verdict is advisory reporting; lowering failure therefore degrades
// to a stated reason rather than failing the plan.
func annotateVectorVerdicts(plan *Plan) {
	if plan.Parallelized == 0 {
		return
	}
	fail := func(err error) {
		for _, lp := range plan.Loops {
			if lp.Parallelized {
				lp.VectorReason = fmt.Sprintf("kernel lowering unavailable: %v", err)
			}
		}
	}
	cp, err := compile.Compile(plan.Program)
	if err != nil {
		fail(err)
		return
	}
	bp, err := bytecode.Compile(cp)
	if err != nil {
		fail(err)
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

// indexOfLoop locates w in loops; -1 when absent (newLoopPlan treats a
// position missing from the input index as an internal error rather
// than emitting an entry with a negative index).
func indexOfLoop(loops []*lang.WhileStmt, w *lang.WhileStmt) int {
	for i, l := range loops {
		if l == w {
			return i
		}
	}
	return -1
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
