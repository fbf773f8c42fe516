// Package depend decides whether the iterations of a pointer-chasing
// loop are independent — the paper's §4.3.2 test that licenses the
// strip-mining transformation of §4.3.3.
//
// A loop "while p != NULL { body; p = p->f }" parallelizes when:
//
//  1. the advance provably visits a new node every iteration (general
//     path matrix analysis: p' and p never alias, connected by a
//     forward path along a uniquely-forward dimension);
//  2. the ADDS declaration the advance relies on is valid at the loop
//     (no active violations on the traversed dimension);
//  3. the body performs no pointer-field stores (it does not rearrange
//     the structure);
//  4. at field granularity, the body's writes cannot collide across
//     iterations: writes land only on the iteration's own node (region
//     "p", unmoved), and any other access to a possibly-overlapping
//     region touches disjoint fields — exactly why BHL1 parallelizes:
//     compute_force writes only force fields of p while reading only
//     mass/position fields of the tree;
//  5. the body carries no loop-carried dependences through variables:
//     it writes no scalar or pointer declared outside the loop, the
//     induction's advance excepted. "Outside" is by declaration, not
//     by name: each use is keyed by the slot lang.Check resolved it
//     to, so a body that also declares an s of its own in a nested
//     block still writes the outer s it assigns;
//  6. the body never calls rand(), directly or through a callee: the
//     generator is one stream shared by every iteration;
//  7. the body holds no forall: parallelism is never nested;
//  8. no function exits with an active violation on the traversed
//     dimension: check 2's premise holds of the heap (ROADMAP 2(a)).
//
// AnalyzeLoop runs checks 1–6 on one loop; AnalyzeProgram runs all
// eight on every loop of a program and gives the one verdict the
// planner, StripMine, core's LoopReports and the X1 table read.
package depend

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/adds"
	"repro/internal/analysis"
	"repro/internal/effects"
	"repro/internal/lang"
	"repro/internal/sched"
)

// Report explains the parallelizability verdict for one loop.
type Report struct {
	// Func and Index locate the loop (Index counts Func's while loops
	// in lang.Walk order); Nested counts the while loops in its body.
	Func         string
	Index        int
	Loop         *lang.WhileStmt
	Nested       int
	Induction    string
	AdvanceField string
	Advance      *lang.AssignStmt
	// Elem is the induction pointer's element type and Dim the
	// dimension its advance field is declared along ("" when the test
	// stopped before finding them, or the field is undeclared).
	Elem, Dim string
	// The loop's scope, from one walk of its body keyed by the checker's
	// slots (set once the loop is in canonical form): IndType is the
	// induction's pointer type; Free lists the outer variables the body
	// reads, the induction excepted, sorted by name; Names holds every
	// name the body declares or reads. A variable is outer when its
	// declaration lies outside the loop.
	IndType lang.Type
	Free    []lang.Param
	Names   map[string]bool
	// Parallelizable is the verdict.
	Parallelizable bool
	// Reasons lists the checks that failed (empty when parallelizable)
	// or, on success, the facts that licensed the transformation.
	Reasons []string
}

// String renders a one-line verdict plus reasons.
func (r *Report) String() string {
	loop, verdict := "loop", "PARALLELIZABLE"
	if r.Induction != "" {
		loop = "while " + r.Induction + " != NULL"
	}
	if r.AdvanceField != "" {
		loop += " over " + r.AdvanceField
	}
	if !r.Parallelizable {
		verdict = "NOT PARALLELIZABLE"
	}
	return fmt.Sprintf("%s.%s: %s\n  %s", r.Func, loop, verdict, strings.Join(r.Reasons, "\n  "))
}

// NestedForall is the reason a loop whose body holds a forall is
// rejected, by the nesting guard or by a planner about to put one there.
const NestedForall = "body already contains a parallel forall (the planner does not nest parallelism)"

// AnalyzeProgram gives the verdict on every while loop of prog, in scan
// order: functions in program order, each function's loops in
// lang.Walk order (pre-order, so the loops nested in reports[k] are the
// next reports[k].Nested). res must be prog's analysis. A loop whose
// body holds a forall is rejected by the nesting guard; every other
// loop goes through AnalyzeLoop, all of them as one batch on the
// schedule parexec's pool runs foralls on (sched.ForEach); then every
// approval is held to its declaration's premise.
func AnalyzeProgram(prog *lang.Program, res *analysis.Result) ([]*Report, error) {
	var reports []*Report
	for _, f := range prog.Funcs {
		for i, loop := range under[*lang.WhileStmt](f.Body) {
			reports = append(reports, &Report{Func: f.Name, Index: i, Loop: loop, Nested: len(under[*lang.WhileStmt](loop.Body))})
		}
	}
	errs := make([]error, len(reports))
	sched.ForEach(0, len(reports), func(k int) {
		r := reports[k]
		if slices.ContainsFunc(under[*lang.ForStmt](r.Loop.Body), func(f *lang.ForStmt) bool { return f.Parallel }) {
			r.Reasons = []string{NestedForall}
		} else if reports[k], errs[k] = AnalyzeLoop(prog, res.Funcs[r.Func], res.Effects, r.Func, r.Index); errs[k] == nil {
			reports[k].Nested = r.Nested
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	requireValidExits(prog, res, reports)
	return reports, nil
}

// requireValidExits holds every approval to the premise it rests on:
// the loop's function assumes its element type's declaration along the
// traversed dimension, which is only true of the heap if no function
// leaves a violation of it behind. An approved loop over (T, D) is
// rejected when some function exits with an active violation on (T, D);
// the reason names the first such function, in program order, and the
// violation. Loops another check rejected keep their reasons.
func requireValidExits(prog *lang.Program, res *analysis.Result, reports []*Report) {
	type dimOf struct{ typ, dim string }
	broken := map[dimOf]string{}
	for _, f := range prog.Funcs {
		fr := res.Funcs[f.Name]
		if fr == nil || fr.Exit == nil {
			continue
		}
		for _, k := range fr.Exit.ViolationKeys() {
			if _, seen := broken[dimOf{k.Type, k.Dim}]; !seen {
				broken[dimOf{k.Type, k.Dim}] = fmt.Sprintf("%s exits with an active violation (%s)", f.Name, k)
			}
		}
	}
	for _, r := range reports {
		if !r.Parallelizable || r.Dim == "" {
			continue
		}
		if why, ok := broken[dimOf{r.Elem, r.Dim}]; ok {
			r.Parallelizable = false
			r.Reasons = []string{fmt.Sprintf("the %s declaration along %s does not hold of the heap: %s", r.Elem, r.Dim, why)}
		}
	}
}

// under lists the statements of type T under body in lang.Walk order —
// for while loops, the order FindLoop counts by.
func under[T lang.Stmt](body *lang.Block) []T {
	var out []T
	lang.Walk(body, func(s lang.Stmt) bool {
		if t, ok := s.(T); ok {
			out = append(out, t)
		}
		return true
	})
	return out
}

// AnalyzeLoop runs checks 1–6 of the dependence test on the n-th while
// loop of function fnName, against one function's path-matrix analysis and the
// program's effect summaries — both from one analysis.AnalyzeAll result
// (res.Funcs[fnName], res.Effects).
//
// Concurrency contract: AnalyzeLoop only reads fr and eff — the
// path-matrix queries return entries by value and BlockSummary builds
// a fresh Summary from the memoized per-function tables — so
// independent loops may be tested from concurrent goroutines against
// the same fr/eff pair. AnalyzeProgram relies on this to run every
// dependence test of a program as one batch (AnalyzeProgram).
func AnalyzeLoop(prog *lang.Program, fr *analysis.FuncResult, eff *effects.Analyzer, fnName string, loopIndex int) (*Report, error) {
	fn := prog.Func(fnName)
	if fn == nil {
		return nil, fmt.Errorf("depend: no function %q", fnName)
	}
	loop, err := analysis.FindLoop(fn, loopIndex)
	if err != nil {
		return nil, err
	}
	rep := &Report{Func: fn.Name, Index: loopIndex, Loop: loop}

	// --- Recognize the canonical pointer-chasing form.
	indVar := inductionOfCond(loop.Cond)
	if indVar == nil {
		rep.Reasons = append(rep.Reasons, "loop condition is not `p != NULL`")
		return rep, nil
	}
	ind := indVar.Name
	rep.Induction = ind
	adv, field, ok := advanceOf(loop.Body, indVar)
	if !ok {
		rep.Reasons = append(rep.Reasons, "loop body does not end with `"+ind+" = "+ind+"->f`")
		return rep, nil
	}
	rep.Advance, rep.AdvanceField = adv, field
	anchors, outerWrite := rep.scope(len(fn.Vars), indVar)

	// --- 1. The induction pointer strictly advances.
	if !fr.InductionStrictlyAdvances(loop, indVar.Slot) {
		rep.Reasons = append(rep.Reasons,
			fmt.Sprintf("analysis cannot prove %s visits a new node each iteration (p' may alias p)", ind))
		return rep, nil
	}

	// --- 2. The declaration is valid at the loop.
	elem, _ := lang.IsPointer(rep.IndType)
	decl := prog.Universe.Decl(elem)
	var pf *adds.PointerField
	var dim string
	if decl != nil {
		if pf = decl.Pointer(field); pf != nil {
			dim = pf.Dim
		}
	}
	rep.Elem, rep.Dim = elem, dim
	if before := fr.Before(loop); before != nil && decl != nil && dim != "" {
		if !before.Valid(elem, dim) {
			rep.Reasons = append(rep.Reasons,
				fmt.Sprintf("the %s declaration is not valid at the loop (active violation on dimension %s)", elem, dim))
			return rep, nil
		}
	}

	// --- Effects of the body, excluding the advance itself.
	body := bodyWithoutAdvance(loop.Body, adv)
	sum := eff.BlockSummary(fn, body, anchors)

	// --- 3. No structure mutation.
	if pw := sum.PointerWrites(); len(pw) > 0 {
		rep.Reasons = append(rep.Reasons,
			fmt.Sprintf("body rearranges the structure (%d pointer-field store(s), e.g. %s)", len(pw), pw[0]))
		return rep, nil
	}

	// --- 5. No writes to variables declared outside the loop: each
	// carries a value from one iteration to the next, and an iteration
	// procedure would write its own copy, never the caller's.
	if outerWrite != nil {
		kind := "scalar"
		if _, isPtr := lang.IsPointer(outerWrite.Type()); isPtr {
			kind = "pointer"
		}
		rep.Reasons = append(rep.Reasons,
			fmt.Sprintf("body writes outer %s %q (loop-carried dependence)", kind, outerWrite.Name))
		return rep, nil
	}

	// --- 6. No draw from the shared random stream. A parallel run
	// serves rand() in completion order, so iterations that draw —
	// directly or through a callee — would see other values than the
	// serial loop gives them. (print() is fine: its output is merged in
	// iteration order.)
	if sum.Has(effects.RandDraw) {
		rep.Reasons = append(rep.Reasons,
			fmt.Sprintf("body draws from the shared rand() stream (%s): parallel iterations would draw in completion order, not loop order", randPath(prog, eff, body)))
		return rep, nil
	}

	// --- 4. Field-granularity write/collision check.
	if conflict, why := crossIterationConflict(sum, indVar.Slot); conflict {
		rep.Reasons = append(rep.Reasons, why)
		return rep, nil
	}

	rep.Parallelizable = true
	rep.Reasons = append(rep.Reasons,
		ind+" advances along "+field+" ("+declaredAs(pf)+"): iterations visit distinct nodes",
		"body performs no pointer-field stores",
		"writes land only on the iteration's own node; overlapping reads touch disjoint fields",
	)
	return rep, nil
}

// declaredAs renders a pointer field's ADDS annotation as written —
// "uniquely forward", "forward", … — and "not annotated" for a field
// without one (or no declaration at all).
func declaredAs(pf *adds.PointerField) string {
	switch {
	case pf == nil || pf.Dir == adds.Unknown:
		return "not annotated"
	case pf.Unique && pf.Dir == adds.Forward:
		return "uniquely forward"
	case pf.Unique:
		return "uniquely backward"
	}
	return pf.Dir.String()
}

// inductionOfCond recognizes "p != NULL" / "NULL != p", returning p
// (nil for any other condition).
func inductionOfCond(cond lang.Expr) *lang.Ident {
	be, ok := cond.(*lang.BinExpr)
	if !ok || be.Op != lang.NEQ {
		return nil
	}
	if id, ok := be.X.(*lang.Ident); ok {
		if _, isNull := be.Y.(*lang.NullLit); isNull {
			return id
		}
	}
	if id, ok := be.Y.(*lang.Ident); ok {
		if _, isNull := be.X.(*lang.NullLit); isNull {
			return id
		}
	}
	return nil
}

// advanceOf recognizes a final "p = p->f;" in the body, where both p
// resolve to the induction's declaration.
func advanceOf(body *lang.Block, ind *lang.Ident) (*lang.AssignStmt, string, bool) {
	if len(body.Stmts) == 0 {
		return nil, "", false
	}
	as, ok := body.Stmts[len(body.Stmts)-1].(*lang.AssignStmt)
	if !ok {
		return nil, "", false
	}
	lhs, ok := as.LHS.(*lang.Ident)
	if !ok || lhs.Slot != ind.Slot {
		return nil, "", false
	}
	fe, ok := as.RHS.(*lang.FieldExpr)
	if !ok || fe.Base() == nil || fe.Base().Slot != ind.Slot || fe.Index != nil {
		return nil, "", false
	}
	return as, fe.Field, true
}

// scope walks the loop body once, keyed by the checker's slots (nvars
// is the function's count): a slot a var or for inside the body
// declares belongs to the body, every other slot is outer. It sets
// rep's IndType, Free and Names, and returns the slots the effect
// summary is anchored on — the induction, then each outer pointer the
// body reads, in order of first use — and the first outer variable
// other than the induction the body assigns (nil if none).
func (rep *Report) scope(nvars int, ind *lang.Ident) (anchors []int, outerWrite *lang.Ident) {
	const inBody, outer = 1, 2
	where := make([]byte, nvars)
	where[ind.Slot] = outer
	rep.IndType = ind.Type()
	rep.Names = map[string]bool{ind.Name: true}
	anchors = []int{ind.Slot}
	lang.Walk(rep.Loop.Body, func(s lang.Stmt) bool {
		switch s := s.(type) {
		case *lang.VarStmt:
			where[s.Slot], rep.Names[s.Name] = inBody, true
		case *lang.ForStmt:
			where[s.Slot], rep.Names[s.Var] = inBody, true
		case *lang.AssignStmt:
			if id, ok := s.LHS.(*lang.Ident); ok && where[id.Slot] != inBody && id.Slot != ind.Slot && outerWrite == nil {
				outerWrite = id
			}
		}
		lang.WalkExprs(s, func(e lang.Expr) {
			id, ok := e.(*lang.Ident)
			if !ok || where[id.Slot] != 0 {
				return
			}
			where[id.Slot] = outer
			rep.Names[id.Name] = true
			rep.Free = append(rep.Free, lang.Param{Name: id.Name, ID: id.ID, Type: id.Type()})
			if _, isPtr := lang.IsPointer(id.Type()); isPtr {
				anchors = append(anchors, id.Slot)
			}
		})
		return true
	})
	sort.Slice(rep.Free, func(i, j int) bool { return rep.Free[i].Name < rep.Free[j].Name })
	return anchors, outerWrite
}

// bodyWithoutAdvance clones the body minus the final advance statement.
func bodyWithoutAdvance(body *lang.Block, adv *lang.AssignStmt) *lang.Block {
	nb := &lang.Block{}
	for _, s := range body.Stmts {
		if s == lang.Stmt(adv) {
			continue
		}
		nb.Stmts = append(nb.Stmts, s)
	}
	return nb
}

// randPath names one call chain from the block to rand(): "rand()", or
// "draw() -> rand()" when the draw happens inside a callee. The effect
// summaries say which callees to descend into.
func randPath(prog *lang.Program, eff *effects.Analyzer, b *lang.Block) string {
	visited := make([]bool, len(prog.Funcs))
	var find func(b *lang.Block) string
	find = func(b *lang.Block) string {
		path := ""
		lang.Walk(b, func(s lang.Stmt) bool {
			lang.WalkExprs(s, func(e lang.Expr) {
				call, ok := e.(*lang.CallExpr)
				if !ok || path != "" {
					return
				}
				i := int(call.Callee) - 1
				if call.Func == "rand" {
					path = "rand()"
				} else if sum := eff.FuncSummary(i); sum != nil && i < len(visited) && !visited[i] && sum.Has(effects.RandDraw) {
					visited[i] = true
					if sub := find(prog.Funcs[i].Body); sub != "" {
						path = call.Func + "() -> " + sub
					}
				}
			})
			return path == ""
		})
		return path
	}
	return find(b)
}

// crossIterationConflict checks the field-granularity condition: every
// write must be anchored on the own node of the induction, at slot ind;
// any other access that may overlap a write's region must touch a
// different field.
func crossIterationConflict(sum *effects.Summary, ind int) (bool, string) {
	for _, w := range sum.Writes() {
		if w.Fresh() {
			continue // writes to freshly allocated nodes never conflict
		}
		if w.Slot() != ind || w.Moved() {
			return true, fmt.Sprintf("write %s is not confined to the iteration's own node", w)
		}
		// Own-node write: iterations write distinct nodes, so the only
		// cross-iteration hazard is another iteration *reaching* this
		// node through a moved region and touching the same field. An
		// access to the own node is the same distinct node, no overlap.
		for _, a := range sum.Accesses {
			if a == w || a.Fresh() || a.Slot() == ind && !a.Moved() {
				continue
			}
			if a.Field() == w.Field() {
				return true, fmt.Sprintf("write %s may collide with %s in another iteration", w, a)
			}
		}
	}
	return false, ""
}
