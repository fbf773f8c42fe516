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
//  5. the body carries no scalar loop-carried dependences (no writes to
//     scalars declared outside the loop);
//  6. the body never calls rand(), directly or through a callee: the
//     generator is one stream shared by every iteration.
package depend

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/effects"
	"repro/internal/lang"
)

// Report explains the parallelizability verdict for one loop.
type Report struct {
	Func         string
	Loop         *lang.WhileStmt
	Induction    string
	AdvanceField string
	Advance      *lang.AssignStmt
	// Parallelizable is the verdict.
	Parallelizable bool
	// Reasons lists the checks that failed (empty when parallelizable)
	// or, on success, the facts that licensed the transformation.
	Reasons []string
}

// String renders a one-line verdict plus reasons.
func (r *Report) String() string {
	verdict := "PARALLELIZABLE"
	if !r.Parallelizable {
		verdict = "NOT PARALLELIZABLE"
	}
	return fmt.Sprintf("%s.%s over %s: %s\n  %s",
		r.Func, loopDesc(r), r.AdvanceField, verdict, strings.Join(r.Reasons, "\n  "))
}

func loopDesc(r *Report) string {
	if r.Induction == "" {
		return "loop"
	}
	return "while " + r.Induction + " != NULL"
}

// AnalyzeLoop runs the full dependence test on the n-th while loop of
// function fnName, using a shared analysis result and effect analyzer
// (construct them once per program with analysis.Analyze /
// effects.NewAnalyzer).
//
// Concurrency contract: AnalyzeLoop only reads fr and eff — the
// path-matrix queries return entries by value and BlockSummary builds
// a fresh Summary from the memoized per-function tables — so
// independent loops may be tested from concurrent goroutines against
// the same fr/eff pair. The planner relies on this to run every
// dependence test of a program as one batch on the parexec pool.
func AnalyzeLoop(prog *lang.Program, fr *analysis.FuncResult, eff *effects.Analyzer, fnName string, loopIndex int) (*Report, error) {
	fn := prog.Func(fnName)
	if fn == nil {
		return nil, fmt.Errorf("depend: no function %q", fnName)
	}
	loop, err := analysis.FindLoop(fn, loopIndex)
	if err != nil {
		return nil, err
	}
	return analyzeLoop(prog, fr, eff, fn, loop)
}

func analyzeLoop(prog *lang.Program, fr *analysis.FuncResult, eff *effects.Analyzer, fn *lang.FuncDecl, loop *lang.WhileStmt) (*Report, error) {
	rep := &Report{Func: fn.Name, Loop: loop}

	// --- Recognize the canonical pointer-chasing form.
	ind, ok := inductionOfCond(loop.Cond)
	if !ok {
		rep.Reasons = append(rep.Reasons, "loop condition is not `p != NULL`")
		return rep, nil
	}
	rep.Induction = ind
	adv, field, ok := advanceOf(loop.Body, ind)
	if !ok {
		rep.Reasons = append(rep.Reasons, "loop body does not end with `"+ind+" = "+ind+"->f`")
		return rep, nil
	}
	rep.Advance, rep.AdvanceField = adv, field

	// --- 1. The induction pointer strictly advances.
	if !fr.InductionStrictlyAdvances(loop, ind) {
		rep.Reasons = append(rep.Reasons,
			fmt.Sprintf("analysis cannot prove %s visits a new node each iteration (p' may alias p)", ind))
		return rep, nil
	}

	// --- 2. The declaration is valid at the loop.
	elem := inductionElem(loop, ind)
	decl := prog.Universe.Decl(elem)
	var dim string
	if decl != nil {
		if pf := decl.Pointer(field); pf != nil {
			dim = pf.Dim
		}
	}
	if before, ok := fr.Before[lang.Stmt(loop)]; ok && decl != nil && dim != "" {
		if !before.Valid(elem, dim) {
			rep.Reasons = append(rep.Reasons,
				fmt.Sprintf("the %s declaration is not valid at the loop (active violation on dimension %s)", elem, dim))
			return rep, nil
		}
	}

	// --- Effects of the body, excluding the advance itself.
	body := bodyWithoutAdvance(loop.Body, adv)
	anchors := anchorsFor(fn, loop, ind)
	sum := eff.BlockSummary(body, anchors)

	// --- 3. No structure mutation.
	if pw := sum.PointerWrites(); len(pw) > 0 {
		rep.Reasons = append(rep.Reasons,
			fmt.Sprintf("body rearranges the structure (%d pointer-field store(s), e.g. %s)", len(pw), pw[0]))
		return rep, nil
	}

	// --- 5. No scalar loop-carried dependences.
	if v, ok := outerScalarWrite(loop.Body, adv); ok {
		rep.Reasons = append(rep.Reasons,
			fmt.Sprintf("body writes outer scalar %q (loop-carried dependence)", v))
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
	if conflict, why := crossIterationConflict(sum, ind); conflict {
		rep.Reasons = append(rep.Reasons, why)
		return rep, nil
	}

	rep.Parallelizable = true
	rep.Reasons = append(rep.Reasons,
		fmt.Sprintf("%s advances along %s (uniquely forward): iterations visit distinct nodes", ind, field),
		"body performs no pointer-field stores",
		"writes land only on the iteration's own node; overlapping reads touch disjoint fields",
	)
	return rep, nil
}

// AnalyzeAllLoops reports on every while loop in the function.
func AnalyzeAllLoops(prog *lang.Program, fnName string) ([]*Report, error) {
	fr, err := analysis.Analyze(prog, fnName)
	if err != nil {
		return nil, err
	}
	eff := effects.NewAnalyzer(prog)
	fn := prog.Func(fnName)
	if fn == nil {
		return nil, fmt.Errorf("depend: no function %q", fnName)
	}
	var reports []*Report
	var loops []*lang.WhileStmt
	lang.Walk(fn.Body, func(s lang.Stmt) bool {
		if w, ok := s.(*lang.WhileStmt); ok {
			loops = append(loops, w)
		}
		return true
	})
	for _, w := range loops {
		rep, err := analyzeLoop(prog, fr, eff, fn, w)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// inductionOfCond recognizes "p != NULL" / "NULL != p".
func inductionOfCond(cond lang.Expr) (string, bool) {
	be, ok := cond.(*lang.BinExpr)
	if !ok || be.Op != lang.NEQ {
		return "", false
	}
	if id, ok := be.X.(*lang.Ident); ok {
		if _, isNull := be.Y.(*lang.NullLit); isNull {
			return id.Name, true
		}
	}
	if id, ok := be.Y.(*lang.Ident); ok {
		if _, isNull := be.X.(*lang.NullLit); isNull {
			return id.Name, true
		}
	}
	return "", false
}

// advanceOf recognizes a final "p = p->f;" in the body.
func advanceOf(body *lang.Block, ind string) (*lang.AssignStmt, string, bool) {
	if len(body.Stmts) == 0 {
		return nil, "", false
	}
	as, ok := body.Stmts[len(body.Stmts)-1].(*lang.AssignStmt)
	if !ok {
		return nil, "", false
	}
	lhs, ok := as.LHS.(*lang.Ident)
	if !ok || lhs.Name != ind {
		return nil, "", false
	}
	fe, ok := as.RHS.(*lang.FieldExpr)
	if !ok || fe.Base() == nil || fe.Base().Name != ind || fe.Index != nil {
		return nil, "", false
	}
	return as, fe.Field, true
}

func inductionElem(loop *lang.WhileStmt, ind string) string {
	var elem string
	lang.Walk(loop.Body, func(s lang.Stmt) bool {
		found := false
		lang.WalkExprs(s, func(e lang.Expr) {
			if id, ok := e.(*lang.Ident); ok && id.Name == ind {
				if el, ok := lang.IsPointer(id.Type()); ok {
					elem = el
					found = true
				}
			}
		})
		return !found
	})
	return elem
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

// anchorsFor returns the pointer variables visible to the loop body from
// outside: the induction variable plus every pointer identifier used in
// the body that is not declared in it.
func anchorsFor(fn *lang.FuncDecl, loop *lang.WhileStmt, ind string) []string {
	declared := map[string]bool{}
	lang.Walk(loop.Body, func(s lang.Stmt) bool {
		if vs, ok := s.(*lang.VarStmt); ok {
			declared[vs.Name] = true
		}
		return true
	})
	seen := map[string]bool{ind: true}
	out := []string{ind}
	lang.Walk(loop.Body, func(s lang.Stmt) bool {
		lang.WalkExprs(s, func(e lang.Expr) {
			id, ok := e.(*lang.Ident)
			if !ok || seen[id.Name] || declared[id.Name] {
				return
			}
			if _, isPtr := lang.IsPointer(id.Type()); isPtr {
				seen[id.Name] = true
				out = append(out, id.Name)
			}
		})
		return true
	})
	return out
}

// outerScalarWrite finds an assignment to a scalar variable declared
// outside the loop body (other than the advance).
func outerScalarWrite(body *lang.Block, adv *lang.AssignStmt) (string, bool) {
	declared := map[string]bool{}
	lang.Walk(body, func(s lang.Stmt) bool {
		switch s := s.(type) {
		case *lang.VarStmt:
			declared[s.Name] = true
		case *lang.ForStmt:
			declared[s.Var] = true
		}
		return true
	})
	var name string
	lang.Walk(body, func(s lang.Stmt) bool {
		as, ok := s.(*lang.AssignStmt)
		if !ok || as == adv {
			return true
		}
		id, ok := as.LHS.(*lang.Ident)
		if !ok || declared[id.Name] {
			return true
		}
		if _, isPtr := lang.IsPointer(id.Type()); isPtr {
			return true // pointer reassignments are caught by analysis
		}
		name = id.Name
		return false
	})
	return name, name != ""
}

// randPath names one call chain from the block to rand(): "rand()", or
// "draw() -> rand()" when the draw happens inside a callee. The effect
// summaries say which callees to descend into.
func randPath(prog *lang.Program, eff *effects.Analyzer, b *lang.Block) string {
	visited := map[string]bool{}
	var find func(b *lang.Block) string
	find = func(b *lang.Block) string {
		path := ""
		lang.Walk(b, func(s lang.Stmt) bool {
			lang.WalkExprs(s, func(e lang.Expr) {
				call, ok := e.(*lang.CallExpr)
				if !ok || path != "" {
					return
				}
				if call.Func == "rand" {
					path = "rand()"
				} else if f := prog.Func(call.Func); f != nil && !visited[f.Name] && eff.FuncSummary(f.Name).Has(effects.RandDraw) {
					visited[f.Name] = true
					if sub := find(f.Body); sub != "" {
						path = f.Name + "() -> " + sub
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
// write must be anchored on the induction's own node; any other access
// that may overlap a write's region must touch a different field.
func crossIterationConflict(sum *effects.Summary, ind string) (bool, string) {
	ownNode := func(a effects.Access) bool {
		return a.Anchor() == ind && !a.Moved()
	}
	fresh := func(a effects.Access) bool {
		return a.Anchor() == effects.AnchorFresh
	}
	for _, w := range sum.Writes() {
		if fresh(w) {
			continue // writes to freshly allocated nodes never conflict
		}
		if !ownNode(w) {
			return true, fmt.Sprintf("write %s is not confined to the iteration's own node", w)
		}
		// Own-node write: iterations write distinct nodes, so the only
		// cross-iteration hazard is another iteration *reaching* this
		// node through a moved region and touching the same field.
		for _, a := range sum.Accesses {
			if a == w || fresh(a) {
				continue
			}
			if ownNode(a) {
				continue // same distinct node, no cross-iteration overlap
			}
			if a.Field() == w.Field() {
				return true, fmt.Sprintf("write %s may collide with %s in another iteration", w, a)
			}
		}
	}
	return false, ""
}
