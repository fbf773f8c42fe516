// Package transform implements the parallelizing transformations the
// paper applies once the analysis has proven a loop's iterations
// independent:
//
//   - StripMine (§4.3.3): rewrite "while p != NULL { body; p = p->f }"
//     into an outer while whose body runs `width` iterations in
//     parallel — a cloned iteration procedure first advances its
//     private copy of p by i speculative steps (the paper's FOR2), then
//     the outer loop advances p by width steps (FOR1). Speculative
//     traversability (§3.2) makes the unguarded advances safe. The
//     strip width is a free parameter, not the PE count: the paper sets
//     width = PEs (one iteration per PE per trip), while experiment X2
//     and the parexec scheduling policies use width > PEs so that the
//     iteration→PE mapping is the scheduler's choice.
//
//   - Unroll ([HG92]): replicate the body, relying on the same
//     speculative traversability to avoid per-copy NULL checks on the
//     advances.
//
//   - AutoParallelize (autopar.go): the planner that closes the
//     paper's loop — run the dependence test on every while loop of a
//     whole program and strip-mine each approved one, no hand-picked
//     function names or loop indices.
//
// All of them refuse to run unless package depend approves the loop.
package transform

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/depend"
	"repro/internal/effects"
	"repro/internal/lang"
)

// StripMineResult carries the transformed program and the dependence
// report that licensed it.
type StripMineResult struct {
	Program *lang.Program
	Report  *depend.Report
	// Helper is the generated per-iteration procedure name.
	Helper string
	// Width is the strip width: forall iterations per outer-loop trip.
	Width int
}

// StripMine parallelizes the loopIndex-th while loop of fnName with
// the given strip width — the number of iterations each trip of the
// outer loop runs as one parallel forall (§4.3.3 uses width = PEs; a
// larger width hands the executor's scheduling policy more iterations
// per barrier). It returns a transformed copy of the program (the
// input is not modified) and fails if the dependence test rejects the
// loop.
func StripMine(prog *lang.Program, fnName string, loopIndex, width int) (*StripMineResult, error) {
	rep, err := approveLoop(prog, fnName, loopIndex)
	if err != nil {
		return nil, err
	}
	if !rep.Parallelizable {
		return nil, fmt.Errorf("transform: loop #%d of %s is not parallelizable:\n%s", loopIndex, fnName, rep)
	}
	return stripMineCloned(prog, rep, fnName, loopIndex, width)
}

// approveLoop runs the full front half of every transformation in this
// package — path-matrix analysis, effect summaries, the dependence
// test — on one loop. The planner (AutoParallelize) reuses the verdict
// it computed during its scan instead of calling this again per loop.
func approveLoop(prog *lang.Program, fnName string, loopIndex int) (*depend.Report, error) {
	fr, err := analysis.Analyze(prog, fnName)
	if err != nil {
		return nil, err
	}
	eff := effects.NewAnalyzer(prog)
	return depend.AnalyzeLoop(prog, fr, eff, fnName, loopIndex)
}

// stripMineCloned is the rewrite half of StripMine: it trusts rep (the
// dependence report licensing loop loopIndex of fnName on this exact
// program), performs the §4.3.3 transformation on a clone and re-checks
// the two functions it touched — fnName and the appended helper.
func stripMineCloned(prog *lang.Program, rep *depend.Report, fnName string, loopIndex, width int) (*StripMineResult, error) {
	clone := prog.Clone()
	helper, err := rewriteLoop(clone, rep, fnName, loopIndex, width)
	if err == nil {
		err = checkGenerated(clone, clone.Func(fnName), helper)
	}
	if err != nil {
		return nil, err
	}
	return &StripMineResult{Program: clone, Report: rep, Helper: helper.Name, Width: width}, nil
}

// checkGenerated type-checks the functions a rewrite touched, to type
// the synthesized nodes.
func checkGenerated(prog *lang.Program, fns ...*lang.FuncDecl) error {
	if err := lang.CheckFuncs(prog, fns...); err != nil {
		return fmt.Errorf("transform: internal: generated code does not check: %w", err)
	}
	return nil
}

// rewriteLoop is the §4.3.3 rewrite itself, directly on prog: it
// replaces the body of loop loopIndex of fnName and appends the
// iteration procedure, which it returns. The synthesized nodes are left
// untyped (checkGenerated types them); everything the rewrite needs to
// know about types it reads off the loop it moves. On error the program
// may be left partially rewritten. The names it introduces — the helper, the PE index
// and the skip-ahead counter — are the documented ones unless the
// program already uses them, in which case a numeric suffix makes them
// free.
func rewriteLoop(prog *lang.Program, rep *depend.Report, fnName string, loopIndex, width int) (*lang.FuncDecl, error) {
	if width < 1 {
		return nil, fmt.Errorf("transform: strip width must be >= 1, got %d", width)
	}

	fn := prog.Func(fnName)
	if fn == nil {
		return nil, fmt.Errorf("transform: no function %q", fnName)
	}
	loop, err := analysis.FindLoop(fn, loopIndex)
	if err != nil {
		return nil, err
	}
	ind := rep.Induction
	field := rep.AdvanceField

	indType := inductionType(loop, ind)
	if indType == nil {
		return nil, fmt.Errorf("transform: cannot determine type of induction %q", ind)
	}

	// Free variables of the body (excluding the induction and locals):
	// they become parameters of the iteration procedure.
	frees, taken := freeVars(loop.Body, ind)
	inBody := func(n string) bool { return taken[n] }
	pe := freeName("_pe", inBody)
	taken[pe] = true
	skip := freeName("_k", inBody)

	helperName := freeName(fmt.Sprintf("_%s_L%d_iteration", fnName, loopIndex),
		func(n string) bool { return prog.Func(n) != nil })
	helper, err := buildHelper(helperName, pe, skip, ind, indType, field, loop, frees)
	if err != nil {
		return nil, err
	}
	if err := prog.AddFunc(helper); err != nil {
		return nil, err
	}

	// Replace the loop body:
	//   forall i = 0 to width-1 { helper(i, p, frees...); }  // parallel
	//   for i = 0 to width-1 { p = p->f; }                   // FOR1
	args := []lang.Expr{&lang.Ident{Name: pe}, &lang.Ident{Name: ind}}
	for _, fv := range frees {
		args = append(args, &lang.Ident{Name: fv.Name})
	}
	parallel := &lang.ForStmt{
		Var:      pe,
		From:     lang.NewIntLit(0, loop.Pos()),
		To:       lang.NewIntLit(int64(width-1), loop.Pos()),
		Parallel: true,
		Body: &lang.Block{Stmts: []lang.Stmt{
			&lang.CallStmt{Call: &lang.CallExpr{Func: helperName, Args: args}},
		}},
	}
	// Attribute the generated forall to the loop it strip-mines, so
	// profilers and error messages key to the source loop's line — the
	// same line the planner's Plan reports.
	parallel.SetPos(loop.Pos())
	advance := &lang.ForStmt{
		Var:  pe,
		From: lang.NewIntLit(0, loop.Pos()),
		To:   lang.NewIntLit(int64(width-1), loop.Pos()),
		Body: &lang.Block{Stmts: []lang.Stmt{
			&lang.AssignStmt{
				LHS: &lang.Ident{Name: ind},
				RHS: &lang.FieldExpr{X: &lang.Ident{Name: ind}, Field: field},
			},
		}},
	}
	loop.Body = &lang.Block{Stmts: []lang.Stmt{parallel, advance}}
	return helper, nil
}

// buildHelper constructs:
//
//	procedure <name>(int <pe>, T *p, <frees>) {
//	  for <k> = 1 to <pe> { p = p->f; }   // FOR2: speculative skip-ahead
//	  if p != NULL { <body without advance> }
//	}
func buildHelper(name, pe, k, ind string, indType lang.Type, field string, loop *lang.WhileStmt, frees []lang.Param) (*lang.FuncDecl, error) {
	params := []lang.Param{{Name: pe, Type: lang.Int}, {Name: ind, Type: indType}}
	params = append(params, frees...)

	skip := &lang.ForStmt{
		Var:  k,
		From: lang.NewIntLit(1, loop.Pos()),
		To:   &lang.Ident{Name: pe},
		Body: &lang.Block{Stmts: []lang.Stmt{
			&lang.AssignStmt{
				LHS: &lang.Ident{Name: ind},
				RHS: &lang.FieldExpr{X: &lang.Ident{Name: ind}, Field: field},
			},
		}},
	}

	// Clone the body and drop the trailing advance.
	body := lang.CloneBlock(loop.Body)
	if len(body.Stmts) == 0 {
		return nil, fmt.Errorf("transform: empty loop body")
	}
	body.Stmts = body.Stmts[:len(body.Stmts)-1]

	guard := &lang.IfStmt{
		Cond: &lang.BinExpr{
			Op: lang.NEQ,
			X:  &lang.Ident{Name: ind},
			Y:  &lang.NullLit{},
		},
		Then: body,
	}
	return &lang.FuncDecl{
		Name:   name,
		Params: params,
		Body:   &lang.Block{Stmts: []lang.Stmt{skip, guard}},
	}, nil
}

// inductionType finds the pointer type of the induction variable from
// its uses in the loop.
func inductionType(loop *lang.WhileStmt, ind string) lang.Type {
	var t lang.Type
	if be, ok := loop.Cond.(*lang.BinExpr); ok {
		for _, e := range []lang.Expr{be.X, be.Y} {
			if id, ok := e.(*lang.Ident); ok && id.Name == ind && id.Type() != nil {
				t = id.Type()
			}
		}
	}
	if t != nil {
		return t
	}
	lang.Walk(loop.Body, func(s lang.Stmt) bool {
		lang.WalkExprs(s, func(e lang.Expr) {
			if id, ok := e.(*lang.Ident); ok && id.Name == ind && id.Type() != nil {
				t = id.Type()
			}
		})
		return t == nil
	})
	return t
}

// freeVars lists the variables the body reads that are declared outside
// it (excluding the induction variable), in deterministic order, and
// the set of every name the body binds or reads from outside — what a
// name synthesized around the body must avoid.
func freeVars(body *lang.Block, ind string) ([]lang.Param, map[string]bool) {
	taken := map[string]bool{ind: true}
	lang.Walk(body, func(s lang.Stmt) bool {
		switch s := s.(type) {
		case *lang.VarStmt:
			taken[s.Name] = true
		case *lang.ForStmt:
			taken[s.Var] = true
		}
		return true
	})
	seen := map[string]lang.Type{}
	lang.Walk(body, func(s lang.Stmt) bool {
		lang.WalkExprs(s, func(e lang.Expr) {
			id, ok := e.(*lang.Ident)
			if !ok || taken[id.Name] || id.Type() == nil {
				return
			}
			seen[id.Name] = id.Type()
		})
		return true
	})
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]lang.Param, len(names))
	for i, n := range names {
		out[i] = lang.Param{Name: n, Type: seen[n]}
		taken[n] = true
	}
	return out, taken
}

// freeName returns base, or base with the smallest numeric suffix that
// makes it not taken.
func freeName(base string, taken func(string) bool) string {
	name := base
	for n := 1; taken(name); n++ {
		name = fmt.Sprintf("%s%d", base, n)
	}
	return name
}

// Unroll replicates the body of the loop `factor` times ([HG92]). Each
// copy is guarded by a NULL check on the induction variable, but the
// advances themselves run unguarded thanks to speculative
// traversability. The loop must pass the same dependence test as
// StripMine (unrolling reorders no writes, but the test guarantees the
// copies do not interfere, which also keeps the transformation safe
// under later scheduling).
func Unroll(prog *lang.Program, fnName string, loopIndex, factor int) (*lang.Program, error) {
	if factor < 2 {
		return nil, fmt.Errorf("transform: unroll factor must be >= 2, got %d", factor)
	}
	rep, err := approveLoop(prog, fnName, loopIndex)
	if err != nil {
		return nil, err
	}
	if !rep.Parallelizable {
		return nil, fmt.Errorf("transform: loop #%d of %s is not unrollable:\n%s", loopIndex, fnName, rep)
	}

	clone := prog.Clone()
	fn := clone.Func(fnName)
	loop, err := analysis.FindLoop(fn, loopIndex)
	if err != nil {
		return nil, err
	}
	ind := rep.Induction
	field := rep.AdvanceField

	orig := lang.CloneBlock(loop.Body)
	orig.Stmts = orig.Stmts[:len(orig.Stmts)-1] // drop advance

	mkAdvance := func() lang.Stmt {
		return &lang.AssignStmt{
			LHS: &lang.Ident{Name: ind},
			RHS: &lang.FieldExpr{X: &lang.Ident{Name: ind}, Field: field},
		}
	}
	var stmts []lang.Stmt
	// First copy runs unguarded (the loop condition holds).
	stmts = append(stmts, lang.CloneBlock(orig), mkAdvance())
	for k := 1; k < factor; k++ {
		stmts = append(stmts, &lang.IfStmt{
			Cond: &lang.BinExpr{Op: lang.NEQ, X: &lang.Ident{Name: ind}, Y: &lang.NullLit{}},
			Then: lang.CloneBlock(orig),
		}, mkAdvance()) // speculative: advances past NULL are safe
	}
	loop.Body = &lang.Block{Stmts: stmts}

	if err := lang.Check(clone); err != nil {
		return nil, fmt.Errorf("transform: internal: unrolled code does not check: %w", err)
	}
	return clone, nil
}
