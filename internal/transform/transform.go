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
//     and the parexec pool use width > PEs so that a PE that finishes
//     early can take more of the trip's iterations.
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

	"repro/internal/analysis"
	"repro/internal/depend"
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
// larger width hands the executor's PEs more iterations to share per
// barrier). It returns a transformed copy of the program (the
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
	res, err := analysis.New(prog).AnalyzeAll()
	if err != nil {
		return nil, err
	}
	return depend.AnalyzeLoop(prog, res.Funcs[fnName], res.Effects, fnName, loopIndex)
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
// untyped (checkGenerated types them); the types and names the rewrite
// needs it reads off rep's scope of the loop. On error the program may
// be left partially rewritten. The names it introduces — the helper,
// the PE index and the skip-ahead counter — are the documented ones
// unless the program already uses them, in which case a numeric suffix
// makes them free.
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
	ind, field := rep.Induction, rep.AdvanceField

	// The report's scope gives the iteration procedure its parameters —
	// the induction, then the body's free variables — and the names the
	// synthesized PE index and skip-ahead counter must avoid.
	taken := func(n string) bool { return rep.Names[n] }
	pe := freeName("_pe", taken)
	skip := freeName("_k", taken)

	helperName := freeName(fmt.Sprintf("_%s_L%d_iteration", fnName, loopIndex),
		func(n string) bool { return prog.Func(n) != nil })
	nb := namer{prog}
	helper, err := nb.buildHelper(helperName, pe, skip, rep, loop)
	if err != nil {
		return nil, err
	}
	if err := prog.AddFunc(helper); err != nil {
		return nil, err
	}

	// Replace the loop body:
	//   forall i = 0 to width-1 { helper(i, p, frees...); }  // parallel
	//   for i = 0 to width-1 { p = p->f; }                   // FOR1
	args := []lang.Expr{nb.ident(pe), nb.ident(ind)}
	for _, fv := range rep.Free {
		args = append(args, nb.ident(fv.Name))
	}
	parallel := &lang.ForStmt{
		Var:      pe,
		ID:       prog.Intern(pe),
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
		ID:   prog.Intern(pe),
		From: lang.NewIntLit(0, loop.Pos()),
		To:   lang.NewIntLit(int64(width-1), loop.Pos()),
		Body: &lang.Block{Stmts: []lang.Stmt{nb.advance(ind, field)}},
	}
	loop.Body = &lang.Block{Stmts: []lang.Stmt{parallel, advance}}
	return helper, nil
}

// namer builds the rewrite's nodes, interning each name it introduces
// into the program being rewritten; checkGenerated resolves them.
type namer struct{ prog *lang.Program }

func (nb namer) ident(name string) *lang.Ident {
	return &lang.Ident{Name: name, ID: nb.prog.Intern(name)}
}

// advance builds "p = p->f;".
func (nb namer) advance(ind, field string) *lang.AssignStmt {
	return &lang.AssignStmt{
		LHS: nb.ident(ind),
		RHS: &lang.FieldExpr{X: nb.ident(ind), Field: field, FieldID: nb.prog.Intern(field)},
	}
}

// buildHelper constructs:
//
//	procedure <name>(int <pe>, T *p, <frees>) {
//	  for <k> = 1 to <pe> { p = p->f; }   // FOR2: speculative skip-ahead
//	  if p != NULL { <body without advance> }
//	}
func (nb namer) buildHelper(name, pe, k string, rep *depend.Report, loop *lang.WhileStmt) (*lang.FuncDecl, error) {
	ind, field := rep.Induction, rep.AdvanceField
	params := []lang.Param{{Name: pe, ID: nb.prog.Intern(pe), Type: lang.Int}, {Name: ind, ID: nb.prog.Intern(ind), Type: rep.IndType}}
	params = append(params, rep.Free...)

	skip := &lang.ForStmt{
		Var:  k,
		ID:   nb.prog.Intern(k),
		From: lang.NewIntLit(1, loop.Pos()),
		To:   nb.ident(pe),
		Body: &lang.Block{Stmts: []lang.Stmt{nb.advance(ind, field)}},
	}

	// Move the body, less its trailing advance: the rewrite gives the
	// loop a new one, and the program is a copy no one else reads.
	body := loop.Body
	if len(body.Stmts) == 0 {
		return nil, fmt.Errorf("transform: empty loop body")
	}
	body.Stmts = body.Stmts[:len(body.Stmts)-1]

	guard := &lang.IfStmt{
		Cond: &lang.BinExpr{
			Op: lang.NEQ,
			X:  nb.ident(ind),
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

// freeName returns base, or base with the smallest numeric suffix that
// makes it not taken.
func freeName(base string, taken func(string) bool) string {
	name := base
	for n := 1; taken(name); n++ {
		name = fmt.Sprintf("%s%d", base, n)
	}
	return name
}
