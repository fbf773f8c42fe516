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
// All of them refuse to run unless package depend approves the loop:
// each rewrites only loops that depend.AnalyzeProgram's verdict
// approves, and none decides a verdict of its own.
package transform

import (
	"fmt"
	"slices"

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
// barrier). It is the planner's rewrite applied to one chosen loop,
// licensed by the loop's depend.AnalyzeProgram verdict — the one the
// planner reads — and it fails with that verdict's reasons unless the
// loop is approved. The input is not modified; the transformed copy
// shares every function but fnName with it.
func StripMine(prog *lang.Program, fnName string, loopIndex, width int) (*StripMineResult, error) {
	res, err := analysis.New(prog).AnalyzeAll()
	if err != nil {
		return nil, err
	}
	reports, err := depend.AnalyzeProgram(prog, res)
	if err != nil {
		return nil, err
	}
	k := slices.IndexFunc(reports, func(r *depend.Report) bool { return r.Func == fnName && r.Index == loopIndex })
	if k < 0 {
		return nil, fmt.Errorf("transform: no while loop #%d of %s", loopIndex, fnName)
	}
	rep := reports[k]
	if !rep.Parallelizable {
		return nil, fmt.Errorf("transform: loop #%d of %s is not parallelizable:\n%s", loopIndex, fnName, rep)
	}
	program, helpers, err := rewrite(prog, reports, []int{k}, width)
	if err != nil {
		return nil, err
	}
	return &StripMineResult{Program: program, Report: rep, Helper: helpers[0], Width: width}, nil
}

// rewrite strip-mines the chosen loops — indices into reports, an
// AnalyzeProgram result for prog, in scan order, none nested in another
// — on one copy of prog that clones only the functions holding them,
// and returns the copy and the helpers' names. Each rewrite moves its
// nested loops out of the function, so a later sibling is addressed at
// its input index less the loops moved so far. A rewrite reads the
// helper's parameters and their types off the loop's report — the scope
// the dependence test found by the checker's slots — so the synthesized
// nodes are typed by one check at the end: each touched function and
// each helper once.
func rewrite(prog *lang.Program, reports []*depend.Report, chosen []int, width int) (*lang.Program, []string, error) {
	fns := make([]string, len(chosen))
	for j, k := range chosen {
		fns[j] = reports[k].Func
	}
	out := prog.Clone(fns...)
	var touched []*lang.FuncDecl
	helpers := make([]string, len(chosen))
	fn, moved := "", 0
	for j, k := range chosen {
		r := reports[k]
		if r.Func != fn {
			fn, moved = r.Func, 0
			touched = append(touched, out.Func(fn))
		}
		helper, err := rewriteLoop(out, r, r.Index-moved, width)
		if err != nil {
			return nil, nil, err
		}
		touched = append(touched, helper)
		helpers[j] = helper.Name
		moved += r.Nested
	}
	if err := lang.CheckFuncs(out, touched...); err != nil {
		return nil, nil, fmt.Errorf("transform: internal: generated code does not check: %w", err)
	}
	return out, helpers, nil
}

// rewriteLoop is the §4.3.3 rewrite itself, directly on prog: it
// replaces the body of rep's loop, now loop loopIndex of rep.Func, and
// appends the iteration procedure, which it returns. The synthesized
// nodes are left untyped (rewrite types them); the types and names the rewrite
// needs it reads off rep's scope of the loop. On error the program may
// be left partially rewritten. The names it introduces — the helper,
// the PE index and the skip-ahead counter — are the documented ones
// unless the program already uses them, in which case a numeric suffix
// makes them free.
func rewriteLoop(prog *lang.Program, rep *depend.Report, loopIndex, width int) (*lang.FuncDecl, error) {
	if width < 1 {
		return nil, fmt.Errorf("transform: strip width must be >= 1, got %d", width)
	}

	loop, err := analysis.FindLoop(prog.Func(rep.Func), loopIndex)
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

	helperName := freeName(fmt.Sprintf("_%s_L%d_iteration", rep.Func, loopIndex),
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
// into the program being rewritten; rewrite's check resolves them.
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
