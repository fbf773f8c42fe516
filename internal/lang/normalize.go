package lang

import (
	"fmt"
	"slices"
)

// Normalize rewrites the (checked) program into canonical pointer form:
//
//  1. every field access is a single step from a named variable
//     (FieldExpr.X is an *Ident) — chains like p->next->next introduce
//     temporaries;
//  2. every store into a pointer field has a named variable or NULL on
//     the right-hand side (p->f = q, p->f = NULL) — allocations, calls,
//     and loads on the right of a store are hoisted into temporaries.
//
// These are exactly the statement forms the paper's pointer rules cover
// (§3.3). Temporaries are named _t1, _t2, ... avoiding the names the
// function declares (after Check, every name it mentions); each gets
// the function's next slot. Everything it introduces is typed and
// resolved as it is built, so the program needs no second check.
func Normalize(p *Program) error {
	for _, f := range p.Funcs {
		n := &normalizer{prog: p, fn: f}
		if err := n.block(f.Body); err != nil {
			return err
		}
	}
	return nil
}

type normalizer struct {
	prog *Program
	fn   *FuncDecl
	n    int
}

// hoist creates "var <type> _tN = e;" and returns the replacement ident.
func (nm *normalizer) hoist(e Expr, pre *[]Stmt) (*Ident, error) {
	t := e.Type()
	if t == nil {
		return nil, fmt.Errorf("%s: cannot hoist untyped expression (program not checked?)", e.Pos())
	}
	var name string
	for {
		nm.n++
		name = fmt.Sprintf("_t%d", nm.n)
		if id, ok := nm.prog.names.Lookup(name); !ok || !slices.Contains(nm.fn.Vars, id) {
			break
		}
	}
	vs := &VarStmt{Name: name, ID: nm.prog.Intern(name), Slot: len(nm.fn.Vars), DeclType: t, Init: e}
	vs.pos = e.Pos()
	nm.fn.Vars = append(nm.fn.Vars, vs.ID)
	*pre = append(*pre, vs)
	return vs.use(), nil
}

// use returns a reference to the variable vs declares.
func (vs *VarStmt) use() *Ident {
	id := &Ident{Name: vs.Name, ID: vs.ID, Slot: vs.Slot}
	id.pos, id.typ = vs.pos, vs.DeclType
	return id
}

// expr flattens nested field chains inside e, in place, appending the
// temporaries it hoists to pre.
func (nm *normalizer) expr(e Expr, pre *[]Stmt) error {
	switch e := e.(type) {
	case *FieldExpr:
		if err := nm.expr(e.X, pre); err != nil {
			return err
		}
		if _, ok := e.X.(*Ident); !ok {
			id, err := nm.hoist(e.X, pre)
			if err != nil {
				return err
			}
			e.X = id
		}
		return nm.expr(e.Index, pre)
	case *CallExpr:
		return nm.exprs(pre, e.Args...)
	case *BinExpr:
		return nm.exprs(pre, e.X, e.Y)
	case *UnExpr:
		return nm.expr(e.X, pre)
	}
	return nil
}

// exprs is expr over each of es, in order.
func (nm *normalizer) exprs(pre *[]Stmt, es ...Expr) error {
	for _, e := range es {
		if err := nm.expr(e, pre); err != nil {
			return err
		}
	}
	return nil
}

// block normalizes b in place. Its statement list is rebuilt only when
// some statement hoists temporaries in front of itself.
func (nm *normalizer) block(b *Block) error {
	if b == nil {
		return nil
	}
	var out []Stmt // nil while nothing has been hoisted
	for i, s := range b.Stmts {
		var pre []Stmt
		if err := nm.stmt(s, &pre); err != nil {
			return err
		}
		if len(pre) > 0 && out == nil {
			out = append(make([]Stmt, 0, len(b.Stmts)+len(pre)), b.Stmts[:i]...)
		}
		if out != nil {
			out = append(append(out, pre...), s)
		}
	}
	if out != nil {
		b.Stmts = out
	}
	return nil
}

// stmt normalizes s in place, appending the temporaries it hoists, which
// go in front of it, to out.
func (nm *normalizer) stmt(s Stmt, out *[]Stmt) error {
	switch s := s.(type) {
	case *Block:
		return nm.block(s)

	case *VarStmt:
		return nm.expr(s.Init, out)

	case *AssignStmt:
		if err := nm.exprs(out, s.LHS, s.RHS); err != nil {
			return err
		}
		// A store into a pointer field must have a variable or NULL on
		// the right.
		_, simple := s.RHS.(*Ident)
		if fe, ok := s.LHS.(*FieldExpr); ok {
			if _, isPtr := IsPointer(fe.Type()); isPtr && !simple && !isNull(s.RHS) {
				id, err := nm.hoist(s.RHS, out)
				if err != nil {
					return err
				}
				s.RHS = id
			}
		}

	case *WhileStmt:
		// Hoisting from a while condition must re-evaluate the hoisted
		// loads on every iteration: declare temps before the loop,
		// assign before the loop and again at the end of the body.
		var condPre []Stmt
		if err := nm.expr(s.Cond, &condPre); err != nil {
			return err
		}
		if err := nm.block(s.Body); err != nil {
			return err
		}
		if len(condPre) == 0 {
			break
		}
		// The re-evaluation must read the variables the condition read: a
		// body that redeclares one of them moves into a block of its own.
		var reads []ID
		for _, ps := range condPre {
			WalkExprs(ps, func(e Expr) {
				if id, ok := e.(*Ident); ok {
					reads = append(reads, id.ID)
				}
			})
		}
		if slices.ContainsFunc(s.Body.Stmts, func(b Stmt) bool { vs, ok := b.(*VarStmt); return ok && slices.Contains(reads, vs.ID) }) {
			inner := s.Body
			s.Body = &Block{Stmts: []Stmt{inner}}
			s.Body.pos = inner.pos
		}
		for _, ps := range condPre {
			vs := ps.(*VarStmt) // hoist's
			*out = append(*out, vs)
			// Re-evaluate at the end of each iteration.
			assign := &AssignStmt{LHS: vs.use(), RHS: CloneExpr(vs.Init)}
			assign.pos = vs.pos
			s.Body.Stmts = append(s.Body.Stmts, assign)
		}

	case *IfStmt:
		if err := nm.expr(s.Cond, out); err != nil {
			return err
		}
		if err := nm.block(s.Then); err != nil {
			return err
		}
		return nm.block(s.Else)

	case *ReturnStmt:
		return nm.expr(s.Value, out)

	case *CallStmt:
		return nm.expr(s.Call, out)

	case *ForStmt:
		if err := nm.exprs(out, s.From, s.To); err != nil {
			return err
		}
		return nm.block(s.Body)

	default:
		return fmt.Errorf("%s: unknown statement %T", s.Pos(), s)
	}
	return nil
}
