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
// (§3.3). Temporaries are named _t1, _t2, ... avoiding collisions with
// existing names. Everything it introduces is typed as it is built, so
// the program needs no second check.
func Normalize(p *Program) error {
	for _, f := range p.Funcs {
		n := &normalizer{prog: p, used: collectNames(p, f)}
		if err := n.block(f.Body); err != nil {
			return err
		}
	}
	return nil
}

func collectNames(p *Program, f *FuncDecl) map[string]bool {
	used := make(map[string]bool)
	for _, prm := range f.Params {
		used[prm.Name] = true
	}
	Walk(f.Body, func(s Stmt) bool {
		switch s := s.(type) {
		case *VarStmt:
			used[s.Name] = true
		case *ForStmt:
			used[s.Var] = true
		}
		WalkExprs(s, func(e Expr) {
			if id, ok := e.(*Ident); ok {
				used[id.Name] = true
			}
		})
		return true
	})
	return used
}

type normalizer struct {
	prog *Program
	used map[string]bool
	n    int
}

func (nm *normalizer) fresh() string {
	for {
		nm.n++
		name := fmt.Sprintf("_t%d", nm.n)
		if !nm.used[name] {
			nm.used[name] = true
			return name
		}
	}
}

// hoist creates "var <type> name = e;" and returns the replacement ident.
func (nm *normalizer) hoist(e Expr, pre *[]Stmt) (*Ident, error) {
	t := e.Type()
	if t == nil {
		return nil, fmt.Errorf("%s: cannot hoist untyped expression (program not checked?)", e.Pos())
	}
	name := nm.fresh()
	vs := &VarStmt{Name: name, DeclType: t, Init: e}
	vs.pos = e.Pos()
	*pre = append(*pre, vs)
	return NewIdent(name, t, e.Pos()), nil
}

// expr flattens nested field chains inside e, appending hoisted
// temporaries to pre, and returns the rewritten expression.
func (nm *normalizer) expr(e Expr, pre *[]Stmt) (Expr, error) {
	switch e := e.(type) {
	case nil:
		return nil, nil
	case *FieldExpr:
		x, err := nm.expr(e.X, pre)
		if err != nil {
			return nil, err
		}
		if _, ok := x.(*Ident); !ok {
			id, err := nm.hoist(x, pre)
			if err != nil {
				return nil, err
			}
			x = id
		}
		e.X = x
		if e.Index != nil {
			idx, err := nm.expr(e.Index, pre)
			if err != nil {
				return nil, err
			}
			e.Index = idx
		}
		return e, nil
	case *CallExpr:
		for i, a := range e.Args {
			na, err := nm.expr(a, pre)
			if err != nil {
				return nil, err
			}
			e.Args[i] = na
		}
		return e, nil
	case *BinExpr:
		x, err := nm.expr(e.X, pre)
		if err != nil {
			return nil, err
		}
		y, err := nm.expr(e.Y, pre)
		if err != nil {
			return nil, err
		}
		e.X, e.Y = x, y
		return e, nil
	case *UnExpr:
		x, err := nm.expr(e.X, pre)
		if err != nil {
			return nil, err
		}
		e.X = x
		return e, nil
	default:
		return e, nil
	}
}

// isSimpleRHS reports whether e may appear on the right of a pointer
// store without hoisting.
func isSimpleRHS(e Expr) bool {
	switch e.(type) {
	case *Ident, *NullLit:
		return true
	}
	return false
}

// block normalizes b in place.
func (nm *normalizer) block(b *Block) error {
	if b == nil {
		return nil
	}
	in := b.Stmts
	b.Stmts = make([]Stmt, 0, len(in))
	for _, s := range in {
		if err := nm.stmt(s, &b.Stmts); err != nil {
			return err
		}
	}
	return nil
}

// stmt appends s, normalized, to out, after the temporaries it hoists.
func (nm *normalizer) stmt(s Stmt, out *[]Stmt) error {
	switch s := s.(type) {
	case *Block:
		if err := nm.block(s); err != nil {
			return err
		}

	case *VarStmt:
		if s.Init != nil {
			init, err := nm.expr(s.Init, out)
			if err != nil {
				return err
			}
			s.Init = init
		}

	case *AssignStmt:
		lhs, err := nm.expr(s.LHS, out)
		if err != nil {
			return err
		}
		rhs, err := nm.expr(s.RHS, out)
		if err != nil {
			return err
		}
		// A store into a pointer field must have a simple RHS.
		if fe, ok := lhs.(*FieldExpr); ok {
			if _, isPtr := IsPointer(fe.Type()); isPtr && !isSimpleRHS(rhs) {
				id, err := nm.hoist(rhs, out)
				if err != nil {
					return err
				}
				rhs = id
			}
		}
		s.LHS, s.RHS = lhs, rhs

	case *WhileStmt:
		// Hoisting from a while condition must re-evaluate the hoisted
		// loads on every iteration: declare temps before the loop,
		// assign before the loop and again at the end of the body.
		var condPre []Stmt
		cond, err := nm.expr(s.Cond, &condPre)
		if err != nil {
			return err
		}
		s.Cond = cond
		if err := nm.block(s.Body); err != nil {
			return err
		}
		if len(condPre) == 0 {
			break
		}
		// The re-evaluation must read the variables the condition read: a
		// body that redeclares one of them moves into a block of its own.
		reads := map[string]bool{}
		for _, ps := range condPre {
			WalkExprs(ps, func(e Expr) {
				if id, ok := e.(*Ident); ok {
					reads[id.Name] = true
				}
			})
		}
		if slices.ContainsFunc(s.Body.Stmts, func(b Stmt) bool { vs, ok := b.(*VarStmt); return ok && reads[vs.Name] }) {
			inner := s.Body
			s.Body = &Block{Stmts: []Stmt{inner}}
			s.Body.pos = inner.pos
		}
		for _, ps := range condPre {
			vs := ps.(*VarStmt) // hoist's
			decl := &VarStmt{Name: vs.Name, DeclType: vs.DeclType, Init: vs.Init}
			decl.pos = vs.pos
			*out = append(*out, decl)
			// Re-evaluate at the end of each iteration.
			assign := &AssignStmt{
				LHS: NewIdent(vs.Name, vs.DeclType, vs.pos),
				RHS: CloneExpr(vs.Init),
			}
			assign.pos = vs.pos
			s.Body.Stmts = append(s.Body.Stmts, assign)
		}

	case *IfStmt:
		cond, err := nm.expr(s.Cond, out)
		if err != nil {
			return err
		}
		s.Cond = cond
		if err := nm.block(s.Then); err != nil {
			return err
		}
		if err := nm.block(s.Else); err != nil {
			return err
		}

	case *ReturnStmt:
		if s.Value != nil {
			v, err := nm.expr(s.Value, out)
			if err != nil {
				return err
			}
			s.Value = v
		}

	case *CallStmt:
		call, err := nm.expr(s.Call, out)
		if err != nil {
			return err
		}
		s.Call = call.(*CallExpr)

	case *ForStmt:
		from, err := nm.expr(s.From, out)
		if err != nil {
			return err
		}
		to, err := nm.expr(s.To, out)
		if err != nil {
			return err
		}
		s.From, s.To = from, to
		if err := nm.block(s.Body); err != nil {
			return err
		}

	default:
		return fmt.Errorf("%s: unknown statement %T", s.Pos(), s)
	}
	*out = append(*out, s)
	return nil
}
