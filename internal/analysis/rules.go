package analysis

import (
	"fmt"

	"repro/internal/adds"
	"repro/internal/lang"
	"repro/internal/pathmatrix"
)

// stmt is the statement transfer function. It returns the state after
// the statement, or nil if control cannot fall through (return).
func (c *funcCtx) stmt(s lang.Stmt, st *State) (*State, error) {
	switch s := s.(type) {
	case *lang.Block:
		return c.block(s, st)

	case *lang.VarStmt:
		if _, isPtr := lang.IsPointer(s.DeclType); !isPtr {
			// A scalar (re)declaration stales any array-index knowledge
			// recorded under this name.
			st.invalidateIndexVar(s.Name)
			return c.scalarEffects(st, s.Init)
		}
		st.PM.AddHandle(s.Name)
		if s.Init == nil {
			// Uninitialized pointer: treated as NULL (no relationships).
			return st, nil
		}
		return c.assignPointer(st, s.Name, s.Init, s.Pos())

	case *lang.AssignStmt:
		switch lhs := s.LHS.(type) {
		case *lang.Ident:
			if _, isPtr := lang.IsPointer(lhs.Type()); !isPtr {
				st.invalidateIndexVar(lhs.Name)
				return c.scalarEffects(st, s.RHS)
			}
			return c.assignPointer(st, lhs.Name, s.RHS, s.Pos())
		case *lang.FieldExpr:
			if _, isPtr := lang.IsPointer(lhs.Type()); isPtr {
				return c.store(st, lhs, s.RHS, s.Pos())
			}
			// Data-field write: heap shape unchanged.
			return c.scalarEffects(st, s.RHS)
		}
		return nil, fmt.Errorf("%s: unexpected assignment target %T", s.Pos(), s.LHS)

	case *lang.CallStmt:
		return c.call(st, s.Call)

	case *lang.ReturnStmt:
		if s.Value != nil {
			var err error
			st, err = c.scalarEffects(st, s.Value)
			if err != nil {
				return nil, err
			}
		}
		if c.exit == nil {
			c.exit = st.Clone()
		} else {
			c.exit = joinStates(c.exit, st)
		}
		return nil, nil

	case *lang.IfStmt:
		st, err := c.scalarEffects(st, s.Cond)
		if err != nil {
			return nil, err
		}
		thenIn := st.Clone()
		refineCond(thenIn, s.Cond, true)
		thenOut, err := c.block(s.Then, thenIn)
		if err != nil {
			return nil, err
		}
		elseIn := st.Clone()
		refineCond(elseIn, s.Cond, false)
		elseOut := elseIn
		if s.Else != nil {
			elseOut, err = c.block(s.Else, elseIn)
			if err != nil {
				return nil, err
			}
		}
		switch {
		case thenOut == nil:
			return elseOut, nil
		case elseOut == nil:
			return thenOut, nil
		default:
			return joinStates(thenOut, elseOut), nil
		}

	case *lang.WhileStmt:
		return c.whileLoop(s, st)

	case *lang.ForStmt:
		return c.forLoop(s, st)
	}
	return nil, fmt.Errorf("%s: unknown statement %T", s.Pos(), s)
}

// scalarEffects accounts for calls embedded in a scalar expression (its
// pointer loads do not move handles, but calls may mutate the heap).
func (c *funcCtx) scalarEffects(st *State, e lang.Expr) (*State, error) {
	var err error
	lang.WalkExprs(wrapExprStmt(e), func(x lang.Expr) {
		if err != nil {
			return
		}
		if call, ok := x.(*lang.CallExpr); ok {
			st, err = c.call(st, call)
		}
	})
	return st, err
}

// wrapExprStmt lets WalkExprs traverse a bare expression.
func wrapExprStmt(e lang.Expr) lang.Stmt {
	rs := &lang.ReturnStmt{Value: e}
	return rs
}

// ---------------------------------------------------------------------------
// Pointer assignment rules

// assignPointer dispatches on the canonical RHS forms of a pointer
// assignment to variable p.
func (c *funcCtx) assignPointer(st *State, p string, rhs lang.Expr, pos lang.Pos) (*State, error) {
	st.PM.AddHandle(p)
	if id, ok := rhs.(*lang.Ident); !ok || id.Name != p {
		// p is about to take a new value: violation edge references
		// through p must transfer or drop.
		st.Retarget(p, st.PM)
	}
	switch rhs := rhs.(type) {
	case *lang.NullLit:
		// p = NULL: p aliases nothing.
		st.PM.Kill(p)
		st.dropProv(p)
		return st, nil

	case *lang.Ident:
		// p = q: p's relationships become exactly q's.
		if rhs.Name == p {
			return st, nil
		}
		st.PM.Kill(p)
		st.PM.CopyRelationships(p, rhs.Name)
		if pv, ok := st.Prov[rhs.Name]; ok {
			st.setProv(p, pv)
		} else {
			st.dropProv(p)
		}
		return st, nil

	case *lang.NewExpr:
		// p = new T: fresh node, disjoint from everything.
		st.PM.Kill(p)
		st.dropProv(p)
		return st, nil

	case *lang.FieldExpr:
		return c.load(st, p, rhs, pos)

	case *lang.CallExpr:
		st, err := c.call(st, rhs)
		if err != nil {
			return nil, err
		}
		return c.bindCallResult(st, p, rhs), nil
	}
	return nil, fmt.Errorf("%s: non-canonical pointer assignment RHS %T (normalizer bug?)", pos, rhs)
}

// load implements p = q->f (§3.3's load rule, sharpened by ADDS).
func (c *funcCtx) load(st *State, p string, fe *lang.FieldExpr, pos lang.Pos) (*State, error) {
	base := fe.Base()
	if base == nil {
		return nil, fmt.Errorf("%s: chained load not normalized", pos)
	}
	q := base.Name
	elem, _ := lang.IsPointer(base.Type())
	decl := c.an.prog.Universe.Decl(elem)
	pf := decl.Pointer(fe.Field)
	if pf == nil {
		return nil, fmt.Errorf("%s: %s has no pointer field %s", pos, elem, fe.Field)
	}

	old := st.PM.Clone()
	st.PM.Kill(p)

	// If some handle y is the definite target of q->f (an exact edge
	// from a definite alias of q, via a non-array field), the load binds
	// p to y's relationships.
	if pf.Count == 1 {
		for _, x := range old.Handles() {
			if x != q && old.Get(q, x).Alias != pathmatrix.DefiniteAlias {
				continue
			}
			for _, y := range old.Handles() {
				if y == p {
					continue // old p's value is being replaced
				}
				if _, ok := old.Get(x, y).HasExact(fe.Field); ok {
					st.PM.Kill(p)
					st.PM.CopyRelationships(p, y)
					return st, nil
				}
			}
		}
	}

	// General case. Base entry: q -> p is one f-link.
	acyclic := pf.Dir != adds.Unknown
	baseEntry := pathmatrix.Entry{}
	if acyclic {
		baseEntry.Alias = pathmatrix.NoAlias
	} else {
		baseEntry.Alias = pathmatrix.PossibleAlias
	}
	baseEntry.AddDesc(pathmatrix.ExactIndexedDesc(fe.Field, indexKey(fe.Index), c.an.newEdgeID()))

	// Default alias verdict for handles unrelated to q: along a valid
	// uniquely-forward dimension, unrelated handles point into disjoint
	// substructures, so the loaded child stays disjoint (the tree
	// disjointness invariant). Otherwise we must assume PossibleAlias.
	defaultNo := pf.Dir == adds.Forward &&
		decl.UniqueAlong(pf.Dim) &&
		st.Valid(elem, pf.Dim)

	// Record p's provenance: it was just reached by a forward step
	// along pf.Dim from q (used for the independence and
	// distinct-parent disproofs below). When q is p itself, the parent
	// node is no longer nameable.
	if pf.Dir == adds.Forward {
		src := q
		if q == p {
			src = ""
		}
		st.setProv(p, Provenance{Dim: pf.Dim, Src: src})
	} else {
		st.dropProv(p)
	}

	for _, x := range old.Handles() {
		if x == p {
			continue
		}
		exq := old.Get(x, q) // x -> q
		eqx := old.Get(q, x) // q -> x

		var toP pathmatrix.Entry // x -> p
		switch {
		case exq.Alias == pathmatrix.DefiniteAlias || x == q:
			toP = baseEntry
		default:
			// Path extension: a definite monotone path from x to q
			// extends by f into a definite monotone path from x to p
			// (forward and backward both compose acyclically).
			if pf.Dir != adds.Unknown {
				for _, d := range exq.Descs {
					if c.allMonotoneAlong(d.Fields, pf.Dim, pf.Dir) {
						fields := append(append([]string(nil), d.Fields...), fe.Field)
						toP.AddDesc(pathmatrix.PlusDesc(fields...))
					}
				}
			}
			// Independence disproof (§3.1.3): if x was reached by a
			// forward traversal along a dimension declared independent
			// of pf.Dim, x cannot be the node p (which is reached
			// forward along pf.Dim).
			// Two provenance-based disproofs (x's value was itself
			// produced by a forward load):
			//  - independence: x came forward along a dimension
			//    declared independent of pf.Dim (§3.1.3);
			//  - distinct parents: x came along pf.Dim itself, from a
			//    parent provably different from q — uniqueness of the
			//    dimension's in-edges separates the children.
			provNo := false
			if pf.Dir == adds.Forward {
				if pv, ok := st.Prov[x]; ok && x != p {
					if decl.Independent(pv.Dim, pf.Dim) {
						provNo = true
					}
					if pv.Dim == pf.Dim && pv.Src != "" && pv.Src != q &&
						decl.UniqueAlong(pf.Dim) && st.Valid(elem, pf.Dim) &&
						old.Get(pv.Src, q).Alias == pathmatrix.NoAlias &&
						old.Get(q, pv.Src).Alias == pathmatrix.NoAlias {
						provNo = true
					}
				}
			}
			switch {
			case provNo:
				toP.Alias = pathmatrix.NoAlias
			case toP.HasPath() && acyclic:
				toP.Alias = pathmatrix.NoAlias
			case exq.Alias == pathmatrix.PossibleAlias:
				toP.Alias = pathmatrix.PossibleAlias
			case defaultNo && !c.crossChildPossible(decl, eqx, pf, fe.Field):
				toP.Alias = pathmatrix.NoAlias
			default:
				toP.Alias = pathmatrix.PossibleAlias
			}
		}
		st.PM.Set(x, p, toP)

		// Mirror the alias component (aliasing is symmetric); paths
		// from p to x are unknown.
		fromP := pathmatrix.Entry{Alias: toP.Alias}
		st.PM.Set(p, x, fromP)
	}
	st.PM.Set(p, p, pathmatrix.Entry{Alias: pathmatrix.DefiniteAlias})
	return st, nil
}

// allForwardAlong reports whether every named field is declared forward
// along dim (and unambiguously so).
func (c *funcCtx) allForwardAlong(fields []string, dim string) bool {
	for _, f := range fields {
		fi := c.an.fields[f]
		if fi == nil || fi.Ambiguous || fi.Dir != adds.Forward || fi.Dim != dim {
			return false
		}
	}
	return true
}

// allMonotoneAlong reports whether every named field is declared with
// the given direction along dim.
func (c *funcCtx) allMonotoneAlong(fields []string, dim string, dir adds.Direction) bool {
	for _, f := range fields {
		fi := c.an.fields[f]
		if fi == nil || fi.Ambiguous || fi.Dir != dir || fi.Dim != dim {
			return false
		}
	}
	return true
}

// crossChildPossible reports whether an exact edge q->g == x makes x a
// possible alias of the freshly loaded q->f. It is possible when g is
// the same pointer-array field at an unknown index, or when g runs
// forward (or in an unknown direction) along a *different but
// dependent* dimension — the declaration does not forbid one node
// being, say, both a down-child and the leaves-successor of q when the
// dimensions are dependent. Uniqueness covers same-dimension siblings
// (left vs right), and declared independence covers independent
// dimensions.
func (c *funcCtx) crossChildPossible(decl *adds.Decl, eqx pathmatrix.Entry, pf *adds.PointerField, field string) bool {
	for _, d := range eqx.Descs {
		if !d.Exact {
			continue
		}
		g := d.Fields[0]
		if g == field {
			if pf.Count > 1 {
				return true // same array field, possibly the same index
			}
			continue // definite-target binding handled earlier
		}
		gi := c.an.fields[g]
		if gi == nil || gi.Ambiguous || gi.Dir == adds.Unknown {
			return true
		}
		if gi.Dir == adds.Backward {
			continue // a backward child sits on the other side of q
		}
		if gi.Dim == pf.Dim {
			continue // same-dimension sibling: uniqueness separates them
		}
		if !decl.Independent(gi.Dim, pf.Dim) {
			return true // dependent cross-dimension child may coincide
		}
	}
	return false
}

// indexKey renders an index expression for edge-identity comparison:
// plain variables and integer literals are comparable, anything else is
// the incomparable sentinel "?".
func indexKey(e lang.Expr) string {
	switch e := e.(type) {
	case nil:
		return ""
	case *lang.Ident:
		return e.Name
	case *lang.IntLit:
		return fmt.Sprintf("#%d", e.Val)
	default:
		return "?"
	}
}

// store implements p->f = q and p->f = NULL (§3.3.1): overwrite the
// field, invalidate definite paths that may run through it, record the
// new edge, and validate the ADDS abstraction.
func (c *funcCtx) store(st *State, lhs *lang.FieldExpr, rhs lang.Expr, pos lang.Pos) (*State, error) {
	base := lhs.Base()
	if base == nil {
		return nil, fmt.Errorf("%s: chained store not normalized", pos)
	}
	p := base.Name
	elem, _ := lang.IsPointer(base.Type())
	decl := c.an.prog.Universe.Decl(elem)
	pf := decl.Pointer(lhs.Field)
	if pf == nil {
		return nil, fmt.Errorf("%s: %s has no pointer field %s", pos, elem, lhs.Field)
	}

	old := st.PM.Clone()

	// A store along this dimension may destroy the in-edges that
	// provenance facts rely on.
	st.ClearProvAlongDim(pf.Dim)

	// 1. Invalidate definite-path knowledge the store may falsify.
	// Exact f-edges out of handles that may alias p could be the very
	// edge being overwritten, so they go. Edges out of provably
	// different nodes survive, but longer (plus/star) paths using f go
	// everywhere: they might run through p's node mid-path.
	st.PM.UpdateAll(func(a, _ string, e *pathmatrix.Entry) {
		if a == p || old.Get(a, p).Alias != pathmatrix.NoAlias {
			e.RemovePathsUsing(lhs.Field)
		} else {
			e.RemoveNonExactUsing(lhs.Field)
		}
	})
	// The f-edge of p's node (at this index, for arrays) is definitely
	// destroyed.
	idxKey := indexKey(lhs.Index)
	st.fixViolationsForStore(p, lhs.Field, idxKey, old)

	// 2. p->f = NULL only removes.
	if _, isNull := rhs.(*lang.NullLit); isNull {
		return st, nil
	}
	qid, ok := rhs.(*lang.Ident)
	if !ok {
		return nil, fmt.Errorf("%s: non-canonical store RHS %T (normalizer bug?)", pos, rhs)
	}
	q := qid.Name

	// 3. Validation, using relationships as they were before the store.
	if pf.Dir == adds.Forward {
		eqp := old.Get(q, p)
		cycle := eqp.Alias == pathmatrix.DefiniteAlias
		if !cycle {
			for _, d := range eqp.Descs {
				if c.allForwardAlong(d.Fields, pf.Dim) {
					cycle = true
					break
				}
			}
		}
		if q == p {
			cycle = true // self-loop
		}
		newID := c.an.newEdgeID()

		if cycle {
			key := ViolationKey{Type: elem, Dim: pf.Dim, Kind: Cycle}
			st.ownViolations()
			st.Violations[key] = &Violation{
				Key:  key,
				Refs: []EdgeRef{{Handle: p, Field: lhs.Field, Index: idxKey}},
				Pos:  pos,
			}
		}

		// Sharing: q (or a definite alias of q) already has an in-edge
		// along this unique dimension.
		if decl.UniqueAlong(pf.Dim) {
			var refs []EdgeRef
			for _, a := range old.Handles() {
				for _, b := range old.Handles() {
					if b != q && old.Get(b, q).Alias != pathmatrix.DefiniteAlias {
						continue
					}
					e := old.Get(a, b)
					for _, d := range e.Descs {
						if !d.Exact {
							continue
						}
						fi := c.an.fields[d.Fields[0]]
						if fi == nil || fi.Dim != pf.Dim || fi.Dir != adds.Forward {
							continue
						}
						// Skip the very edge being overwritten by this
						// store (p->f at the same index, through any
						// definite alias of p).
						if d.Fields[0] == lhs.Field && d.Index == idxKey && idxKey != "?" &&
							(a == p || old.Get(a, p).Alias == pathmatrix.DefiniteAlias) {
							continue
						}
						refs = append(refs, EdgeRef{Handle: a, Field: d.Fields[0], Index: d.Index})
					}
				}
			}
			if len(refs) > 0 {
				key := ViolationKey{Type: elem, Dim: pf.Dim, Kind: Sharing}
				st.ownViolations()
				st.Violations[key] = &Violation{
					Key:  key,
					Refs: append(refs, EdgeRef{Handle: p, Field: lhs.Field, Index: idxKey}),
					Pos:  pos,
				}
			}
		}

		// 4. Record the new edge p->f == q.
		st.PM.Update(p, q, func(e *pathmatrix.Entry) {
			e.AddDesc(pathmatrix.ExactIndexedDesc(lhs.Field, idxKey, newID))
		})
		return st, nil
	}

	// Unknown/backward direction: just record the edge.
	st.PM.Update(p, q, func(e *pathmatrix.Entry) {
		e.AddDesc(pathmatrix.ExactIndexedDesc(lhs.Field, idxKey, c.an.newEdgeID()))
	})
	return st, nil
}

// ---------------------------------------------------------------------------
// Calls

// call applies a callee's effect summary: pointer-field stores in the
// callee invalidate definite paths over those fields; violations active
// at the callee's exit propagate. Caller handles themselves cannot be
// moved by the callee (parameters are by value), so alias components
// survive.
func (c *funcCtx) call(st *State, call *lang.CallExpr) (*State, error) {
	// Argument expressions may themselves contain calls (normalizer
	// keeps single loads, but calls can nest in scalar args).
	for _, arg := range call.Args {
		if nested, ok := arg.(*lang.CallExpr); ok {
			var err error
			st, err = c.call(st, nested)
			if err != nil {
				return nil, err
			}
		}
	}
	if lang.Builtins[call.Func] != nil {
		return st, nil // builtins do not touch the heap
	}
	eff := c.an.effects[call.Func]
	if eff == nil {
		return nil, fmt.Errorf("%s: call to unknown function %q", call.Pos(), call.Func)
	}
	for f := range eff.storesFields {
		if fi := c.an.fields[f]; fi != nil {
			st.ClearProvAlongDim(fi.Dim)
		}
		st.PM.UpdateAll(func(_, _ string, e *pathmatrix.Entry) {
			e.RemovePathsUsing(f)
		})
	}
	// Propagate the callee's exit violations (from the most recent
	// analysis round; AnalyzeAll iterates until this stabilizes).
	for k, v := range c.an.exitViols[call.Func] {
		if _, ok := st.Violations[k]; !ok {
			nv := *v
			nv.Refs = nil // the witnessing edges are callee-local
			st.ownViolations()
			st.Violations[k] = &nv
		}
	}
	return st, nil
}

// bindCallResult establishes relationships for p = f(...): the result
// may alias anything of its own record type that the callee could reach.
func (c *funcCtx) bindCallResult(st *State, p string, call *lang.CallExpr) *State {
	st.PM.AddHandle(p)
	st.PM.Kill(p)
	elem := ""
	if call.Type() != nil {
		elem, _ = lang.IsPointer(call.Type())
	}
	if elem == "" {
		return st
	}
	for _, h := range st.PM.Handles() {
		if h == p {
			continue
		}
		// Only same-type handles can alias (PSL has no casts). We do
		// not track handle types in the matrix, so consult the
		// function's scope conservatively: treat every handle as
		// compatible. Precision loss is acceptable here; the paper
		// likewise treats returned pointers as possible aliases of the
		// structure they came from (root in BHL1).
		st.PM.Update(h, p, func(e *pathmatrix.Entry) { e.Alias = pathmatrix.PossibleAlias })
		st.PM.Update(p, h, func(e *pathmatrix.Entry) { e.Alias = pathmatrix.PossibleAlias })
	}
	return st
}

// ---------------------------------------------------------------------------
// Condition refinement

// refineCond sharpens the state under the assumption that cond evaluated
// to val: NULL comparisons kill handles, pointer equality merges or
// separates them.
func refineCond(st *State, cond lang.Expr, val bool) {
	be, ok := cond.(*lang.BinExpr)
	if !ok {
		return
	}
	switch be.Op {
	case lang.AND:
		if val {
			refineCond(st, be.X, true)
			refineCond(st, be.Y, true)
		}
		return
	case lang.OR:
		if !val {
			refineCond(st, be.X, false)
			refineCond(st, be.Y, false)
		}
		return
	case lang.EQ, lang.NEQ:
	default:
		return
	}
	// Normalize to "equal-holds" polarity.
	equalHolds := (be.Op == lang.EQ) == val

	xi, xIsIdent := be.X.(*lang.Ident)
	yi, yIsIdent := be.Y.(*lang.Ident)
	_, xIsNull := be.X.(*lang.NullLit)
	_, yIsNull := be.Y.(*lang.NullLit)

	switch {
	case xIsIdent && yIsNull:
		refineNull(st, xi, equalHolds)
	case yIsIdent && xIsNull:
		refineNull(st, yi, equalHolds)
	case xIsIdent && yIsIdent:
		if _, isPtr := lang.IsPointer(xi.Type()); !isPtr {
			return
		}
		if equalHolds {
			// x == y: definite alias.
			st.PM.Update(xi.Name, yi.Name, func(e *pathmatrix.Entry) { e.Alias = pathmatrix.DefiniteAlias })
			st.PM.Update(yi.Name, xi.Name, func(e *pathmatrix.Entry) { e.Alias = pathmatrix.DefiniteAlias })
		} else {
			// x != y: not aliases; possible weakens to no.
			st.PM.Update(xi.Name, yi.Name, func(e *pathmatrix.Entry) {
				if e.Alias == pathmatrix.PossibleAlias {
					e.Alias = pathmatrix.NoAlias
				}
			})
			st.PM.Update(yi.Name, xi.Name, func(e *pathmatrix.Entry) {
				if e.Alias == pathmatrix.PossibleAlias {
					e.Alias = pathmatrix.NoAlias
				}
			})
		}
	}
}

// refineNull applies x == NULL (isNull true) or x != NULL (false).
func refineNull(st *State, x *lang.Ident, isNull bool) {
	if _, isPtr := lang.IsPointer(x.Type()); !isPtr {
		return
	}
	if isNull && st.PM.HasHandle(x.Name) {
		// x is NULL here: it aliases nothing.
		st.Retarget(x.Name, st.PM)
		st.PM.Kill(x.Name)
	}
}

// ---------------------------------------------------------------------------
// Loops

// PrimeSuffix is appended to a variable name to form its primed handle
// (the variable's value in the previous loop iteration).
const PrimeSuffix = "'"

// assignedPointerVars collects pointer variables assigned anywhere in
// the block (the handles that need primes).
func assignedPointerVars(b *lang.Block) []string {
	seen := map[string]bool{}
	var out []string
	lang.Walk(b, func(s lang.Stmt) bool {
		as, ok := s.(*lang.AssignStmt)
		if !ok {
			return true
		}
		id, ok := as.LHS.(*lang.Ident)
		if !ok {
			return true
		}
		if _, isPtr := lang.IsPointer(id.Type()); !isPtr {
			return true
		}
		if !seen[id.Name] {
			seen[id.Name] = true
			out = append(out, id.Name)
		}
		return true
	})
	return out
}

// whileLoop analyzes "while cond { body }" to a fixed point, tracking
// primed handles for the paper's previous-iteration entries.
func (c *funcCtx) whileLoop(w *lang.WhileStmt, st *State) (*State, error) {
	st, err := c.scalarEffects(st, w.Cond)
	if err != nil {
		return nil, err
	}
	vars := assignedPointerVars(w.Body)
	head := st.Clone()
	for _, v := range vars {
		if !head.PM.HasHandle(v) {
			continue
		}
		prime := v + PrimeSuffix
		head.PM.AddHandle(prime)
		// Before the first iteration the primed handle denotes the same
		// value as the variable itself.
		head.PM.Kill(prime)
		head.PM.CopyRelationships(prime, v)
	}

	for iter := 0; ; iter++ {
		if iter > c.an.MaxLoopIterations {
			return nil, fmt.Errorf("%s: loop analysis did not converge after %d iterations", w.Pos(), iter)
		}
		bodyIn := head.Clone()
		refineCond(bodyIn, w.Cond, true)
		bodyOut, err := c.block(w.Body, bodyIn)
		if err != nil {
			return nil, err
		}
		if bodyOut == nil {
			// Body always returns; the loop runs at most once.
			break
		}
		// Record the body-exit state (joined across iterations) before
		// the primes are rebound: this is where p' vs p is meaningful.
		if prev, ok := c.fr.LoopBodyExit[w]; ok {
			c.fr.LoopBodyExit[w] = joinStates(prev, bodyOut).snapshot()
		} else {
			c.fr.LoopBodyExit[w] = bodyOut.Clone()
		}
		// Back edge: the previous-iteration handles take the variables'
		// current values.
		for _, v := range vars {
			prime := v + PrimeSuffix
			if !bodyOut.PM.HasHandle(prime) || !bodyOut.PM.HasHandle(v) {
				continue
			}
			bodyOut.PM.Kill(prime)
			bodyOut.PM.CopyRelationships(prime, v)
		}
		next := joinStates(head, bodyOut)
		if equalStates(next, head) {
			break
		}
		head = next
	}
	c.fr.LoopInvariant[w] = head // cloned into bodyIn above, never written since

	exit := head.Clone()
	refineCond(exit, w.Cond, false)
	for _, v := range vars {
		exit.PM.RemoveHandle(v + PrimeSuffix)
	}
	return exit, nil
}

// forLoop analyzes counted for/forall loops to a fixed point. The loop
// variable is scalar, so only the body's pointer statements matter. The
// loop may execute zero times, so the entry state joins in.
func (c *funcCtx) forLoop(f *lang.ForStmt, st *State) (*State, error) {
	st, err := c.scalarEffects(st, f.From)
	if err != nil {
		return nil, err
	}
	st, err = c.scalarEffects(st, f.To)
	if err != nil {
		return nil, err
	}
	head := st.Clone()
	for iter := 0; ; iter++ {
		if iter > c.an.MaxLoopIterations {
			return nil, fmt.Errorf("%s: loop analysis did not converge after %d iterations", f.Pos(), iter)
		}
		bodyOut, err := c.block(f.Body, head.Clone())
		if err != nil {
			return nil, err
		}
		if bodyOut == nil {
			break
		}
		next := joinStates(head, bodyOut)
		if equalStates(next, head) {
			break
		}
		head = next
	}
	c.fr.LoopInvariant[f] = head.Clone()
	return head, nil
}
