// Package effects computes interprocedural read/write effect summaries
// for PSL code at field granularity, anchored to pointer variables.
//
// An access such as "reads the mass field of every node reachable from
// node along the down dimension" renders as "R node.down*.mass" and is
// held as one 64-bit word: the anchor and the field as small integers
// from the Analyzer's name table, the dimension set as a bitset over
// the universe's dimensions, and three flags (moved, write, pointer
// field). The table is filled when NewAnalyzer starts and only read
// afterwards, so concurrent BlockSummary calls need no lock.
//
// Summaries are closed over the call graph (recursion converges because
// the dimension and field sets are finite). Package depend combines
// these summaries with the path matrix analysis to decide whether the
// iterations of a pointer-chasing loop are independent — the paper's
// §4.3.2 argument that BHL1 parallelizes because compute_force writes
// only the force field of its own particle while reading only
// mass/position fields of the tree.
package effects

import (
	"slices"

	"repro/internal/lang"
)

// Analyzer computes summaries over one program.
type Analyzer struct {
	prog      *lang.Program
	tab       *names
	summaries map[string]*Summary
	// callees is the caller→callee graph (each function's callees in
	// first-call order): solve orders its work by it.
	callees map[string][]string
	// walks counts how often solve has walked each function's body;
	// tests pin that a non-recursive function is walked once.
	walks map[string]int
}

// NewAnalyzer prepares function summaries for the program, closing them
// over the call graph.
func NewAnalyzer(prog *lang.Program) *Analyzer {
	a := &Analyzer{
		prog:      prog,
		tab:       newNames(prog.Universe),
		summaries: make(map[string]*Summary, len(prog.Funcs)),
		callees:   make(map[string][]string, len(prog.Funcs)),
		walks:     make(map[string]int, len(prog.Funcs)),
	}
	for _, f := range prog.Funcs {
		a.summaries[f.Name] = &Summary{tab: a.tab}
		a.callees[f.Name] = a.scan(f)
	}
	a.solve()
	return a
}

// scan enters f's pointer variables and accessed fields into the name
// table and collects the non-builtin functions f calls, in first-call
// order. A pointer variable no expression mentions has no id: nothing
// can be accessed through it.
func (a *Analyzer) scan(f *lang.FuncDecl) []string {
	var out []string
	seen := map[string]bool{}
	lang.Walk(f.Body, func(s lang.Stmt) bool {
		lang.WalkExprs(s, func(e lang.Expr) {
			switch e := e.(type) {
			case *lang.Ident:
				if _, ok := lang.IsPointer(e.Type()); ok {
					intern(a.tab.anchorID, &a.tab.anchors, e.Name, anchorShift, anchorBits)
				}
			case *lang.FieldExpr:
				intern(a.tab.fieldID, &a.tab.fields, e.Field, fieldShift, fieldBits)
			case *lang.CallExpr:
				if lang.Builtins[e.Func] == nil && !seen[e.Func] {
					seen[e.Func] = true
					out = append(out, e.Func)
				}
			}
		})
		return true
	})
	return out
}

// solve computes every function's summary. It works callee-first over
// the strongly connected components of the call graph, so a function
// outside any recursion is walked exactly once, against complete callee
// summaries; inside a recursive component a function is re-walked only
// when the summary of a member it calls grew (the accesses only
// accumulate, and the field and dimension sets are finite, so this
// terminates).
func (a *Analyzer) solve() {
	for _, members := range a.components() {
		queue := append([]*lang.FuncDecl(nil), members...)
		for len(queue) > 0 {
			f := queue[0]
			queue = queue[1:]
			if !a.walk(f) {
				continue
			}
			for _, g := range members {
				if slices.Contains(a.callees[g.Name], f.Name) && !slices.Contains(queue, g) {
					queue = append(queue, g)
				}
			}
		}
	}
}

// walk re-derives f's accesses from its body and the current callee
// summaries, reporting whether f's summary grew.
func (a *Analyzer) walk(f *lang.FuncDecl) bool {
	a.walks[f.Name]++
	anchors := make([]string, 0, len(f.Params))
	for _, prm := range f.Params {
		if _, ok := lang.IsPointer(prm.Type); ok {
			anchors = append(anchors, prm.Name)
		}
	}
	found := a.BlockSummary(f.Body, anchors)
	sum := a.summaries[f.Name]
	if len(sum.Accesses) == 0 {
		a.summaries[f.Name] = found // the first walk's set is the summary so far
		return len(found.Accesses) > 0
	}
	grew := false
	for _, acc := range found.Accesses {
		if sum.add(acc.key) {
			grew = true
		}
	}
	return grew
}

// components returns the strongly connected components of the call
// graph, callees before callers (Tarjan's algorithm emits them in that
// order), each component's members in program order.
func (a *Analyzer) components() [][]*lang.FuncDecl {
	index := map[string]int{} // 1-based visit number
	low := map[string]int{}
	comp := map[string]int{} // component number, assigned when popped
	var stack []string
	n := 0
	var visit func(v string)
	visit = func(v string) {
		index[v] = len(index) + 1
		low[v] = index[v]
		stack = append(stack, v)
		for _, w := range a.callees[v] {
			if a.summaries[w] == nil {
				continue // call to an undefined function
			}
			if index[w] == 0 {
				visit(w)
				low[v] = min(low[v], low[w])
			} else if _, done := comp[w]; !done {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				comp[w] = n
				if w == v {
					break
				}
			}
			n++
		}
	}
	for _, f := range a.prog.Funcs {
		if index[f.Name] == 0 {
			visit(f.Name)
		}
	}
	out := make([][]*lang.FuncDecl, n)
	for _, f := range a.prog.Funcs {
		if k, ok := comp[f.Name]; ok {
			out[k] = append(out[k], f)
		}
	}
	return out
}

// FuncSummary returns the closed summary for a function.
func (a *Analyzer) FuncSummary(name string) *Summary {
	return a.summaries[name]
}

// env holds, by anchor id, the region words each pointer variable may
// point into; a variable with none reads as the unknown region.
type env [][]uint64

var unknownOnly = []uint64{regionUnknown}

func (e env) add(v, r uint64) bool {
	v >>= anchorShift
	if slices.Contains(e[v], r) {
		return false
	}
	e[v] = append(e[v], r)
	return true
}

// of returns the regions of the named variable.
func (a *Analyzer) of(ev env, name string) []uint64 {
	if rs := ev[a.tab.anchorID[name]>>anchorShift]; len(rs) > 0 {
		return rs
	}
	return unknownOnly
}

// dimOf returns the bit of the dimension elem.field traverses.
func (a *Analyzer) dimOf(elem, field string) uint64 {
	_, pf := a.prog.Universe.FieldDecl(elem, field)
	if pf == nil {
		return 0
	}
	return a.tab.dimBit[pf.Dim]
}

// BlockSummary computes the effect summary of a block with the given
// anchor variables (e.g. a loop body anchored on its induction pointer
// and the enclosing function's parameters). The collection is
// flow-insensitive: variable regions grow monotonically to a fixed point
// (loops need no special handling), then every field access is emitted
// against its base's regions.
func (a *Analyzer) BlockSummary(b *lang.Block, anchors []string) *Summary {
	ev := make(env, len(a.tab.anchors))
	for _, v := range anchors {
		if id, ok := a.tab.anchorID[v]; ok {
			ev.add(id, id) // an id, shifted into place, is the anchor's own unmoved region
		}
	}

	// Grow regions to a fixed point.
	var rs []uint64
	for changed := true; changed; {
		changed = false
		lang.Walk(b, func(s lang.Stmt) bool {
			var name string
			var typ lang.Type
			var rhs lang.Expr
			switch s := s.(type) {
			case *lang.VarStmt:
				name, typ, rhs = s.Name, s.DeclType, s.Init
			case *lang.AssignStmt:
				if id, ok := s.LHS.(*lang.Ident); ok {
					name, typ, rhs = id.Name, id.Type(), s.RHS
				}
			}
			id, ok := a.tab.anchorID[name]
			if _, isPtr := lang.IsPointer(typ); !isPtr || rhs == nil || !ok {
				return true
			}
			rs = a.rhsRegions(rs[:0], rhs, ev)
			for _, r := range rs {
				if ev.add(id, r) {
					changed = true
				}
			}
			return true
		})
	}

	// Emit accesses.
	sum := &Summary{tab: a.tab}
	lang.Walk(b, func(s lang.Stmt) bool {
		// Writes via assignment LHS.
		as, _ := s.(*lang.AssignStmt)
		if as != nil {
			if fe, ok := as.LHS.(*lang.FieldExpr); ok {
				a.emitFieldAccess(sum, fe, writeBit, ev)
			}
		}
		// Reads via every other field expression, and callee effects.
		lang.WalkExprs(s, func(e lang.Expr) {
			switch e := e.(type) {
			case *lang.FieldExpr:
				if as == nil || as.LHS != e { // else already counted as a write
					a.emitFieldAccess(sum, e, 0, ev)
				}
			case *lang.CallExpr:
				a.emitCall(sum, e, ev)
			}
		})
		return true
	})
	return sum
}

// rhsRegions appends the regions a pointer RHS may point into.
func (a *Analyzer) rhsRegions(dst []uint64, rhs lang.Expr, ev env) []uint64 {
	switch rhs := rhs.(type) {
	case *lang.NullLit:
		return dst
	case *lang.NewExpr:
		return append(dst, regionFresh)
	case *lang.Ident:
		return append(dst, a.of(ev, rhs.Name)...)
	case *lang.FieldExpr:
		base := rhs.Base()
		if base == nil {
			break
		}
		elem, _ := lang.IsPointer(base.Type())
		along := a.dimOf(elem, rhs.Field) | movedBit
		for _, r := range a.of(ev, base.Name) {
			dst = append(dst, r|along)
		}
		return dst
	case *lang.CallExpr:
		// The result may point anywhere the pointer arguments reach.
		n := len(dst)
		for _, arg := range rhs.Args {
			switch arg.(type) {
			case *lang.Ident, *lang.FieldExpr:
				if _, isPtr := lang.IsPointer(arg.Type()); isPtr {
					dst = a.rhsRegions(dst, arg, ev)
				}
			}
		}
		if len(dst) == n {
			return append(dst, regionFresh)
		}
		for i := n; i < len(dst); i++ {
			dst[i] |= movedBit
		}
		return dst
	}
	return append(dst, regionUnknown)
}

// emitFieldAccess records a read (flags 0) or write of fe against every
// region of its base. An indexed access also reads the index
// expression; scalar reads of locals are not tracked (they cannot
// conflict across iterations unless heap-carried).
func (a *Analyzer) emitFieldAccess(sum *Summary, fe *lang.FieldExpr, flags uint64, ev env) {
	regions := unknownOnly
	if base := fe.Base(); base != nil {
		regions = a.of(ev, base.Name)
	}
	if _, isPtr := lang.IsPointer(fe.Type()); isPtr {
		flags |= ptrBit
	}
	flags |= a.tab.fieldID[fe.Field]
	for _, r := range regions {
		sum.add(r | flags)
	}
}

// emitCall substitutes the callee's summary, rebasing parameter-anchored
// accesses onto the caller's argument regions.
func (a *Analyzer) emitCall(sum *Summary, call *lang.CallExpr, ev env) {
	if lang.Builtins[call.Func] != nil {
		if call.Func == "rand" {
			sum.add(RandDraw.key)
		}
		return
	}
	callee := a.prog.Func(call.Func)
	calleeSum := a.summaries[call.Func]
	if callee == nil || calleeSum == nil {
		sum.add(regionUnknown | writeBit | ptrBit)
		return
	}
	// Each pointer parameter's anchor, and its argument's regions as a
	// stretch of args.
	type param struct {
		anchor uint64
		lo, hi int
	}
	var params []param
	var args []uint64
	for i, prm := range callee.Params {
		anchor, ok := a.tab.anchorID[prm.Name]
		if _, isPtr := lang.IsPointer(prm.Type); !isPtr || !ok || i >= len(call.Args) {
			continue
		}
		lo := len(args)
		args = a.rhsRegions(args, call.Args[i], ev)
		params = append(params, param{anchor, lo, len(args)})
	}
	for _, acc := range calleeSum.Accesses {
		p := slices.IndexFunc(params, func(p param) bool { return p.anchor == acc.key&anchorMask })
		if p < 0 {
			// Fresh/unknown-anchored callee accesses pass through.
			sum.add(acc.key)
			continue
		}
		for _, base := range args[params[p].lo:params[p].hi] {
			sum.add(base | acc.key&^anchorMask)
		}
	}
}
