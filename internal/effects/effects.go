// Package effects computes interprocedural read/write effect summaries
// for PSL code at field granularity, anchored to pointer variables.
//
// An access such as "reads the mass field of every node reachable from
// node along the down dimension" renders as "R node.down*.mass" and is
// held as one 64-bit word: the anchor and the field by their ids in the
// program's identifier table, the dimension set as a bitset over the
// universe's dimensions, and three flags (moved, write, pointer field).
// The Analyzer only reads the table, so concurrent BlockSummary calls
// need no lock.
//
// Summaries are closed over the call graph (recursion converges because
// the dimension and field sets are finite). Package analysis builds the
// program's one Analyzer and reads its summaries' pointer writes and
// its component order (Components); package depend combines
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
	// first-call order) and comps its strongly connected components in
	// the order solve works through them.
	callees map[string][]string
	comps   [][]*lang.FuncDecl
	// seen[i] is the number of the scan that last met a call resolved to
	// prog.Funcs[i] (CallExpr.Callee-1), so each scan dedups its callees
	// in constant time per call.
	seen  []int32
	scans int32
	// walks counts how often solve has walked each function's body;
	// tests pin that a non-recursive function is walked once.
	walks map[string]int
}

// NewAnalyzer prepares function summaries for the program, closing them
// over the call graph.
func NewAnalyzer(prog *lang.Program) *Analyzer {
	a := &Analyzer{
		prog:      prog,
		tab:       newNames(prog),
		summaries: make(map[string]*Summary, len(prog.Funcs)),
		callees:   make(map[string][]string, len(prog.Funcs)),
		walks:     make(map[string]int, len(prog.Funcs)),
		seen:      make([]int32, len(prog.Funcs)),
	}
	for _, f := range prog.Funcs {
		a.summaries[f.Name] = &Summary{tab: a.tab}
		a.callees[f.Name] = a.scan(f)
	}
	a.comps = a.components()
	a.solve()
	return a
}

// scan collects the non-builtin functions f calls, in first-call order.
// A call the checker did not resolve to a function of the program's by
// its name is deduplicated by name.
func (a *Analyzer) scan(f *lang.FuncDecl) []string {
	a.scans++
	var out []string
	lang.Walk(f.Body, func(s lang.Stmt) bool {
		lang.WalkExprs(s, func(e lang.Expr) {
			c, ok := e.(*lang.CallExpr)
			if !ok || lang.Builtins[c.Func] != nil {
				return
			}
			if i := int(c.Callee) - 1; i >= 0 && i < len(a.seen) && a.prog.Funcs[i].Name == c.Func {
				if a.seen[i] == a.scans {
					return
				}
				a.seen[i] = a.scans
			} else if slices.Contains(out, c.Func) {
				return
			}
			out = append(out, c.Func)
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
// terminates). A component's work list is its members' positions, each
// at most once in it: when a member's summary grows, the members that
// call it are queued in member order, through the component's reverse
// edges, so a walk costs what its callers number, not the component.
func (a *Analyzer) solve() {
	for _, members := range a.comps {
		if len(members) == 1 {
			f := members[0]
			for a.walk(f) && slices.Contains(a.callees[f.Name], f.Name) {
			}
			continue
		}
		pos := make(map[string]int, len(members))
		for i, f := range members {
			pos[f.Name] = i
		}
		callers := make([][]int, len(members))
		for j, g := range members {
			for _, c := range a.callees[g.Name] {
				if i, ok := pos[c]; ok {
					callers[i] = append(callers[i], j)
				}
			}
		}
		queue, queued := make([]int, len(members)), make([]bool, len(members))
		for i := range queue {
			queue[i], queued[i] = i, true
		}
		for len(queue) > 0 {
			i := queue[0]
			queue, queued[i] = queue[1:], false
			if !a.walk(members[i]) {
				continue
			}
			for _, j := range callers[i] {
				if !queued[j] {
					queue, queued[j] = append(queue, j), true
				}
			}
		}
	}
}

// walk re-derives f's accesses from its body and the current callee
// summaries, reporting whether f's summary grew.
func (a *Analyzer) walk(f *lang.FuncDecl) bool {
	a.walks[f.Name]++
	anchors := make([]uint64, 0, len(f.Params))
	for _, prm := range f.Params {
		if _, ok := lang.IsPointer(prm.Type); ok {
			anchors = append(anchors, anchor(prm.ID))
		}
	}
	found := a.blockSummary(f.Body, anchors)
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

// Components returns the strongly connected components of the call
// graph in the order the summaries were solved: callees before callers,
// each component's members in program order. It is the program's one
// interprocedural order — package analysis walks it too. The slices are
// shared and must not be modified.
func (a *Analyzer) Components() [][]*lang.FuncDecl { return a.comps }

// FuncSummary returns the closed summary for a function.
func (a *Analyzer) FuncSummary(name string) *Summary {
	return a.summaries[name]
}

// env holds the region words each pointer variable, by its anchor word,
// may point into; a variable with none reads as the unknown region. A
// block names a handful of pointer variables, so it is a list.
type env []regions

type regions struct {
	v  uint64
	rs []uint64
}

var unknownOnly = []uint64{regionUnknown}

func (e *env) add(v, r uint64) bool {
	i := slices.IndexFunc(*e, func(x regions) bool { return x.v == v })
	if i < 0 {
		i = len(*e)
		*e = append(*e, regions{v: v})
	} else if slices.Contains((*e)[i].rs, r) {
		return false
	}
	(*e)[i].rs = append((*e)[i].rs, r)
	return true
}

// of returns the regions of variable id.
func (e env) of(id lang.ID) []uint64 {
	v := anchor(id)
	for _, x := range e {
		if x.v == v {
			return x.rs
		}
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
	words := make([]uint64, 0, len(anchors))
	for _, v := range anchors {
		if id, ok := a.tab.ids.Lookup(v); ok {
			words = append(words, anchor(id))
		}
	}
	return a.blockSummary(b, words)
}

// blockSummary is BlockSummary over the anchors' region words.
func (a *Analyzer) blockSummary(b *lang.Block, anchors []uint64) *Summary {
	ev := make(env, 0, 8)
	for _, v := range anchors {
		ev.add(v, v) // an anchor's word is its own unmoved region
	}

	// Grow regions to a fixed point.
	var rs []uint64
	for changed := true; changed; {
		changed = false
		lang.Walk(b, func(s lang.Stmt) bool {
			var id lang.ID
			var typ lang.Type
			var rhs lang.Expr
			switch s := s.(type) {
			case *lang.VarStmt:
				id, typ, rhs = s.ID, s.DeclType, s.Init
			case *lang.AssignStmt:
				if lhs, ok := s.LHS.(*lang.Ident); ok {
					id, typ, rhs = lhs.ID, lhs.Type(), s.RHS
				}
			}
			if _, isPtr := lang.IsPointer(typ); !isPtr || rhs == nil {
				return true
			}
			rs = a.rhsRegions(rs[:0], rhs, ev)
			for _, r := range rs {
				if ev.add(anchor(id), r) {
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
		return append(dst, ev.of(rhs.ID)...)
	case *lang.FieldExpr:
		base := rhs.Base()
		if base == nil {
			break
		}
		elem, _ := lang.IsPointer(base.Type())
		along := a.dimOf(elem, rhs.Field) | movedBit
		for _, r := range ev.of(base.ID) {
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
		regions = ev.of(base.ID)
	}
	if _, isPtr := lang.IsPointer(fe.Type()); isPtr {
		flags |= ptrBit
	}
	flags |= field(fe.FieldID)
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
		if _, isPtr := lang.IsPointer(prm.Type); !isPtr || i >= len(call.Args) {
			continue
		}
		lo := len(args)
		args = a.rhsRegions(args, call.Args[i], ev)
		params = append(params, param{anchor(prm.ID), lo, len(args)})
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
