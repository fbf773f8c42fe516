// Package effects computes interprocedural read/write effect summaries
// for PSL code at field granularity, anchored to pointer variables.
//
// An access such as "reads the mass field of every node reachable from
// node along the down dimension" renders as "R node.down*.mass" and is
// held as one 64-bit word: the anchor by its slot in the summarised
// function (lang.Check's numbering: parameter i is slot i), the field
// by its id in the program's identifier table, the dimension set as a
// bitset over the universe's dimensions, and three flags (moved, write,
// pointer field). A summary renders its anchors through its own
// function's Vars, so two variables that share a name are two anchors.
// Summaries are held by function index, and a call reads its callee's
// through CallExpr.Callee. The Analyzer only reads its tables, so
// concurrent BlockSummary calls need no lock.
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

// Analyzer computes summaries over one program. Its per-function
// tables are indexed like prog.Funcs.
type Analyzer struct {
	prog      *lang.Program
	tab       *names
	summaries []*Summary
	// callees is the call graph (each function's callees in first-call
	// order) and comps its strongly connected components in the order
	// solve works through them.
	callees [][]int
	comps   [][]int
	// seen[i] is the number of the scan that last met a call to
	// function i, so each scan dedups its callees in constant time.
	seen  []int32
	scans int32
	// walks counts how often solve has walked each function's body;
	// tests pin that a non-recursive function is walked once.
	walks []int
}

// NewAnalyzer prepares function summaries for the program, closing them
// over the call graph.
func NewAnalyzer(prog *lang.Program) *Analyzer {
	n := len(prog.Funcs)
	a := &Analyzer{
		prog:      prog,
		tab:       newNames(prog),
		summaries: make([]*Summary, n),
		callees:   make([][]int, n),
		walks:     make([]int, n),
		seen:      make([]int32, n),
	}
	for i, f := range prog.Funcs {
		a.summaries[i] = &Summary{scope: scope{a.tab, f.Vars}}
		a.callees[i] = a.scan(f)
	}
	a.comps = a.components()
	a.solve()
	return a
}

// scan collects the functions f calls (CallExpr.Callee), in first-call
// order.
func (a *Analyzer) scan(f *lang.FuncDecl) []int {
	a.scans++
	var out []int
	lang.Walk(f.Body, func(s lang.Stmt) bool {
		lang.WalkExprs(s, func(e lang.Expr) {
			if c, ok := e.(*lang.CallExpr); ok {
				if i := int(c.Callee) - 1; i >= 0 && i < len(a.seen) && a.seen[i] != a.scans {
					a.seen[i] = a.scans
					out = append(out, i)
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
// terminates). A component's work list is its members' positions, each
// at most once in it: when a member's summary grows, the members that
// call it are queued in member order, through the component's reverse
// edges, so a walk costs what its callers number, not the component.
func (a *Analyzer) solve() {
	pos := make([]int, len(a.summaries)) // a function's place in its component
	for _, members := range a.comps {
		for j, f := range members {
			pos[f] = j
		}
	}
	for _, members := range a.comps {
		if len(members) == 1 {
			f := members[0]
			for a.walk(f) && slices.Contains(a.callees[f], f) {
			}
			continue
		}
		callers := make([][]int, len(members))
		for j, g := range members {
			for _, c := range a.callees[g] {
				if i := pos[c]; i < len(members) && members[i] == c {
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

// walk re-derives function i's accesses from its body and the current
// callee summaries, reporting whether its summary grew.
func (a *Analyzer) walk(i int) bool {
	a.walks[i]++
	f := a.prog.Funcs[i]
	anchors := make([]int, 0, len(f.Params))
	for slot, prm := range f.Params {
		if _, ok := lang.IsPointer(prm.Type); ok {
			anchors = append(anchors, slot)
		}
	}
	found := a.BlockSummary(f, f.Body, anchors)
	sum := a.summaries[i]
	if len(sum.Accesses) == 0 {
		a.summaries[i] = found // the first walk's set is the summary so far
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
func (a *Analyzer) components() [][]int {
	n := len(a.summaries)
	index := make([]int, n) // 1-based visit number
	low := make([]int, n)
	comp := make([]int, n) // 1-based component number, assigned when popped
	var stack []int
	visits, ncomp := 0, 0
	var visit func(v int)
	visit = func(v int) {
		visits++
		index[v], low[v] = visits, visits
		stack = append(stack, v)
		for _, w := range a.callees[v] {
			if index[w] == 0 {
				visit(w)
				low[v] = min(low[v], low[w])
			} else if comp[w] == 0 {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			ncomp++
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				comp[w] = ncomp
				if w == v {
					break
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == 0 {
			visit(v)
		}
	}
	out := make([][]int, ncomp)
	for v, k := range comp {
		out[k-1] = append(out[k-1], v)
	}
	return out
}

// Components returns the strongly connected components of the call
// graph, as function indices, in the order the summaries were solved:
// callees before callers, each component's members in program order.
// It is the program's one interprocedural order — package analysis
// walks it too. The slices are shared and must not be modified.
func (a *Analyzer) Components() [][]int { return a.comps }

// FuncSummary returns the closed summary of prog.Funcs[i], or nil when
// i is no function's index: int(call.Callee)-1 of a call to a builtin,
// or one that resolved to no function of the program.
func (a *Analyzer) FuncSummary(i int) *Summary {
	if i < 0 || i >= len(a.summaries) {
		return nil
	}
	return a.summaries[i]
}

// env holds, by slot, the region words each variable of the summarised
// function may point into; a variable with none, or a slot past the
// function's, reads as the unknown region.
type env [][]uint64

var unknownOnly = []uint64{regionUnknown}

func (e env) add(slot int, r uint64) bool {
	if slices.Contains(e[slot], r) {
		return false
	}
	e[slot] = append(e[slot], r)
	return true
}

// of returns the regions of the variable at slot.
func (e env) of(slot int) []uint64 {
	if uint(slot) < uint(len(e)) && len(e[slot]) > 0 {
		return e[slot]
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

// BlockSummary computes the effect summary of a block of fn with the
// given anchors, slots of fn (e.g. a loop body anchored on its
// induction pointer and the outer pointers it reads); a slot past fn's
// Vars anchors nothing. The collection is flow-insensitive: variable
// regions grow monotonically to a fixed point (loops need no special
// handling), then every field access is emitted against its base's
// regions.
func (a *Analyzer) BlockSummary(fn *lang.FuncDecl, b *lang.Block, anchors []int) *Summary {
	ev := make(env, len(fn.Vars))
	for _, slot := range anchors {
		if uint(slot) < uint(len(ev)) {
			ev.add(slot, anchor(slot)) // an anchor's word is its own unmoved region
		}
	}

	// Grow regions to a fixed point.
	var rs []uint64
	for changed := true; changed; {
		changed = false
		lang.Walk(b, func(s lang.Stmt) bool {
			var slot int
			var typ lang.Type
			var rhs lang.Expr
			switch s := s.(type) {
			case *lang.VarStmt:
				slot, typ, rhs = s.Slot, s.DeclType, s.Init
			case *lang.AssignStmt:
				if lhs, ok := s.LHS.(*lang.Ident); ok {
					slot, typ, rhs = lhs.Slot, lhs.Type(), s.RHS
				}
			}
			if _, isPtr := lang.IsPointer(typ); !isPtr || rhs == nil || uint(slot) >= uint(len(ev)) {
				return true
			}
			rs = a.rhsRegions(rs[:0], rhs, ev)
			for _, r := range rs {
				if ev.add(slot, r) {
					changed = true
				}
			}
			return true
		})
	}

	// Emit accesses.
	sum := &Summary{scope: scope{a.tab, fn.Vars}}
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
		return append(dst, ev.of(rhs.Slot)...)
	case *lang.FieldExpr:
		base := rhs.Base()
		if base == nil {
			break
		}
		elem, _ := lang.IsPointer(base.Type())
		along := a.dimOf(elem, rhs.Field) | movedBit
		for _, r := range ev.of(base.Slot) {
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
		regions = ev.of(base.Slot)
	}
	if _, isPtr := lang.IsPointer(fe.Type()); isPtr {
		flags |= ptrBit
	}
	flags |= field(fe.FieldID)
	for _, r := range regions {
		sum.add(r | flags)
	}
}

// emitCall substitutes the callee's summary, rebasing each access
// anchored on a parameter's slot onto the regions of the caller's
// argument at that position.
func (a *Analyzer) emitCall(sum *Summary, call *lang.CallExpr, ev env) {
	if lang.Builtins[call.Func] != nil {
		if call.Func == "rand" {
			sum.add(RandDraw.key)
		}
		return
	}
	i := int(call.Callee) - 1
	callee := a.FuncSummary(i)
	if callee == nil {
		sum.add(regionUnknown | writeBit | ptrBit)
		return
	}
	// The regions of argument k, when parameter k is a pointer, are
	// args[at[k]:at[k+1]].
	params := a.prog.Funcs[i].Params
	at := make([]int, min(len(params), len(call.Args))+1)
	var args []uint64
	for k := range at[1:] {
		if _, isPtr := lang.IsPointer(params[k].Type); isPtr {
			args = a.rhsRegions(args, call.Args[k], ev)
		}
		at[k+1] = len(args)
	}
	for _, acc := range callee.Accesses {
		switch k, rest := acc.Slot(), acc.key&^anchorMask; {
		case k < 0: // a fresh, unknown or rand() access passes through
			sum.add(acc.key)
		case k+1 >= len(at):
			sum.add(regionUnknown | rest)
		default:
			for _, base := range args[at[k]:at[k+1]] {
				sum.add(base | rest)
			}
		}
	}
}
