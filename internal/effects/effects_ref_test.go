// The reference effect analysis: the string-and-map implementation this
// package had before its sets became integers, kept as the oracle the
// differential tests in effects_diff_test.go compare the production
// analyzer against. It is written against package lang only and lives
// in the external test package, so it shares no code with what it
// checks. Do not optimize it.
package effects_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/lang"
)

// refKind distinguishes reads from writes.
type refKind int

// refAccess kinds.
const (
	refRead refKind = iota
	refWrite
)

// String names the kind.
func (k refKind) String() string {
	if k == refWrite {
		return "W"
	}
	return "R"
}

// Special anchors.
const (
	// refFresh marks accesses to nodes allocated inside the analyzed
	// code; they cannot conflict with pre-existing structure.
	refFresh = "<fresh>"
	// refUnknown marks accesses whose base pointer could not be
	// traced to an anchor; they conflict with everything.
	refUnknown = "<unknown>"
	// refRand is the hidden region every rand() call writes: the one
	// generator state all iterations share. print() has no such region —
	// a parallel run merges its output in iteration order.
	refRand = "<rand>"
)

// refRandDraw is the access a call to rand() contributes, directly or
// through any callee's summary.
var refRandDraw = refAccess{Region: refRegion{Anchor: refRand}, Field: "state", Kind: refWrite}

// refRegion abstracts where a pointer may point, relative to an anchor
// variable: the anchor's node itself (Moved=false), or any node
// reachable from it by traversing the listed dimensions (Moved=true).
type refRegion struct {
	Anchor string
	Dims   string // sorted, comma-joined dimension names; "" if unmoved
	Moved  bool
}

// String renders "node.down*" style.
func (r refRegion) String() string {
	if !r.Moved {
		return r.Anchor
	}
	if r.Dims == "" {
		return r.Anchor + ".?*"
	}
	return r.Anchor + "." + strings.ReplaceAll(r.Dims, ",", ".") + "*"
}

func refJoinDims(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	set := map[string]bool{}
	for _, d := range strings.Split(a, ",") {
		set[d] = true
	}
	for _, d := range strings.Split(b, ",") {
		set[d] = true
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// refAccess is one field access of a region.
type refAccess struct {
	Region refRegion
	// Field is the accessed field name; "" for pointer-structure
	// mutation records (see IsPointer).
	Field string
	Kind  refKind
	// IsPointer marks accesses to pointer (shape) fields rather than
	// data fields.
	IsPointer bool
}

// String renders "W node.down*.mass".
func (a refAccess) String() string {
	p := ""
	if a.IsPointer {
		p = "!"
	}
	return fmt.Sprintf("%s %s.%s%s", a.Kind, a.Region, a.Field, p)
}

// refSummary is the effect set of a function or block: the accesses in the
// order they were first found (reports quote the first offender, so the
// order is part of the output), indexed by a set so that adding one is
// O(1).
type refSummary struct {
	Accesses []refAccess
	seen     map[refAccess]struct{}
}

// add inserts an access, deduplicating.
func (s *refSummary) add(a refAccess) bool {
	if _, dup := s.seen[a]; dup {
		return false
	}
	if s.seen == nil {
		s.seen = make(map[refAccess]struct{})
	}
	s.seen[a] = struct{}{}
	s.Accesses = append(s.Accesses, a)
	return true
}

// String lists the accesses, sorted, one per line.
func (s *refSummary) String() string {
	lines := make([]string, len(s.Accesses))
	for i, a := range s.Accesses {
		lines[i] = a.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// refAnalyzer computes summaries over one program.
type refAnalyzer struct {
	prog      *lang.Program
	summaries map[string]*refSummary
	// callees is the caller→callee graph (each function's callees in
	// first-call order): solve orders its work by it.
	callees map[string][]string
}

// newRefAnalyzer prepares function summaries for the program, closing them
// over the call graph.
func newRefAnalyzer(prog *lang.Program) *refAnalyzer {
	a := &refAnalyzer{
		prog:      prog,
		summaries: make(map[string]*refSummary),
		callees:   make(map[string][]string),
	}
	for _, f := range prog.Funcs {
		a.summaries[f.Name] = &refSummary{}
		a.callees[f.Name] = refCalleesOf(f)
	}
	a.solve()
	return a
}

// refCalleesOf collects the non-builtin functions f calls, in first-call
// order.
func refCalleesOf(f *lang.FuncDecl) []string {
	var out []string
	seen := map[string]bool{}
	lang.Walk(f.Body, func(s lang.Stmt) bool {
		lang.WalkExprs(s, func(e lang.Expr) {
			if call, ok := e.(*lang.CallExpr); ok {
				if lang.Builtins[call.Func] == nil && !seen[call.Func] {
					seen[call.Func] = true
					out = append(out, call.Func)
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
func (a *refAnalyzer) solve() {
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
func (a *refAnalyzer) walk(f *lang.FuncDecl) bool {
	anchors := make([]string, 0, len(f.Params))
	for _, prm := range f.Params {
		if _, ok := lang.IsPointer(prm.Type); ok {
			anchors = append(anchors, prm.Name)
		}
	}
	grew := false
	sum := a.summaries[f.Name]
	for _, acc := range a.analyzeBlock(f.Body, anchors).Accesses {
		if sum.add(acc) {
			grew = true
		}
	}
	return grew
}

// components returns the strongly connected components of the call
// graph, callees before callers (Tarjan's algorithm emits them in that
// order), each component's members in program order.
func (a *refAnalyzer) components() [][]*lang.FuncDecl {
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
func (a *refAnalyzer) FuncSummary(name string) *refSummary {
	return a.summaries[name]
}

// BlockSummary computes the effect summary of a block with the given
// anchor variables (e.g. a loop body anchored on its induction pointer
// and the enclosing function's parameters).
func (a *refAnalyzer) BlockSummary(b *lang.Block, anchors []string) *refSummary {
	return a.analyzeBlock(b, anchors)
}

// refEnv maps pointer variables to the regions they may point into.
type refEnv map[string][]refRegion

func (e refEnv) add(v string, r refRegion) bool {
	for _, x := range e[v] {
		if x == r {
			return false
		}
	}
	e[v] = append(e[v], r)
	return true
}

func (a *refAnalyzer) dimOf(elem, field string) string {
	_, pf := a.prog.Universe.FieldDecl(elem, field)
	if pf == nil {
		return ""
	}
	return pf.Dim
}

// analyzeBlock runs a flow-insensitive effect collection over the block:
// variable regions grow monotonically to a fixed point (loops need no
// special handling), then every field access is emitted against its
// base's regions.
func (a *refAnalyzer) analyzeBlock(b *lang.Block, anchors []string) *refSummary {
	ev := refEnv{}
	for _, v := range anchors {
		ev.add(v, refRegion{Anchor: v})
	}

	// Grow regions to a fixed point.
	for {
		changed := false
		lang.Walk(b, func(s lang.Stmt) bool {
			var name string
			var rhs lang.Expr
			switch s := s.(type) {
			case *lang.VarStmt:
				if _, ok := lang.IsPointer(s.DeclType); !ok {
					return true
				}
				name, rhs = s.Name, s.Init
			case *lang.AssignStmt:
				id, ok := s.LHS.(*lang.Ident)
				if !ok {
					return true
				}
				if _, ok := lang.IsPointer(id.Type()); !ok {
					return true
				}
				name, rhs = id.Name, s.RHS
			default:
				return true
			}
			if rhs == nil {
				return true
			}
			for _, r := range a.rhsRegions(rhs, ev) {
				if ev.add(name, r) {
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	// Emit accesses.
	sum := &refSummary{}
	lang.Walk(b, func(s lang.Stmt) bool {
		// Writes via assignment LHS.
		if as, ok := s.(*lang.AssignStmt); ok {
			if fe, ok := as.LHS.(*lang.FieldExpr); ok {
				_, isPtr := lang.IsPointer(fe.Type())
				a.emitFieldAccess(sum, fe, refWrite, isPtr, ev)
			}
		}
		// Reads via every other field expression, and callee effects.
		lang.WalkExprs(s, func(e lang.Expr) {
			switch e := e.(type) {
			case *lang.FieldExpr:
				if as, ok := s.(*lang.AssignStmt); ok && as.LHS == e {
					return // already counted as a write
				}
				_, isPtr := lang.IsPointer(e.Type())
				a.emitFieldAccess(sum, e, refRead, isPtr, ev)
			case *lang.CallExpr:
				a.emitCall(sum, e, ev)
			}
		})
		return true
	})
	return sum
}

// rhsRegions computes the regions a pointer RHS may point into.
func (a *refAnalyzer) rhsRegions(rhs lang.Expr, ev refEnv) []refRegion {
	switch rhs := rhs.(type) {
	case *lang.NullLit:
		return nil
	case *lang.NewExpr:
		return []refRegion{{Anchor: refFresh}}
	case *lang.Ident:
		if rs, ok := ev[rhs.Name]; ok {
			return rs
		}
		return []refRegion{{Anchor: refUnknown}}
	case *lang.FieldExpr:
		base := rhs.Base()
		if base == nil {
			return []refRegion{{Anchor: refUnknown}}
		}
		elem, _ := lang.IsPointer(base.Type())
		dim := a.dimOf(elem, rhs.Field)
		var out []refRegion
		rs, ok := ev[base.Name]
		if !ok {
			rs = []refRegion{{Anchor: refUnknown}}
		}
		for _, r := range rs {
			out = append(out, refRegion{
				Anchor: r.Anchor,
				Dims:   refJoinDims(r.Dims, dim),
				Moved:  true,
			})
		}
		return out
	case *lang.CallExpr:
		// The result may point anywhere the pointer arguments reach.
		var out []refRegion
		for _, arg := range rhs.Args {
			if id, ok := arg.(*lang.Ident); ok {
				if _, isPtr := lang.IsPointer(id.Type()); isPtr {
					for _, r := range a.rhsRegions(id, ev) {
						out = append(out, refRegion{Anchor: r.Anchor, Dims: r.Dims, Moved: true})
					}
					continue
				}
			}
			if fe, ok := arg.(*lang.FieldExpr); ok {
				if _, isPtr := lang.IsPointer(fe.Type()); isPtr {
					for _, r := range a.rhsRegions(fe, ev) {
						out = append(out, refRegion{Anchor: r.Anchor, Dims: r.Dims, Moved: true})
					}
				}
			}
		}
		if out == nil {
			out = []refRegion{{Anchor: refFresh}}
		}
		return out
	}
	return []refRegion{{Anchor: refUnknown}}
}

func (a *refAnalyzer) emitFieldAccess(sum *refSummary, fe *lang.FieldExpr, kind refKind, isPtr bool, ev refEnv) {
	base := fe.Base()
	regions := []refRegion{{Anchor: refUnknown}}
	if base != nil {
		if rs, ok := ev[base.Name]; ok {
			regions = rs
		}
	}
	for _, r := range regions {
		sum.add(refAccess{Region: r, Field: fe.Field, Kind: kind, IsPointer: isPtr})
	}
	// An indexed access also reads the index expression; scalar reads of
	// locals are not tracked (they cannot conflict across iterations
	// unless heap-carried).
}

// emitCall substitutes the callee's summary, rebasing parameter-anchored
// accesses onto the caller's argument regions.
func (a *refAnalyzer) emitCall(sum *refSummary, call *lang.CallExpr, ev refEnv) {
	if lang.Builtins[call.Func] != nil {
		if call.Func == "rand" {
			sum.add(refRandDraw)
		}
		return
	}
	callee := a.prog.Func(call.Func)
	calleeSum := a.summaries[call.Func]
	if callee == nil || calleeSum == nil {
		sum.add(refAccess{Region: refRegion{Anchor: refUnknown}, Kind: refWrite, IsPointer: true})
		return
	}
	// Map parameter name -> argument regions.
	argRegions := map[string][]refRegion{}
	for i, prm := range callee.Params {
		if _, ok := lang.IsPointer(prm.Type); !ok {
			continue
		}
		if i < len(call.Args) {
			argRegions[prm.Name] = a.rhsRegions(call.Args[i], ev)
		}
	}
	for _, acc := range calleeSum.Accesses {
		bases, ok := argRegions[acc.Region.Anchor]
		if !ok {
			// Fresh/unknown-anchored callee accesses pass through.
			sum.add(acc)
			continue
		}
		for _, b := range bases {
			sum.add(refAccess{
				Region: refRegion{
					Anchor: b.Anchor,
					Dims:   refJoinDims(b.Dims, acc.Region.Dims),
					Moved:  b.Moved || acc.Region.Moved,
				},
				Field:     acc.Field,
				Kind:      acc.Kind,
				IsPointer: acc.IsPointer,
			})
		}
	}
}
