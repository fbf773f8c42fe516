// Package analysis implements the paper's general path matrix analysis
// (§3.3): a flow-sensitive dataflow analysis over PSL functions that
// computes a path matrix at every program point, guided by the ADDS
// declarations of the structures being manipulated.
//
// The analysis fulfills the paper's two roles:
//
//  1. Abstraction validation (§3.3.1) — shape-changing stores
//     (p->f = q) are checked against the declared shape; temporary
//     violations (sharing along a unique dimension, cycles along an
//     acyclic direction) are recorded, and cleared when a later store
//     destroys the witnessing edge.
//
//  2. Alias analysis (§3.3.2) — the matrices prove non-aliasing facts
//     (e.g. that head, p and p' in a list-scaling loop are never
//     aliases), which downstream packages (depend, transform) use to
//     license parallelizing transformations.
//
// Loops are analyzed to a fixed point with primed handles: for every
// pointer variable v assigned in a loop body, a handle v' tracks v's
// value in the previous iteration, exactly as the paper's matrices show.
//
// A function's handles are numbered once, from lang.Check's slots
// (handleSet): every pointer slot has one, in slot order, and a pointer
// variable that a while body assigns has its prime v' right after it.
// So a shadowing declaration is a handle of its own, and every state of
// a function is one fixed matrix whose live set follows the scopes.
//
// The interprocedural facts come from package effects, built once per
// program by New: a call clears paths over the pointer fields its
// callee's summary may write, and functions are analyzed in the
// callee-first component order effects solved its summaries in, so a
// function outside any recursion is analyzed once, against its callees'
// final exit violations.
package analysis

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/adds"
	"repro/internal/effects"
	"repro/internal/lang"
	"repro/internal/pathmatrix"
)

// ViolationKind classifies an abstraction violation.
type ViolationKind int

// Violation kinds.
const (
	// Sharing: a node acquired two in-edges along a dimension declared
	// uniquely forward.
	Sharing ViolationKind = iota
	// Cycle: an edge closed a cycle along a declared acyclic direction.
	Cycle
)

// String names the kind.
func (k ViolationKind) String() string {
	if k == Cycle {
		return "cycle"
	}
	return "sharing"
}

// ViolationKey identifies which declared property is broken.
type ViolationKey struct {
	Type string
	Dim  string
	Kind ViolationKind
}

// String renders "sharing of Octree along down".
func (k ViolationKey) String() string {
	return fmt.Sprintf("%s of %s along %s", k.Kind, k.Type, k.Dim)
}

// EdgeRef names a heap edge through a handle: the f-field of the node
// that Handle points to. It is how a violation remembers which edges
// witness it, so that a later store through the same field (of the same
// node, reached through any definite alias) clears the violation — the
// paper's "if another program statement fixes the relationship between
// these two fields, the entry is removed" (§3.3.1).
type EdgeRef struct {
	Handle int
	Field  string
	// Index is the index-expression text for pointer-array fields
	// ("q" in t->subtrees[q]); "" for plain fields, "?" when the
	// analysis cannot compare the index.
	Index string
}

// Violation is an active abstraction violation: the declared property
// does not currently hold, so transformations relying on it must not be
// applied (§3.3.1).
type Violation struct {
	Key ViolationKey
	// Refs are the edges whose existence demonstrates the violation.
	// Destroying any of them (by an overwriting store) clears the
	// violation. A ref whose handle is reassigned becomes untrackable
	// and is dropped; a violation with no refs left is permanent for
	// the rest of the function.
	Refs []EdgeRef
	Pos  lang.Pos
}

// State is the abstract state at a program point: the path matrix plus
// the set of active violations.
//
// A State stored in a FuncResult is a snapshot: it is never mutated,
// and concurrent readers share it. To change one, take a Clone and use
// the clone's methods. Clone copies the matrix's cell slice and shares
// the two maps; the first method that writes a map after a Clone copies
// it first (most statements write neither). An empty map may be nil.
// Code outside this package reads Violations and Prov and never writes
// them.
type State struct {
	PM         *pathmatrix.Matrix
	Violations map[ViolationKey]*Violation
	// Prov records, for handles whose current value was produced by a
	// forward load, the dimension it was loaded along and (while still
	// nameable) the handle it was loaded from. It feeds two disproofs:
	// independence (a node reached forward along an independent
	// dimension can never be the same node — §3.1.3's sub||down) and
	// distinct-parent uniqueness (children of provably different
	// parents along a uniquely-forward dimension are different).
	Prov map[int]Provenance

	// sharedViolations / sharedProv: another State may hold the same
	// map, so a writer must copy it first (ownViolations, ownProv).
	sharedViolations, sharedProv bool
}

// Provenance describes how a handle's value was most recently produced.
type Provenance struct {
	// Dim is the dimension of the forward load.
	Dim string
	// Src is the base handle of the load, or noHandle once that handle
	// has been reassigned (the parent node is then no longer nameable).
	Src int
}

// noHandle names no handle: a Provenance.Src whose handle was
// reassigned, or a handleSet's entry for a scalar slot.
const noHandle = -1

// handleSet numbers one function's path-matrix handles.
type handleSet struct {
	of    []int    // slot → its handle; noHandle for a scalar slot
	prime []int    // slot → its prime's handle; noHandle when no while body assigns it
	names []string // handle → its printed name
}

// numberHandles gives every pointer slot of f a handle, in slot order,
// and a pointer variable that some while body assigns its prime right
// after it: the paper's head | p | p'.
func numberHandles(f *lang.FuncDecl) *handleSet {
	n := len(f.Vars)
	ptr := make([]string, n) // slot → name; "" for a scalar
	primed := make([]bool, n)
	for i, prm := range f.Params {
		if _, ok := lang.IsPointer(prm.Type); ok {
			ptr[i] = prm.Name
		}
	}
	lang.Walk(f.Body, func(s lang.Stmt) bool {
		switch s := s.(type) {
		case *lang.VarStmt:
			if _, isPtr := lang.IsPointer(s.DeclType); isPtr {
				ptr[s.Slot] = s.Name
			}
		case *lang.WhileStmt:
			for _, v := range assignedPointerVars(s.Body) {
				primed[v] = true
			}
		}
		return true
	})
	hs := &handleSet{of: make([]int, n), prime: make([]int, n)}
	for slot, name := range ptr {
		hs.of[slot], hs.prime[slot] = noHandle, noHandle
		if name == "" {
			continue
		}
		hs.of[slot] = len(hs.names)
		hs.names = append(hs.names, name)
		if primed[slot] {
			hs.prime[slot] = len(hs.names)
			hs.names = append(hs.names, name+"'")
		}
	}
	return hs
}

// newState returns a state with no live handle; its nil maps count as
// shared, so the first write makes them.
func (hs *handleSet) newState() *State {
	return (&State{PM: pathmatrix.New(hs.names)}).snapshot()
}

// Clone returns an independent copy of the state. The receiver is only
// written when it has never been cloned (or come from a Clone) before,
// so cloning a FuncResult's snapshots from several goroutines is safe.
func (s *State) Clone() *State {
	if !s.sharedViolations || !s.sharedProv {
		s.snapshot()
	}
	c := *s
	c.PM = s.PM.Clone()
	return &c
}

// snapshot marks s as shared and returns it. Every State a FuncResult
// holds has been through here (directly or via Clone), which is what
// keeps Clone from writing to it.
func (s *State) snapshot() *State {
	s.sharedViolations, s.sharedProv = true, true
	return s
}

// copyViolations deep-copies a violation set (the structs and their
// Refs are written in place by Retarget and invalidateIndexVar).
func copyViolations(m map[ViolationKey]*Violation) map[ViolationKey]*Violation {
	out := make(map[ViolationKey]*Violation, len(m))
	for k, v := range m {
		nv := *v
		nv.Refs = append([]EdgeRef(nil), v.Refs...)
		out[k] = &nv
	}
	return out
}

// ownViolations makes s.Violations private to s before a write.
func (s *State) ownViolations() {
	if s.sharedViolations {
		s.Violations = copyViolations(s.Violations)
		s.sharedViolations = false
	}
}

// ownProv makes s.Prov private to s before a write.
func (s *State) ownProv() {
	if s.sharedProv {
		prov := make(map[int]Provenance, len(s.Prov))
		maps.Copy(prov, s.Prov)
		s.Prov, s.sharedProv = prov, false
	}
}

// setProv records h's provenance; dropProv forgets it.
func (s *State) setProv(h int, pv Provenance) {
	if old, ok := s.Prov[h]; !ok || old != pv {
		s.ownProv()
		s.Prov[h] = pv
	}
}

func (s *State) dropProv(h int) {
	if _, ok := s.Prov[h]; ok {
		s.ownProv()
		delete(s.Prov, h)
	}
}

// Valid reports whether the ADDS property (typ, dim) currently holds:
// no active violation mentions it.
func (s *State) Valid(typ, dim string) bool {
	for k := range s.Violations {
		if k.Type == typ && k.Dim == dim {
			return false
		}
	}
	return true
}

// ViolationKeys returns the active violation keys, sorted, for reports.
func (s *State) ViolationKeys() []ViolationKey {
	keys := make([]ViolationKey, 0, len(s.Violations))
	for k := range s.Violations {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].String() < keys[j].String()
	})
	return keys
}

// ClearProvAlongDim drops provenance facts whose dimension is dim: a
// store through any field of that dimension may have destroyed the
// in-edge the fact was based on.
func (s *State) ClearProvAlongDim(dim string) {
	for k, v := range s.Prov {
		if v.Dim == dim {
			s.dropProv(k)
		}
	}
}

// fixViolationsForStore clears violations witnessed by the f-edge (at
// index idx for array fields) of the node x points to: a store
// x->f = ... / x->f[idx] = ... definitely destroys that edge. pm is the
// matrix before the store (so definite aliases of x are still visible).
// Incomparable indices ("?") never match.
func (s *State) fixViolationsForStore(x int, f, idx string, pm *pathmatrix.Matrix) {
	if idx == "?" || len(s.Violations) == 0 {
		return
	}
	s.ownViolations()
	for k, v := range s.Violations {
		for _, r := range v.Refs {
			if r.Field != f || r.Index != idx {
				continue
			}
			if r.Handle == x || pm.Get(x, r.Handle).Alias == pathmatrix.DefiniteAlias {
				delete(s.Violations, k)
				break
			}
		}
	}
}

// invalidateIndexVar records that scalar variable name was reassigned:
// exact descriptors and violation references indexed by it become
// stale. Descriptors are dropped; references become unfixable ("?").
func (s *State) invalidateIndexVar(name string) {
	s.PM.UpdateAll(func(_, _ int, e *pathmatrix.Entry) {
		e.RemoveExactsIndexedBy(name)
	})
	if len(s.Violations) == 0 {
		return
	}
	s.ownViolations()
	for _, v := range s.Violations {
		for i := range v.Refs {
			if v.Refs[i].Index == name {
				v.Refs[i].Index = "?"
			}
		}
	}
}

// Retarget records that handle h is about to take a new value: edge
// references through h transfer to a definite alias if one exists,
// otherwise they are dropped (the violation then persists untrackably),
// and provenance facts naming h as their load source lose the name.
func (s *State) Retarget(h int, pm *pathmatrix.Matrix) {
	for k, v := range s.Prov {
		if v.Src == h {
			v.Src = noHandle
			s.setProv(k, v)
		}
	}
	if len(s.Violations) == 0 {
		return
	}
	s.ownViolations()
	alias := noHandle
	if aliases := pm.Aliases(h, false); len(aliases) > 0 {
		alias = aliases[0]
	}
	for _, v := range s.Violations {
		out := v.Refs[:0]
		for _, r := range v.Refs {
			if r.Handle == h {
				if alias == noHandle {
					continue // untrackable: drop the ref
				}
				r.Handle = alias
			}
			out = append(out, r)
		}
		v.Refs = out
	}
}

// joinStates joins matrices and unions violations (a violation active on
// either path must be assumed active after the join).
func joinStates(a, b *State) *State {
	out := (&State{PM: pathmatrix.Join(a.PM, b.PM)}).snapshot()
	for k, v := range a.Prov {
		bv, ok := b.Prov[k]
		if !ok || bv.Dim != v.Dim {
			continue
		}
		if bv.Src != v.Src {
			v.Src = noHandle
		}
		out.setProv(k, v)
	}
	if len(a.Violations)+len(b.Violations) > 0 {
		out.Violations, out.sharedViolations = copyViolations(a.Violations), false
	}
	for k, v := range b.Violations {
		if prev, ok := out.Violations[k]; ok {
			// Merge references: fixing any referenced edge clears.
			seen := make(map[EdgeRef]bool, len(prev.Refs))
			for _, r := range prev.Refs {
				seen[r] = true
			}
			for _, r := range v.Refs {
				if !seen[r] {
					prev.Refs = append(prev.Refs, r)
				}
			}
			continue
		}
		nv := *v
		nv.Refs = append([]EdgeRef(nil), v.Refs...)
		out.Violations[k] = &nv
	}
	return out
}

// equalStates is the fixed-point test: matrices equal, the same
// violation keys active, and the same provenance facts.
func equalStates(a, b *State) bool {
	if !pathmatrix.Equal(a.PM, b.PM) || !sameViolationKeys(a.Violations, b.Violations) {
		return false
	}
	if len(a.Prov) != len(b.Prov) {
		return false
	}
	for k, v := range a.Prov {
		if b.Prov[k] != v {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Field information

// fieldInfo is the universe-wide view of a pointer field name. The
// analysis records paths as bare field names, so a field name that is
// declared differently by two record types is marked ambiguous and
// treated conservatively.
type fieldInfo struct {
	Dim       string
	Dir       adds.Direction
	Unique    bool
	Count     int
	Owner     string
	Ambiguous bool
}

func buildFieldInfo(u *adds.Universe) map[string]*fieldInfo {
	out := make(map[string]*fieldInfo)
	for _, tname := range u.Types() {
		d := u.Decl(tname)
		for _, f := range d.Pointers {
			if prev, ok := out[f.Name]; ok {
				if prev.Dim != f.Dim || prev.Dir != f.Dir || prev.Unique != f.Unique {
					prev.Ambiguous = true
				}
				continue
			}
			out[f.Name] = &fieldInfo{
				Dim: f.Dim, Dir: f.Dir, Unique: f.Unique,
				Count: f.Count, Owner: tname,
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Analyzer

// Result holds the per-program analysis output.
type Result struct {
	Program *Analyzer
	// Funcs maps each function to its analysis.
	Funcs map[string]*FuncResult
	// Effects holds the program's effect summaries, the ones the call
	// rule read; package depend reads them too.
	Effects *effects.Analyzer
}

// FuncResult is the analysis of one function. It records the states
// the dependence test reads; any other statement's are computed on
// demand (Before, After).
type FuncResult struct {
	Name string
	// Entry is the assumed state at function entry (parameters pairwise
	// possible aliases).
	Entry *State
	// Exit is the state at function exit (join over returns and
	// fall-through).
	Exit *State
	// LoopInvariant records the fixed-point state at each loop head.
	LoopInvariant map[lang.Stmt]*State
	// LoopBodyExit records the fixed-point state at the end of each
	// loop body, before the back edge rebinds the primed handles. This
	// is where the paper's p'-vs-p facts live.
	LoopBodyExit map[lang.Stmt]*State

	an         *Analyzer
	index      int // the function's in prog.Funcs
	handles    *handleSet
	loopBefore map[lang.Stmt]*State // before each reached while loop
	// before and after hold every reached statement's states (recorded).
	recordOnce    sync.Once
	before, after map[lang.Stmt]*State
}

// Analyzer runs general path matrix analysis over a program; exitViols
// and analyses are by function index.
type Analyzer struct {
	prog      *lang.Program
	fields    map[string]*fieldInfo
	effects   *effects.Analyzer
	results   map[string]*FuncResult
	exitViols []map[ViolationKey]*Violation
	// recursed is set by the call rule when a function calls itself: a
	// one-function component is analyzed again only then.
	recursed bool
	// analyses counts analyzeFunc runs per function; tests pin that a
	// function outside any recursion is analyzed once.
	analyses []int
}

// maxLoopIterations bounds loop fixed-point iteration as a safety net;
// the lattice is finite so this should never be reached.
const maxLoopIterations = 64

// New creates an analyzer for the program, building its effect
// summaries.
func New(prog *lang.Program) *Analyzer {
	return &Analyzer{
		prog:      prog,
		fields:    buildFieldInfo(prog.Universe),
		effects:   effects.NewAnalyzer(prog),
		results:   make(map[string]*FuncResult),
		exitViols: make([]map[ViolationKey]*Violation, len(prog.Funcs)),
		analyses:  make([]int, len(prog.Funcs)),
	}
}

// analyzeAllRuns counts AnalyzeAll calls, process-wide.
var analyzeAllRuns atomic.Int64

// AnalyzeAllCount reports how many whole-program analyses have run,
// process-wide — the front end's counterpart of interp.CompileCount:
// tests pin that planning a program analyzes it once.
func AnalyzeAllCount() int64 { return analyzeAllRuns.Load() }

// AnalyzeAll analyzes every function and returns the combined result.
// It walks the call graph's components callee-first (effects'
// Components), so every call reads its callee's final exit violations:
// a function outside any recursion is analyzed exactly once. A
// recursive component — several functions, or one that calls itself —
// is re-analyzed, its members in program order, until their exit
// violation keys stop changing.
func (a *Analyzer) AnalyzeAll() (*Result, error) {
	analyzeAllRuns.Add(1)
	for _, members := range a.effects.Components() {
		a.recursed = len(members) > 1
		for round := 0; round < len(members)+2; round++ {
			changed := false
			for _, i := range members {
				a.analyses[i]++
				// A recursive component's members read exit violations
				// that change after, so they record as they run.
				fr, selfCall, err := a.analyzeFunc(i, a.recursed, nil)
				if err != nil {
					return nil, err
				}
				a.recursed = a.recursed || selfCall
				a.results[fr.Name] = fr
				if !sameViolationKeys(a.exitViols[i], fr.Exit.Violations) {
					changed = true
				}
				a.exitViols[i] = fr.Exit.Violations
			}
			if !changed || !a.recursed {
				break
			}
		}
	}
	return &Result{Program: a, Funcs: a.results, Effects: a.effects}, nil
}

func sameViolationKeys(a, b map[ViolationKey]*Violation) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// entryState builds the conservative function-entry assumption: every
// pair of same-record-type pointer parameters may be aliases.
func entryState(f *lang.FuncDecl, hs *handleSet) *State {
	s := hs.newState()
	for i := range f.Params {
		if h := hs.of[i]; h != noHandle {
			s.PM.Declare(h)
		}
	}
	for i, p := range f.Params {
		for j, q := range f.Params {
			if i != j && hs.of[i] != noHandle && hs.of[j] != noHandle && lang.TypeEq(p.Type, q.Type) {
				s.PM.Update(hs.of[i], hs.of[j], func(e *pathmatrix.Entry) { e.Alias = pathmatrix.PossibleAlias })
			}
		}
	}
	return s
}

// analyzeFunc analyzes prog.Funcs[i], writing nothing outside its
// result; record keeps every statement's states, and a replay passes
// the loops' states the analysis recorded, to be kept.
func (a *Analyzer) analyzeFunc(i int, record bool, loops map[lang.Stmt]*State) (fr *FuncResult, selfCall bool, err error) {
	f := a.prog.Funcs[i]
	fr = &FuncResult{
		Name:          f.Name,
		LoopInvariant: make(map[lang.Stmt]*State),
		LoopBodyExit:  make(map[lang.Stmt]*State),
		an:            a,
		index:         i,
		handles:       numberHandles(f),
		loopBefore:    make(map[lang.Stmt]*State),
	}
	if record {
		fr.before, fr.after = make(map[lang.Stmt]*State), make(map[lang.Stmt]*State)
		fr.recordOnce.Do(func() {}) // nothing to replay
	}
	fr.Entry = entryState(f, fr.handles)
	ctx := &funcCtx{an: a, fr: fr, hs: fr.handles, record: record, loops: loops}
	st := fr.Entry.Clone()
	out, err := ctx.block(f.Body, st)
	if err != nil {
		return nil, false, err
	}
	if ctx.exit != nil {
		if out != nil {
			out = joinStates(out, ctx.exit)
		} else {
			out = ctx.exit
		}
	}
	if out == nil {
		out = fr.handles.newState()
	}
	fr.Exit = out.snapshot()
	return fr, ctx.selfCall, nil
}

// recorded returns fr with every statement's states: the first call
// replays the analysis with recording on, and concurrent callers wait
// for that one replay. AnalyzeAll records a recursive component as it
// runs, except a self-calling function's first round, which it keeps
// only if that ends with no exit violations — what the round read for
// itself. So the replay reads the exit violations the analysis read and
// reaches the same states: an error is a broken invariant.
func (fr *FuncResult) recorded() *FuncResult {
	fr.recordOnce.Do(func() {
		full, _, err := fr.an.analyzeFunc(fr.index, true, fr.loopBefore)
		if err != nil {
			panic(fmt.Sprintf("analysis: replaying %s: %v", fr.Name, err))
		}
		fr.before, fr.after = full.before, full.after
	})
	return fr
}

// funcCtx is the per-function analysis context.
type funcCtx struct {
	an   *Analyzer
	fr   *FuncResult
	hs   *handleSet
	exit *State // join of states at return statements
	// record keeps every statement's states, not only loops'; edgeID
	// numbers exact edges per function, so a replay numbers them alike.
	record, selfCall bool
	edgeID           int
	loops            map[lang.Stmt]*State // a replay's: the analysis's loopBefore
}

// block analyzes a block, returning the fall-through state (nil when the
// block definitely returns). Pointer handles declared in the block are
// dropped from the resulting state (scope exit).
func (c *funcCtx) block(b *lang.Block, st *State) (*State, error) {
	if b == nil {
		return st, nil
	}
	var declared []int
	cur := st
	var prev lang.Stmt
	for _, s := range b.Stmts {
		if cur == nil {
			// Unreachable code after a return: skip (conservatively,
			// nothing to analyze).
			break
		}
		_, isLoop := s.(*lang.WhileStmt)
		if c.record || isLoop {
			// One snapshot serves as after[prev] and before[s]: nothing
			// runs between the two program points. Before a loop, a
			// replay reuses the analysis's.
			snap := c.loops[s]
			if snap == nil {
				snap = cur.Clone()
			}
			if isLoop {
				c.fr.loopBefore[s] = snap
			}
			if c.record {
				c.fr.before[s] = snap
				if prev != nil {
					c.fr.after[prev] = snap
				}
			}
		}
		next, err := c.stmt(s, cur)
		if err != nil {
			return nil, err
		}
		if vs, ok := s.(*lang.VarStmt); ok {
			if h := c.hs.of[vs.Slot]; h != noHandle {
				declared = append(declared, h)
			}
		}
		prev, cur = s, next
	}
	if c.record && cur != nil && prev != nil {
		c.fr.after[prev] = cur.Clone()
	}
	if cur != nil {
		for _, h := range declared {
			cur.PM.Drop(h)
		}
	}
	return cur, nil
}
