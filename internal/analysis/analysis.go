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
package analysis

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/adds"
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
	Handle string
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
// it first (most statements write neither). Code outside this package
// reads Violations and Prov and never writes them.
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
	Prov map[string]Provenance

	// sharedViolations / sharedProv: another State may hold the same
	// map, so a writer must copy it first (ownViolations, ownProv).
	sharedViolations, sharedProv bool
}

// Provenance describes how a handle's value was most recently produced.
type Provenance struct {
	// Dim is the dimension of the forward load.
	Dim string
	// Src names the base handle of the load, or "" once that handle
	// has been reassigned (the parent node is then no longer nameable).
	Src string
}

// NewState returns an empty state.
func NewState() *State {
	return &State{
		PM:         pathmatrix.New(),
		Violations: map[ViolationKey]*Violation{},
		Prov:       map[string]Provenance{},
	}
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
		prov := make(map[string]Provenance, len(s.Prov))
		for k, v := range s.Prov {
			prov[k] = v
		}
		s.Prov, s.sharedProv = prov, false
	}
}

// setProv records h's provenance; dropProv forgets it.
func (s *State) setProv(h string, pv Provenance) {
	if old, ok := s.Prov[h]; !ok || old != pv {
		s.ownProv()
		s.Prov[h] = pv
	}
}

func (s *State) dropProv(h string) {
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
func (s *State) fixViolationsForStore(x, f, idx string, pm *pathmatrix.Matrix) {
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
	s.PM.UpdateAll(func(_, _ string, e *pathmatrix.Entry) {
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
func (s *State) Retarget(h string, pm *pathmatrix.Matrix) {
	for k, v := range s.Prov {
		if v.Src == h {
			v.Src = ""
			s.setProv(k, v)
		}
	}
	if len(s.Violations) == 0 {
		return
	}
	s.ownViolations()
	var alias string
	for _, other := range pm.Aliases(h, false) {
		alias = other
		break
	}
	for _, v := range s.Violations {
		out := v.Refs[:0]
		for _, r := range v.Refs {
			if r.Handle == h {
				if alias == "" {
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
	out := &State{
		PM:         pathmatrix.Join(a.PM, b.PM),
		Violations: copyViolations(a.Violations),
		Prov:       make(map[string]Provenance, len(a.Prov)),
	}
	for k, v := range a.Prov {
		bv, ok := b.Prov[k]
		if !ok || bv.Dim != v.Dim {
			continue
		}
		if bv.Src != v.Src {
			v.Src = ""
		}
		out.Prov[k] = v
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
	if !pathmatrix.Equal(a.PM, b.PM) {
		return false
	}
	if len(a.Violations) != len(b.Violations) {
		return false
	}
	for k := range a.Violations {
		if _, ok := b.Violations[k]; !ok {
			return false
		}
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
}

// FuncResult is the analysis of one function.
type FuncResult struct {
	Name string
	// Entry is the assumed state at function entry (parameters pairwise
	// possible aliases).
	Entry *State
	// Exit is the state at function exit (join over returns and
	// fall-through).
	Exit *State
	// Before and After record the state around every statement, as
	// snapshots (see State): After[s] and the next statement's Before
	// are one *State.
	Before map[lang.Stmt]*State
	After  map[lang.Stmt]*State
	// LoopInvariant records the fixed-point state at each loop head.
	LoopInvariant map[lang.Stmt]*State
	// LoopBodyExit records the fixed-point state at the end of each
	// loop body, before the back edge rebinds the primed handles. This
	// is where the paper's p'-vs-p facts live.
	LoopBodyExit map[lang.Stmt]*State

	an *Analyzer
}

// Analyzer runs general path matrix analysis over a program.
type Analyzer struct {
	prog      *lang.Program
	fields    map[string]*fieldInfo
	effects   map[string]*callEffects
	edgeID    int
	results   map[string]*FuncResult
	exitViols map[string]map[ViolationKey]*Violation
	// MaxLoopIterations bounds loop fixed-point iteration as a safety
	// net; the lattice is finite so this should never be reached.
	MaxLoopIterations int
}

// New creates an analyzer for the program.
func New(prog *lang.Program) *Analyzer {
	return &Analyzer{
		prog:              prog,
		fields:            buildFieldInfo(prog.Universe),
		effects:           computeCallEffects(prog),
		results:           make(map[string]*FuncResult),
		exitViols:         make(map[string]map[ViolationKey]*Violation),
		MaxLoopIterations: 64,
	}
}

// analyzeAllRuns counts AnalyzeAll calls, process-wide.
var analyzeAllRuns atomic.Int64

// AnalyzeAllCount reports how many whole-program analyses have run,
// process-wide — the front end's counterpart of interp.CompileCount:
// tests pin that planning a program analyzes it once.
func AnalyzeAllCount() int64 { return analyzeAllRuns.Load() }

// AnalyzeAll analyzes every function and returns the combined result.
// Functions are analyzed on demand (callee violation summaries are
// consumed by callers), iterating until the violation summaries
// stabilize.
func (a *Analyzer) AnalyzeAll() (*Result, error) {
	analyzeAllRuns.Add(1)
	// Iterate to a fixed point of exit-violation summaries: a callee
	// that ends with an active violation poisons its callers.
	for round := 0; round < len(a.prog.Funcs)+2; round++ {
		changed := false
		for _, f := range a.prog.Funcs {
			prev := a.exitViols[f.Name]
			fr, err := a.analyzeFunc(f)
			if err != nil {
				return nil, err
			}
			a.results[f.Name] = fr
			now := fr.Exit.Violations
			if !sameViolationKeys(prev, now) {
				changed = true
			}
			a.exitViols[f.Name] = now
		}
		if !changed {
			break
		}
	}
	res := &Result{Program: a, Funcs: a.results}
	return res, nil
}

// Analyze runs the full program analysis and returns the result for one
// function.
func Analyze(prog *lang.Program, fnName string) (*FuncResult, error) {
	a := New(prog)
	res, err := a.AnalyzeAll()
	if err != nil {
		return nil, err
	}
	fr, ok := res.Funcs[fnName]
	if !ok {
		return nil, fmt.Errorf("analysis: no function %q", fnName)
	}
	return fr, nil
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

func (a *Analyzer) newEdgeID() int {
	a.edgeID++
	return a.edgeID
}

// entryState builds the conservative function-entry assumption: every
// pair of same-record-type pointer parameters may be aliases.
func (a *Analyzer) entryState(f *lang.FuncDecl) *State {
	s := NewState()
	var ptrs []struct {
		name string
		elem string
	}
	for _, prm := range f.Params {
		if elem, ok := lang.IsPointer(prm.Type); ok {
			s.PM.AddHandle(prm.Name)
			ptrs = append(ptrs, struct {
				name string
				elem string
			}{prm.Name, elem})
		}
	}
	for i := range ptrs {
		for j := range ptrs {
			if i == j || ptrs[i].elem != ptrs[j].elem {
				continue
			}
			s.PM.Update(ptrs[i].name, ptrs[j].name, func(e *pathmatrix.Entry) {
				e.Alias = pathmatrix.PossibleAlias
			})
		}
	}
	return s
}

func (a *Analyzer) analyzeFunc(f *lang.FuncDecl) (*FuncResult, error) {
	fr := &FuncResult{
		Name:          f.Name,
		Before:        make(map[lang.Stmt]*State),
		After:         make(map[lang.Stmt]*State),
		LoopInvariant: make(map[lang.Stmt]*State),
		LoopBodyExit:  make(map[lang.Stmt]*State),
		an:            a,
	}
	fr.Entry = a.entryState(f)
	ctx := &funcCtx{an: a, fr: fr, fn: f}
	st := fr.Entry.Clone()
	out, err := ctx.block(f.Body, st)
	if err != nil {
		return nil, err
	}
	if ctx.exit != nil {
		if out != nil {
			out = joinStates(out, ctx.exit)
		} else {
			out = ctx.exit
		}
	}
	if out == nil {
		out = NewState()
	}
	fr.Exit = out.snapshot()
	return fr, nil
}

// funcCtx is the per-function analysis context.
type funcCtx struct {
	an   *Analyzer
	fr   *FuncResult
	fn   *lang.FuncDecl
	exit *State // join of states at return statements
}

// block analyzes a block, returning the fall-through state (nil when the
// block definitely returns). Pointer handles declared in the block are
// removed from the resulting state (scope exit).
func (c *funcCtx) block(b *lang.Block, st *State) (*State, error) {
	if b == nil {
		return st, nil
	}
	var declared []string
	cur := st
	// One snapshot serves as After[s] and Before[next]: nothing runs
	// between the two program points.
	var snap *State
	for _, s := range b.Stmts {
		if cur == nil {
			// Unreachable code after a return: skip (conservatively,
			// nothing to analyze).
			break
		}
		if snap == nil {
			snap = cur.Clone()
		}
		c.fr.Before[s] = snap
		next, err := c.stmt(s, cur)
		if err != nil {
			return nil, err
		}
		if vs, ok := s.(*lang.VarStmt); ok {
			if _, isPtr := lang.IsPointer(vs.DeclType); isPtr {
				declared = append(declared, vs.Name)
			}
		}
		if next != nil {
			snap = next.Clone()
			c.fr.After[s] = snap
		}
		cur = next
	}
	if cur != nil {
		for _, h := range declared {
			cur.PM.RemoveHandle(h)
		}
	}
	return cur, nil
}
