// Package pathmatrix implements the path matrix abstraction of Hendren &
// Nicolau, extended per Hummel/Nicolau/Hendren (ICPP 1992) to "general"
// path matrices driven by ADDS declarations.
//
// A path matrix PM is indexed by the live pointer handles (variables,
// plus primed handles such as p' that denote a variable's value in the
// previous loop iteration). The entry PM(r, s) records the relationship
// from the node pointed to by r to the node pointed to by s:
//
//   - an alias component: NoAlias (the exploitable guarantee: r and s
//     definitely point to different nodes), PossibleAlias (printed "=?"),
//     or DefiniteAlias (printed "=");
//   - a set of definite path descriptors: Exact descriptors record a
//     single currently-existing edge ("r->f == s right now"; printed
//     "f"), and Plus descriptors record a path of one or more links
//     through a set of fields (printed "f+").
//
// Exact descriptors carry an edge identity so that abstraction
// violations (package analysis) can be cleared when the specific edge
// that witnessed them is destroyed, mirroring the paper's "an entry is
// added to the path matrix encoding the violation ... later the entry is
// removed" (§3.3.1).
//
// The package is deliberately declaration-agnostic: it stores and joins
// relationships. Interpreting fields against ADDS dimensions and
// directions is the analysis's job.
//
// # Representation and the immutability contract
//
// A Matrix is a handle slice plus one dense row-major []Entry; an Entry
// is a value holding a Descs slice; a Desc holds a Fields slice. Descs
// and Fields are immutable once built: every Entry method that changes
// the descriptors (AddDesc, the Remove family) leaves the old slice
// untouched and installs a fresh one, and nothing ever writes through
// Fields. That is what makes Matrix.Clone one slice copy, lets a clone
// and its source — or a snapshot and the goroutines reading it — share
// everything below the cell slice, and lets Get hand out entries
// without copying. The rule for callers: an Entry read from a Matrix is
// never written through (no e.Descs[i] = …, no d.Fields[i] = …); change
// it with the Entry methods, or take Entry.Clone first.
package pathmatrix

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Alias is the alias component of an entry.
type Alias int

// Alias values. The zero value is NoAlias: an absent entry guarantees
// the two handles are not aliases (the paper's "empty entry ... does
// guarantee that the two pointers are not aliases").
const (
	NoAlias Alias = iota
	PossibleAlias
	DefiniteAlias
)

// String renders the paper's notation.
func (a Alias) String() string {
	switch a {
	case DefiniteAlias:
		return "="
	case PossibleAlias:
		return "=?"
	default:
		return ""
	}
}

// JoinAlias is the least upper bound of two alias values: facts that
// differ across paths weaken to PossibleAlias.
func JoinAlias(a, b Alias) Alias {
	if a == b {
		return a
	}
	return PossibleAlias
}

// Desc is one definite path descriptor. Its kind is one of:
//
//   - exact (Exact=true): a single, currently-existing edge via
//     Fields[0] (printed "f");
//   - plus (Exact=false, Star=false): a definite path of one or more
//     links over the field set (printed "f+");
//   - star (Star=true): a definite path of zero or more links (printed
//     "f*"). Zero links means the endpoints coincide, so a star entry
//     carries no non-alias guarantee by itself; it exists so that the
//     loop-head join of "=" (zero steps) with "f+" (≥1 steps) keeps the
//     path information that lets the next load re-derive "f+".
type Desc struct {
	// Fields is the sorted set of field names the path uses. It is
	// shared between descriptors and never modified.
	Fields []string
	// Exact marks a single, currently-existing edge via Fields[0].
	// len(Fields) == 1 when Exact.
	Exact bool
	// Star marks a ≥0-length path.
	Star bool
	// EdgeID identifies an exact edge for join bookkeeping; 0 otherwise.
	EdgeID int
	// Index is the source text of the index expression for exact edges
	// through pointer-array fields ("q" in p->subtrees[q]); "" for
	// plain pointer fields. The sentinel "?" marks an index the
	// analysis cannot compare.
	Index string
}

// ExactDesc returns an exact single-edge descriptor.
func ExactDesc(field string, edgeID int) Desc {
	return Desc{Fields: []string{field}, Exact: true, EdgeID: edgeID}
}

// ExactIndexedDesc returns an exact edge through one element of a
// pointer-array field.
func ExactIndexedDesc(field, index string, edgeID int) Desc {
	return Desc{Fields: []string{field}, Exact: true, EdgeID: edgeID, Index: index}
}

// PlusDesc returns a ≥1-link path descriptor over the given fields.
func PlusDesc(fields ...string) Desc {
	fs := append([]string(nil), fields...)
	sort.Strings(fs)
	fs = dedupSorted(fs)
	return Desc{Fields: fs}
}

// StarDesc returns a ≥0-link path descriptor over the given fields.
func StarDesc(fields ...string) Desc {
	d := PlusDesc(fields...)
	d.Star = true
	return d
}

func dedupSorted(fs []string) []string {
	out := fs[:0]
	for i, f := range fs {
		if i == 0 || f != fs[i-1] {
			out = append(out, f)
		}
	}
	return out
}

// String renders "f" (or "f[q]") for exact edges, "f+" / "(f.g)+" for
// ≥1 paths, and "f*" / "(f.g)*" for ≥0 paths.
func (d Desc) String() string {
	if d.Exact {
		if d.Index != "" {
			return d.Fields[0] + "[" + d.Index + "]"
		}
		return d.Fields[0]
	}
	suffix := "+"
	if d.Star {
		suffix = "*"
	}
	if len(d.Fields) == 1 {
		return d.Fields[0] + suffix
	}
	return "(" + strings.Join(d.Fields, ".") + ")" + suffix
}

// sameFields reports whether the two descriptors use the same field set.
func sameFields(a, b Desc) bool {
	if len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i] != b.Fields[i] {
			return false
		}
	}
	return true
}

// HasField reports whether the descriptor's field set contains f.
func (d Desc) HasField(f string) bool {
	for _, x := range d.Fields {
		if x == f {
			return true
		}
	}
	return false
}

// Entry is one cell of the matrix. Copies of an Entry share Descs; the
// methods below replace the slice rather than write into it.
type Entry struct {
	Alias Alias
	Descs []Desc
}

// IsZero reports whether the entry carries no information beyond the
// non-alias guarantee.
func (e Entry) IsZero() bool { return e.Alias == NoAlias && len(e.Descs) == 0 }

// HasExact returns the edge ID of an exact descriptor via the plain
// (non-array) field f, if any.
func (e Entry) HasExact(f string) (int, bool) {
	for _, d := range e.Descs {
		if d.Exact && d.Fields[0] == f && d.Index == "" {
			return d.EdgeID, true
		}
	}
	return 0, false
}

// HasPath reports whether the entry records any definite path (exact or
// plus).
func (e Entry) HasPath() bool { return len(e.Descs) > 0 }

// AddDesc adds a descriptor, deduplicating by field set and kind. An
// exact descriptor subsumes nothing and is never subsumed: both an exact
// edge and a plus path over the same field may coexist (q->f == s and
// also a longer f-path from q to s cannot both hold for trees, but can
// for general graphs until validated).
func (e *Entry) AddDesc(d Desc) {
	if i := e.find(d); i >= 0 && (!d.Exact || e.Descs[i].EdgeID == d.EdgeID) {
		return // already recorded
	}
	ds := make([]Desc, len(e.Descs), len(e.Descs)+1)
	copy(ds, e.Descs)
	e.Descs = ds
	e.addOwned(d)
}

// find returns the index of the descriptor of d's kind, index and field
// set, or -1.
func (e *Entry) find(d Desc) int {
	for i, x := range e.Descs {
		if x.Exact == d.Exact && x.Star == d.Star && x.Index == d.Index && sameFields(x, d) {
			return i
		}
	}
	return -1
}

// addOwned is AddDesc for an entry whose Descs slice no one else can
// see (a fresh copy, or one under construction), so it may be written
// in place.
func (e *Entry) addOwned(d Desc) {
	if i := e.find(d); i >= 0 {
		if d.Exact {
			e.Descs[i] = d
		}
		return
	}
	e.Descs = append(e.Descs, d)
	e.dropSubsumedStars()
	e.normalize()
}

// normalize sorts the (owned) descriptors: exact first, star last, then
// by field set, index and edge. Entries hold a handful of descriptors,
// so an insertion sort beats sort.Slice and allocates nothing.
func (e *Entry) normalize() {
	ds := e.Descs
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && lessDesc(ds[j], ds[j-1]); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func fieldKey(d Desc) string {
	if len(d.Fields) == 1 {
		return d.Fields[0]
	}
	return strings.Join(d.Fields, ".")
}

func lessDesc(a, b Desc) bool {
	if a.Exact != b.Exact {
		return a.Exact
	}
	if a.Star != b.Star {
		return b.Star
	}
	if !sameFields(a, b) {
		if as, bs := fieldKey(a), fieldKey(b); as != bs {
			return as < bs
		}
	}
	if a.Index != b.Index {
		return a.Index < b.Index
	}
	return a.EdgeID < b.EdgeID
}

// remove deletes every descriptor drop selects, returning the edge IDs
// of the exact ones among them. The survivors go to a fresh slice; an
// entry nothing is removed from keeps its slice.
func (e *Entry) remove(drop func(Desc) bool) []int {
	first := slices.IndexFunc(e.Descs, drop)
	if first < 0 {
		return nil
	}
	var removed []int
	keep := append([]Desc(nil), e.Descs[:first]...)
	for _, d := range e.Descs[first:] {
		if !drop(d) {
			keep = append(keep, d)
		} else if d.Exact {
			removed = append(removed, d.EdgeID)
		}
	}
	e.Descs = keep
	return removed
}

// RemoveExact deletes exact descriptors via field f (any index),
// returning the IDs of the removed edges.
func (e *Entry) RemoveExact(f string) []int {
	return e.remove(func(d Desc) bool { return d.Exact && d.Fields[0] == f })
}

// RemovePathsUsing deletes every descriptor whose field set contains f
// (both exact and plus), returning removed exact edge IDs. Used by the
// store rule to invalidate paths that may run through an overwritten
// edge.
func (e *Entry) RemovePathsUsing(f string) []int {
	return e.remove(func(d Desc) bool { return d.HasField(f) })
}

// RemoveExactsIndexedBy deletes exact descriptors whose index text
// equals idx (used when the index variable is reassigned and the
// recorded element identity goes stale).
func (e *Entry) RemoveExactsIndexedBy(idx string) {
	e.remove(func(d Desc) bool { return d.Exact && d.Index == idx })
}

// RemoveNonExactUsing deletes plus/star descriptors whose field set
// contains f, keeping exact edges (which are known to emanate from a
// different node than the one being stored through).
func (e *Entry) RemoveNonExactUsing(f string) {
	e.remove(func(d Desc) bool { return !d.Exact && d.HasField(f) })
}

// Clone returns an entry whose Descs slice is private to the caller.
// The descriptors' Fields stay shared: they are immutable.
func (e Entry) Clone() Entry {
	e.Descs = append([]Desc(nil), e.Descs...)
	return e
}

// JoinEntry computes the least upper bound of two entries: alias
// components weaken via JoinAlias; definite paths survive only if both
// sides record them (or one side is a definite alias, which acts as a
// zero-length path and joins with any path into a star). Exact
// descriptors with the same edge identity stay exact; exact edges
// established separately on each side weaken to a plus path.
func JoinEntry(a, b Entry) Entry {
	// Plus and star descriptors built here share the operand's Fields
	// (already sorted, and immutable) instead of copying them.
	out := Entry{Alias: JoinAlias(a.Alias, b.Alias)}
	for _, da := range a.Descs {
		for _, db := range b.Descs {
			if !sameFields(da, db) {
				continue
			}
			switch {
			case da.Star || db.Star:
				out.addOwned(Desc{Fields: da.Fields, Star: true})
			case da.Exact && db.Exact && da.EdgeID == db.EdgeID && da.Index == db.Index:
				out.addOwned(da)
			case da.Exact == db.Exact && !da.Exact:
				out.addOwned(da)
			default:
				// exact vs plus, or exact vs different exact: weaken.
				out.addOwned(Desc{Fields: da.Fields})
			}
		}
	}
	// A definite alias is a zero-length path: joined with the other
	// side's paths it yields ≥0 paths, preserving reachability facts
	// across loop-head joins. Fields already covered by the pairwise
	// rules are skipped so that join stays idempotent.
	if a.Alias == DefiniteAlias {
		for _, db := range b.Descs {
			if !a.hasFields(db) {
				out.addOwned(Desc{Fields: db.Fields, Star: true})
			}
		}
	}
	if b.Alias == DefiniteAlias {
		for _, da := range a.Descs {
			if !b.hasFields(da) {
				out.addOwned(Desc{Fields: da.Fields, Star: true})
			}
		}
	}
	// Star subsumption: drop a star when a plus over the same fields is
	// present (≥1 implies ≥0) to keep entries small and displays clean.
	out.dropSubsumedStars()
	return out
}

func (e Entry) hasFields(d Desc) bool {
	for _, x := range e.Descs {
		if sameFields(x, d) {
			return true
		}
	}
	return false
}

// dropSubsumedStars filters the (owned) descriptors in place.
func (e *Entry) dropSubsumedStars() {
	subsumed := func(d Desc) bool {
		for _, x := range e.Descs {
			if !x.Star && !x.Exact && sameFields(x, d) {
				return true
			}
		}
		return false
	}
	keep := e.Descs[:0]
	for _, d := range e.Descs {
		if d.Star && subsumed(d) {
			continue
		}
		keep = append(keep, d)
	}
	e.Descs = keep
	if len(e.Descs) == 0 {
		e.Descs = nil
	}
}

// EqualEntry reports structural equality (used for fixed-point checks).
func EqualEntry(a, b Entry) bool {
	if a.Alias != b.Alias || len(a.Descs) != len(b.Descs) {
		return false
	}
	for i := range a.Descs {
		da, db := a.Descs[i], b.Descs[i]
		if da.Exact != db.Exact || da.Star != db.Star || da.EdgeID != db.EdgeID ||
			da.Index != db.Index || !sameFields(da, db) {
			return false
		}
	}
	return true
}

// String renders the entry in the paper's notation: "=", "=?", "next",
// "next+", or combinations separated by commas.
func (e Entry) String() string {
	var parts []string
	if s := e.Alias.String(); s != "" {
		parts = append(parts, s)
	}
	for _, d := range e.Descs {
		parts = append(parts, d.String())
	}
	return strings.Join(parts, ",")
}

// ---------------------------------------------------------------------------
// Matrix

// Matrix is a path matrix over a set of handles: the handle names in
// insertion order plus one dense row-major slice of len(handles)²
// entries. The handle slice is never written after it is built (adding
// or removing a handle builds a new one), so clones share it; the
// entries are values whose Descs are immutable, so Clone copies the one
// cell slice and nothing under it.
type Matrix struct {
	handles []string
	cells   []Entry
}

// New returns a matrix over the given handles. Diagonal entries are
// DefiniteAlias (every handle aliases itself); all others are zero
// (NoAlias): callers establish initial relationships explicitly.
func New(handles ...string) *Matrix {
	m := &Matrix{}
	for _, h := range handles {
		m.AddHandle(h)
	}
	return m
}

// Handles returns the handle names in insertion order. The slice is the
// matrix's own and must not be modified; it stays valid (and unchanged)
// if handles are later added or removed.
func (m *Matrix) Handles() []string { return m.handles }

// index returns h's row/column, or -1. Matrices hold 5–15 handles, so a
// scan beats a map — and leaves nothing to copy.
func (m *Matrix) index(h string) int {
	for i, x := range m.handles {
		if x == h {
			return i
		}
	}
	return -1
}

// HasHandle reports whether h is tracked.
func (m *Matrix) HasHandle(h string) bool { return m.index(h) >= 0 }

// AddHandle introduces a handle with a definite self-alias and no other
// relationships. Adding an existing handle is a no-op.
func (m *Matrix) AddHandle(h string) {
	if m.index(h) >= 0 {
		return
	}
	n := len(m.handles)
	handles := make([]string, n+1)
	copy(handles, m.handles)
	handles[n] = h
	cells := make([]Entry, (n+1)*(n+1))
	for i := 0; i < n; i++ {
		copy(cells[i*(n+1):], m.cells[i*n:(i+1)*n])
	}
	cells[n*(n+1)+n] = Entry{Alias: DefiniteAlias}
	m.handles, m.cells = handles, cells
}

// RemoveHandle deletes a handle and all its relationships.
func (m *Matrix) RemoveHandle(h string) {
	i := m.index(h)
	if i < 0 {
		return
	}
	n := len(m.handles)
	handles := make([]string, 0, n-1)
	handles = append(append(handles, m.handles[:i]...), m.handles[i+1:]...)
	cells := make([]Entry, 0, (n-1)*(n-1))
	for r := 0; r < n; r++ {
		if r == i {
			continue
		}
		row := m.cells[r*n : (r+1)*n]
		cells = append(append(cells, row[:i]...), row[i+1:]...)
	}
	m.handles, m.cells = handles, cells
}

// Kill resets all of h's relationships (but keeps the handle): used when
// h is reassigned or set to NULL. The self entry returns to definite.
func (m *Matrix) Kill(h string) {
	i := m.index(h)
	if i < 0 {
		return
	}
	n := len(m.handles)
	for k := 0; k < n; k++ {
		m.cells[i*n+k] = Entry{}
		m.cells[k*n+i] = Entry{}
	}
	m.cells[i*n+i] = Entry{Alias: DefiniteAlias}
}

// Get returns the entry from r to s (zero entry if either is untracked).
// The entry's Descs are shared with the matrix: the Entry methods never
// write through them, and neither may the caller.
func (m *Matrix) Get(r, s string) Entry {
	i, j := m.index(r), m.index(s)
	if i < 0 || j < 0 {
		return Entry{}
	}
	return m.cells[i*len(m.handles)+j]
}

// cell returns the address of the entry from r to s, panicking on an
// untracked handle.
func (m *Matrix) cell(r, s string) *Entry {
	i, j := m.index(r), m.index(s)
	if i < 0 {
		panic(fmt.Sprintf("pathmatrix: Set: unknown handle %q", r))
	}
	if j < 0 {
		panic(fmt.Sprintf("pathmatrix: Set: unknown handle %q", s))
	}
	return &m.cells[i*len(m.handles)+j]
}

// Set stores the entry from r to s. Both handles must be tracked.
func (m *Matrix) Set(r, s string, e Entry) { *m.cell(r, s) = e }

// Update applies fn to the entry from r to s, in place.
func (m *Matrix) Update(r, s string, fn func(*Entry)) { fn(m.cell(r, s)) }

// UpdateAll applies fn to every entry in place, row by row. fn sees the
// handle pair the entry relates.
func (m *Matrix) UpdateAll(fn func(r, s string, e *Entry)) {
	n := len(m.handles)
	for i, r := range m.handles {
		for j, s := range m.handles {
			fn(r, s, &m.cells[i*n+j])
		}
	}
}

// Clone copies the matrix: one struct, one cell slice.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{handles: m.handles, cells: append([]Entry(nil), m.cells...)}
}

// Join computes the least upper bound of two matrices over the union of
// their handle sets. A handle present on only one side contributes its
// entries weakened against the zero entry (alias facts weaken to
// PossibleAlias unless both sides agree).
func Join(a, b *Matrix) *Matrix {
	// The union lists a's handles, then b's newcomers, so an output
	// index below na is also a's index; ib maps it to b's (-1: absent).
	handles := a.handles[:len(a.handles):len(a.handles)]
	for _, h := range b.handles {
		if a.index(h) < 0 {
			handles = append(handles, h)
		}
	}
	n, na, nb := len(handles), len(a.handles), len(b.handles)
	ib := make([]int, n)
	for k, h := range handles {
		ib[k] = b.index(h)
	}
	out := &Matrix{handles: handles, cells: make([]Entry, n*n)}
	for r := 0; r < n; r++ {
		for s := 0; s < n; s++ {
			inA := r < na && s < na
			inB := ib[r] >= 0 && ib[s] >= 0
			var e Entry
			switch {
			case inA && inB:
				e = JoinEntry(a.cells[r*na+s], b.cells[ib[r]*nb+ib[s]])
			case inA:
				e = a.cells[r*na+s]
			case inB:
				e = b.cells[ib[r]*nb+ib[s]]
			}
			out.cells[r*n+s] = e
		}
	}
	return out
}

// Equal reports whether the two matrices have identical handle sets and
// entries (fixed-point test).
func Equal(a, b *Matrix) bool {
	n := len(a.handles)
	if n != len(b.handles) {
		return false
	}
	ib := make([]int, n)
	for k, h := range a.handles {
		if ib[k] = b.index(h); ib[k] < 0 {
			return false
		}
	}
	for r := 0; r < n; r++ {
		for s := 0; s < n; s++ {
			if !EqualEntry(a.cells[r*n+s], b.cells[ib[r]*n+ib[s]]) {
				return false
			}
		}
	}
	return true
}

// CopyRelationships makes dst's relationships identical to src's
// (including the mutual definite alias), as required by "dst = src".
// dst's previous relationships must already be killed.
func (m *Matrix) CopyRelationships(dst, src string) {
	m.cell(dst, src) // both handles must be tracked
	d, s, n := m.index(dst), m.index(src), len(m.handles)
	for h := 0; h < n; h++ {
		if h == d || h == s {
			continue
		}
		m.cells[d*n+h] = m.cells[s*n+h]
		m.cells[h*n+d] = m.cells[h*n+s]
	}
	m.cells[d*n+s] = Entry{Alias: DefiniteAlias}
	m.cells[s*n+d] = Entry{Alias: DefiniteAlias}
	m.cells[d*n+d] = Entry{Alias: DefiniteAlias}
}

// Aliases enumerates handles h with a definite or possible alias to r
// (excluding r itself).
func (m *Matrix) Aliases(r string, includePossible bool) []string {
	i := m.index(r)
	if i < 0 {
		return nil
	}
	var out []string
	n := len(m.handles)
	for j, h := range m.handles {
		if j == i {
			continue
		}
		a := m.cells[i*n+j].Alias
		if a == DefiniteAlias || (includePossible && a == PossibleAlias) {
			out = append(out, h)
		}
	}
	return out
}

// String renders the matrix as the paper prints them:
//
//	        | head    | p       | p'
//	head    | =       | next+   |
//	p       |         | =       |
//	p'      |         | next    | =
func (m *Matrix) String() string {
	n := len(m.handles)
	cols := make([]int, n+1)
	for j, h := range m.handles {
		if len(h) > cols[0] {
			cols[0] = len(h)
		}
		cols[j+1] = len(h)
	}
	grid := make([]string, len(m.cells))
	for k, e := range m.cells {
		grid[k] = e.String()
		if j := k%n + 1; len(grid[k]) > cols[j] {
			cols[j] = len(grid[k])
		}
	}
	var b strings.Builder
	pad := func(s string, w int) {
		b.WriteString(s)
		b.WriteString(strings.Repeat(" ", w-len(s)))
	}
	pad("", cols[0])
	for j, s := range m.handles {
		b.WriteString(" | ")
		pad(s, cols[j+1])
	}
	b.WriteString("\n")
	for i, r := range m.handles {
		pad(r, cols[0])
		for j := range m.handles {
			b.WriteString(" | ")
			pad(grid[i*n+j], cols[j+1])
		}
		b.WriteString("\n")
	}
	return b.String()
}
