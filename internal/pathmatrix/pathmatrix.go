// Package pathmatrix implements the path matrix abstraction of Hendren &
// Nicolau, extended per Hummel/Nicolau/Hendren (ICPP 1992) to "general"
// path matrices driven by ADDS declarations.
//
// A path matrix PM is indexed by pointer handles (variables, plus
// primed handles such as p' that denote a variable's value in the
// previous loop iteration). The handles are fixed when the matrix is
// made: the caller numbers them 0 to n-1 and names each one (package
// analysis gives every pointer slot of a function one handle and each
// loop-assigned variable's prime the next), and a live set says which
// are in scope. The entry PM(r, s) records the relationship
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
// A Matrix is its handles' names, a live set and one dense row-major
// []Entry of n² cells; a declaration marks a handle live, a scope exit
// zeroes its row and column and clears its bit, so neither moves a
// cell, and Join and Equal walk the same indices on both operands. An
// Entry is a value holding a Descs slice; a Desc holds a Fields slice.
// Descs and Fields are immutable once built: every Entry method that
// changes the descriptors (AddDesc, the Remove family) leaves the old
// slice untouched and installs a fresh one, and nothing ever writes
// through Fields. That is what makes Matrix.Clone one slice copy, lets a
// clone and its source — or a snapshot and the goroutines reading it —
// share everything below the cell slice, and lets Get hand out entries
// without copying. The rule for callers: an Entry read from a Matrix is
// never written through (no e.Descs[i] = …, no d.Fields[i] = …); change
// it with the Entry methods, or take Entry.Clone first.
package pathmatrix

import (
	"fmt"
	"slices"
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

// ExactIndexedDesc returns an exact edge through one element of a
// pointer-array field.
func ExactIndexedDesc(field, index string, edgeID int) Desc {
	return Desc{Fields: []string{field}, Exact: true, EdgeID: edgeID, Index: index}
}

// PlusDesc returns a ≥1-link path descriptor over the given fields.
func PlusDesc(fields ...string) Desc {
	fs := slices.Clone(fields)
	slices.Sort(fs)
	return Desc{Fields: slices.Compact(fs)}
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
func (d Desc) HasField(f string) bool { return slices.Contains(d.Fields, f) }

// Entry is one cell of the matrix. Copies of an Entry share Descs; the
// methods below replace the slice rather than write into it.
type Entry struct {
	Alias Alias
	Descs []Desc
}

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
	return slices.ContainsFunc(e.Descs, func(x Desc) bool { return sameFields(x, d) })
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

// Matrix is a path matrix over a fixed set of handles, numbered 0 to
// n-1: their names, a live set, and one dense row-major slice of n²
// entries. A dead handle's row and column are zero. The names and the
// live set are never written after they are built (Declare and Drop
// build a new live set), so clones share them; the entries are values
// whose Descs are immutable, so Clone copies the one cell slice and
// nothing under it.
type Matrix struct {
	names []string
	live  []bool
	cells []Entry
}

// New returns a matrix over len(names) handles, none of them live;
// handle h prints as names[h], and so it does in the matrix's clones
// and joins.
func New(names []string) *Matrix {
	n := len(names)
	return &Matrix{names: names, live: make([]bool, n), cells: make([]Entry, n*n)}
}

// Len returns the number of handles, live or not.
func (m *Matrix) Len() int { return len(m.names) }

// Name renders a handle as the matrix prints it.
func (m *Matrix) Name(h int) string { return m.names[h] }

// Live reports whether h is in scope.
func (m *Matrix) Live(h int) bool { return m.live[h] }

// setLive sets h's bit in a copy of the live set, if it changes.
func (m *Matrix) setLive(h int, v bool) {
	if m.live[h] != v {
		live := slices.Clone(m.live)
		live[h] = v
		m.live = live
	}
}

// clear zeroes h's row and column.
func (m *Matrix) clear(h int) {
	n := len(m.names)
	clear(m.cells[h*n : (h+1)*n])
	for k := h; k < len(m.cells); k += n {
		m.cells[k] = Entry{}
	}
}

// Declare makes h live with a definite self-alias and no other
// relationships (a live h loses its old ones, as Kill).
func (m *Matrix) Declare(h int) {
	m.setLive(h, true)
	m.Kill(h)
}

// Drop ends h's scope: its row and column return to zero and it leaves
// the live set.
func (m *Matrix) Drop(h int) {
	m.clear(h)
	m.setLive(h, false)
}

// Kill resets all of a live h's relationships (but keeps it live): used
// when h is reassigned or set to NULL. The self entry returns to
// definite.
func (m *Matrix) Kill(h int) {
	if m.live[h] {
		m.clear(h)
		m.cells[h*len(m.names)+h] = Entry{Alias: DefiniteAlias}
	}
}

// Get returns the entry from r to s (the zero entry if either is dead).
// The entry's Descs are shared with the matrix: the Entry methods never
// write through them, and neither may the caller.
func (m *Matrix) Get(r, s int) Entry { return m.cells[r*len(m.names)+s] }

// cell returns the address of the entry from r to s, panicking on a
// dead handle.
func (m *Matrix) cell(r, s int) *Entry {
	if !m.live[r] || !m.live[s] {
		panic(fmt.Sprintf("pathmatrix: Set: %q or %q is not live", m.names[r], m.names[s]))
	}
	return &m.cells[r*len(m.names)+s]
}

// Set stores the entry from r to s. Both handles must be live.
func (m *Matrix) Set(r, s int, e Entry) { *m.cell(r, s) = e }

// Update applies fn to the entry from r to s, in place.
func (m *Matrix) Update(r, s int, fn func(*Entry)) { fn(m.cell(r, s)) }

// UpdateAll applies fn in place to every entry between live handles,
// row by row. fn sees the handle pair the entry relates.
func (m *Matrix) UpdateAll(fn func(r, s int, e *Entry)) {
	n := len(m.names)
	for r := 0; r < n; r++ {
		if !m.live[r] {
			continue
		}
		for s := 0; s < n; s++ {
			if m.live[s] {
				fn(r, s, &m.cells[r*n+s])
			}
		}
	}
}

// Clone copies the matrix: one struct, one cell slice.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{names: m.names, live: m.live, cells: slices.Clone(m.cells)}
}

// sameLive reports whether a and b have the same live handles,
// panicking unless they number the same handles.
func sameLive(a, b *Matrix) bool {
	if len(a.names) != len(b.names) {
		panic(fmt.Sprintf("pathmatrix: %d handles against %d", len(a.names), len(b.names)))
	}
	for h, live := range a.live {
		if b.live[h] != live {
			return false
		}
	}
	return true
}

// Join computes the least upper bound of two matrices over the same
// handles, walking the same indices on both. A handle is live in the
// join when it is live on either side. An entry between handles live on
// both sides is JoinEntry of the two; an entry involving a handle live
// on one side only is copied from that side, not weakened. For package
// analysis, whose handles are declaration slots, that is safe: every
// block drops its declarations before control reaches a join, so two
// sides differ only at a function's exit, where the variables live on
// one return path only are out of scope. The other case is a prime
// that a nested loop over the same variable dropped: the outer loop's
// head then keeps the prime's entries from the loop's entry. The join
// prints as a does.
func Join(a, b *Matrix) *Matrix {
	n := len(a.names)
	out := &Matrix{names: a.names, live: a.live, cells: make([]Entry, n*n)}
	if !sameLive(a, b) {
		out.live = make([]bool, n)
		for h := range out.live {
			out.live[h] = a.live[h] || b.live[h]
		}
	}
	for r := 0; r < n; r++ {
		if !out.live[r] {
			continue
		}
		for s := 0; s < n; s++ {
			k := r*n + s
			inA := a.live[r] && a.live[s]
			inB := b.live[r] && b.live[s]
			switch {
			case inA && inB:
				out.cells[k] = JoinEntry(a.cells[k], b.cells[k])
			case inA:
				out.cells[k] = a.cells[k]
			case inB:
				out.cells[k] = b.cells[k]
			}
		}
	}
	return out
}

// Equal reports whether the two matrices have the same live handles and
// identical entries (fixed-point test).
func Equal(a, b *Matrix) bool {
	if !sameLive(a, b) {
		return false
	}
	for k := range a.cells {
		if !EqualEntry(a.cells[k], b.cells[k]) {
			return false
		}
	}
	return true
}

// CopyRelationships makes dst's relationships identical to src's
// (including the mutual definite alias), as required by "dst = src".
// dst's previous relationships must already be killed.
func (m *Matrix) CopyRelationships(dst, src int) {
	m.cell(dst, src) // both handles must be live
	n := len(m.names)
	for h := 0; h < n; h++ {
		if h == dst || h == src {
			continue
		}
		m.cells[dst*n+h] = m.cells[src*n+h]
		m.cells[h*n+dst] = m.cells[h*n+src]
	}
	m.cells[dst*n+src] = Entry{Alias: DefiniteAlias}
	m.cells[src*n+dst] = Entry{Alias: DefiniteAlias}
	m.cells[dst*n+dst] = Entry{Alias: DefiniteAlias}
}

// Aliases enumerates the live handles h with a definite or possible
// alias to r (excluding r itself), in handle order.
func (m *Matrix) Aliases(r int, includePossible bool) []int {
	var out []int
	n := len(m.names)
	for h := 0; h < n; h++ {
		if h == r || !m.live[h] {
			continue
		}
		a := m.cells[r*n+h].Alias
		if a == DefiniteAlias || (includePossible && a == PossibleAlias) {
			out = append(out, h)
		}
	}
	return out
}

// String renders the live handles in handle order, as the paper prints
// its matrices:
//
//	        | head    | p       | p'
//	head    | =       | next+   |
//	p       |         | =       |
//	p'      |         | next    | =
func (m *Matrix) String() string {
	var hs []int
	for h, live := range m.live {
		if live {
			hs = append(hs, h)
		}
	}
	rows := [][]string{{""}}
	for _, r := range hs {
		rows[0] = append(rows[0], m.names[r])
		row := []string{m.names[r]}
		for _, s := range hs {
			row = append(row, m.Get(r, s).String())
		}
		rows = append(rows, row)
	}
	width := make([]int, len(hs)+1)
	for _, row := range rows {
		for j, c := range row {
			width[j] = max(width[j], len(c))
		}
	}
	var b strings.Builder
	for _, row := range rows {
		for j, c := range row {
			if j > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(c + strings.Repeat(" ", width[j]-len(c)))
		}
		b.WriteString("\n")
	}
	return b.String()
}
