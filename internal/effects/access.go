package effects

import (
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/adds"
)

// AccessKind distinguishes reads from writes.
type AccessKind int

// Access kinds.
const (
	Read AccessKind = iota
	Write
)

// String names the kind.
func (k AccessKind) String() string {
	if k == Write {
		return "W"
	}
	return "R"
}

// Special anchors.
const (
	// AnchorFresh marks accesses to nodes allocated inside the analyzed
	// code; they cannot conflict with pre-existing structure.
	AnchorFresh = "<fresh>"
	// AnchorUnknown marks accesses whose base pointer could not be
	// traced to an anchor; they conflict with everything.
	AnchorUnknown = "<unknown>"
	// AnchorRand is the hidden region every rand() call writes: the one
	// generator state all iterations share. print() has no such region —
	// a parallel run merges its output in iteration order.
	AnchorRand = "<rand>"
)

// The layout of an access word, low bits first: write, pointer field,
// moved, field id, dimension bitset, anchor id. The high three parts
// are the region, so rebasing an access onto a base region and moving a
// region along a dimension are each one OR.
const (
	writeBit = 1 << iota
	ptrBit
	movedBit

	fieldShift, fieldBits = 3, 17
	dimShift, dimBits     = fieldShift + fieldBits, 16
	anchorShift           = dimShift + dimBits
	anchorBits            = 64 - anchorShift

	fieldMask  = (1<<fieldBits - 1) << fieldShift
	dimMask    = (1<<dimBits - 1) << dimShift
	anchorMask = (1<<anchorBits - 1) << anchorShift
)

// Every table starts with the special anchors and the rand() stream's
// field at these ids; id 0 is the empty name of either kind, so no
// access word is zero.
const (
	regionUnknown = (iota + 1) << anchorShift
	regionFresh
	regionRand

	fieldState = 1 << fieldShift
)

var builtin = names{
	anchors: []string{"", AnchorUnknown, AnchorFresh, AnchorRand},
	fields:  []string{"", "state"},
}

// RandDraw is the access a call to rand() contributes, directly or
// through any callee's summary.
var RandDraw = Access{key: regionRand | fieldState | writeBit, tab: &builtin}

// names is an Analyzer's name table: anchors (the program's pointer
// variables) and accessed fields by id, the universe's dimensions in
// name order by bit. A name the word has no room for is left out, and a
// lookup that misses degrades to the conservative answer — the unknown
// anchor, the empty field, no dimension.
type names struct {
	anchors, fields, dims []string
	anchorID, fieldID     map[string]uint64 // already shifted into place
	dimBit                map[string]uint64
}

func newNames(u *adds.Universe) *names {
	n := &names{
		anchors:  slices.Clone(builtin.anchors),
		fields:   slices.Clone(builtin.fields),
		anchorID: map[string]uint64{},
		fieldID:  map[string]uint64{},
		dimBit:   map[string]uint64{},
	}
	for _, t := range u.Types() {
		n.dims = append(n.dims, u.Decl(t).Dims...)
	}
	sort.Strings(n.dims)
	n.dims = slices.Compact(n.dims)
	n.dims = n.dims[:min(len(n.dims), dimBits)]
	for i, d := range n.dims {
		n.dimBit[d] = 1 << (dimShift + i)
	}
	return n
}

// intern gives s the next id of one of the table's two id spaces, if it
// has none and the space has room.
func intern(ids map[string]uint64, list *[]string, s string, shift, width int) {
	if _, ok := ids[s]; !ok && len(*list) < 1<<width {
		ids[s] = uint64(len(*list)) << shift
		*list = append(*list, s)
	}
}

// Access is one field access of a region: where the base pointer may
// point relative to an anchor variable — the anchor's node itself, or
// (moved) any node reachable from it by traversing the region's
// dimensions — and which field is read or written there. Accesses of
// one Analyzer compare with ==.
type Access struct {
	key uint64
	tab *names
}

// Anchor names the variable the region is relative to, or one of the
// special anchors.
func (a Access) Anchor() string { return a.tab.anchors[a.key>>anchorShift] }

// Moved reports whether the region lies beyond the anchor's own node.
func (a Access) Moved() bool { return a.key&movedBit != 0 }

// Field is the accessed field name; "" for pointer-structure mutation
// records (see IsPointer).
func (a Access) Field() string { return a.tab.fields[a.key&fieldMask>>fieldShift] }

// Kind says whether the access reads or writes.
func (a Access) Kind() AccessKind { return AccessKind(a.key & writeBit) }

// IsPointer marks accesses to pointer (shape) fields rather than data
// fields.
func (a Access) IsPointer() bool { return a.key&ptrBit != 0 }

// Region renders the region "node.down*" style: the dimensions in name
// order, ".?*" for a moved region that crossed none the table knows.
func (a Access) Region() string {
	if !a.Moved() {
		return a.Anchor()
	}
	dims := a.key & dimMask >> dimShift
	if dims == 0 {
		return a.Anchor() + ".?*"
	}
	var b strings.Builder
	b.WriteString(a.Anchor())
	for ; dims != 0; dims &= dims - 1 {
		b.WriteByte('.')
		b.WriteString(a.tab.dims[bits.TrailingZeros64(dims)])
	}
	b.WriteByte('*')
	return b.String()
}

// String renders "W node.down*.mass".
func (a Access) String() string {
	s := a.Kind().String() + " " + a.Region() + "." + a.Field()
	if a.IsPointer() {
		s += "!"
	}
	return s
}

// Summary is the effect set of a function or block: the accesses in the
// order they were first found (reports quote the first offender, so the
// order is part of the output), indexed by a set of their words so that
// adding one is O(1).
type Summary struct {
	Accesses []Access
	tab      *names
	// slots is an open-addressed table of the words in Accesses (a power
	// of two long, at most half full; 0 marks an empty slot).
	slots []uint64
}

// slot returns where key is, or would go, in the table.
func (s *Summary) slot(key uint64) int {
	mask := len(s.slots) - 1
	i := int(key*0x9e3779b97f4a7c15>>32) & mask
	for s.slots[i] != 0 && s.slots[i] != key {
		i = (i + 1) & mask
	}
	return i
}

// add inserts an access, deduplicating.
func (s *Summary) add(key uint64) bool {
	if 2*len(s.Accesses) >= len(s.slots) {
		s.slots = make([]uint64, max(16, 2*len(s.slots)))
		for _, a := range s.Accesses {
			s.slots[s.slot(a.key)] = a.key
		}
	}
	i := s.slot(key)
	if s.slots[i] == key {
		return false
	}
	s.slots[i] = key
	s.Accesses = append(s.Accesses, Access{key: key, tab: s.tab})
	return true
}

// Has reports whether the summary contains the access.
func (s *Summary) Has(a Access) bool {
	return len(s.slots) > 0 && s.slots[s.slot(a.key)] == a.key
}

// filter returns the accesses whose flag bits under mask equal want.
func (s *Summary) filter(mask, want uint64) []Access {
	var out []Access
	for _, a := range s.Accesses {
		if a.key&mask == want {
			out = append(out, a)
		}
	}
	return out
}

// Writes returns the write accesses.
func (s *Summary) Writes() []Access { return s.filter(writeBit, writeBit) }

// Reads returns the read accesses.
func (s *Summary) Reads() []Access { return s.filter(writeBit, 0) }

// PointerWrites returns writes to pointer fields (structure mutation).
func (s *Summary) PointerWrites() []Access { return s.filter(writeBit|ptrBit, writeBit|ptrBit) }

// String lists the accesses, sorted, one per line.
func (s *Summary) String() string {
	lines := make([]string, len(s.Accesses))
	for i, a := range s.Accesses {
		lines[i] = a.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
