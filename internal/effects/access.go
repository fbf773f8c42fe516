package effects

import (
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/lang"
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
// moved, field id, dimension bitset, anchor slot. The high three parts
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

// The anchor and field parts of a word start with the special anchors
// and the rand() stream's field; a variable's part is its slot in the
// summarised function, a field's its id in the program's identifier
// table, offset past them. Part 0 is the empty name of either kind, so
// no access word is zero.
const (
	regionUnknown = (iota + 1) << anchorShift
	regionFresh
	regionRand

	anchorBase = regionRand>>anchorShift + 1
	fieldState = 1 << fieldShift
	fieldBase  = 2
)

var (
	builtinAnchors = [anchorBase]string{"", AnchorUnknown, AnchorFresh, AnchorRand}
	builtinFields  = [fieldBase]string{"", "state"}
)

// RandDraw is the access a call to rand() contributes, directly or
// through any callee's summary.
var RandDraw = Access{key: regionRand | fieldState | writeBit, in: &scope{names: &names{}}}

// names renders an Analyzer's words: the program's identifier table for
// names, the universe's dimensions in name order by bit. A slot or id
// the word has no room for degrades to the conservative answer — the
// unknown anchor, the empty field; a dimension, to none.
type names struct {
	ids    *lang.Names
	dims   []string
	dimBit map[string]uint64
}

func newNames(prog *lang.Program) *names {
	n := &names{ids: prog.Names(), dimBit: map[string]uint64{}}
	u := prog.Universe
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

// scope renders the words of one summary: its program's names, and the
// summarised function's slots (Vars), which name its anchors.
type scope struct {
	*names
	vars []lang.ID
}

// anchor returns the region word of slot's own node.
func anchor(slot int) uint64 {
	if a := uint64(slot) + anchorBase; a < 1<<anchorBits {
		return a << anchorShift
	}
	return regionUnknown
}

// field returns the field part of a word.
func field(id lang.ID) uint64 {
	if f := uint64(id) + fieldBase; f < 1<<fieldBits {
		return f << fieldShift
	}
	return 0
}

// Access is one field access of a region: where the base pointer may
// point relative to an anchor variable — the anchor's node itself, or
// (moved) any node reachable from it by traversing the region's
// dimensions — and which field is read or written there. Accesses of
// one Summary compare with ==.
type Access struct {
	key uint64
	in  *scope // renders the word
}

// Slot returns the slot, in the summarised function, of the variable
// the region is relative to; it is negative for a special anchor.
func (a Access) Slot() int { return int(a.key>>anchorShift) - anchorBase }

// Fresh reports whether the region is a node allocated inside the
// analyzed code.
func (a Access) Fresh() bool { return a.key&anchorMask == regionFresh }

// Anchor names the variable the region is relative to, through its
// function's Vars (a slot past them is the unknown anchor), or one of
// the special anchors.
func (a Access) Anchor() string {
	if slot := a.Slot(); slot < 0 {
		return builtinAnchors[slot+anchorBase]
	} else if slot < len(a.in.vars) {
		return a.in.ids.Text(a.in.vars[slot])
	}
	return AnchorUnknown
}

// Moved reports whether the region lies beyond the anchor's own node.
func (a Access) Moved() bool { return a.key&movedBit != 0 }

// Field is the accessed field name; "" for pointer-structure mutation
// records (see IsPointer).
func (a Access) Field() string {
	k := a.key & fieldMask >> fieldShift
	if k < fieldBase {
		return builtinFields[k]
	}
	return a.in.ids.Text(lang.ID(k - fieldBase))
}

// Kind says whether the access reads or writes.
func (a Access) Kind() AccessKind {
	if a.key&writeBit != 0 {
		return Write
	}
	return Read
}

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
		b.WriteString(a.in.dims[bits.TrailingZeros64(dims)])
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
	scope
	// set is an open-addressed table of the words in Accesses (a power
	// of two long, at most half full; 0 marks an empty cell).
	set []uint64
}

// cell returns where key is, or would go, in the table.
func (s *Summary) cell(key uint64) int {
	mask := len(s.set) - 1
	i := int(key*0x9e3779b97f4a7c15>>32) & mask
	for s.set[i] != 0 && s.set[i] != key {
		i = (i + 1) & mask
	}
	return i
}

// add inserts an access, deduplicating.
func (s *Summary) add(key uint64) bool {
	if 2*len(s.Accesses) >= len(s.set) {
		s.set = make([]uint64, max(16, 2*len(s.set)))
		for _, a := range s.Accesses {
			s.set[s.cell(a.key)] = a.key
		}
	}
	i := s.cell(key)
	if s.set[i] == key {
		return false
	}
	s.set[i] = key
	s.Accesses = append(s.Accesses, Access{key: key, in: &s.scope})
	return true
}

// Has reports whether the summary contains the access.
func (s *Summary) Has(a Access) bool {
	return len(s.set) > 0 && s.set[s.cell(a.key)] == a.key
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
