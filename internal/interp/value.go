// Package interp executes PSL programs. It provides the two execution
// modes the reproduction needs:
//
//   - Real mode: the program runs as written. A forall's iterations go
//     to the scheduler package parexec installs, which is where
//     transformed programs get genuine parallelism on the host; with no
//     scheduler they run in place, in index order.
//
//   - Simulated mode: execution is sequential but every operation is
//     charged cycles from a cost model; a forall charges the maximum
//     over its iterations (assigned to PEs by static cyclic scheduling)
//     plus a barrier cost. This is the deterministic "Sequent" machine
//     model used to regenerate the paper's §4.4 tables (see package
//     sequent).
//
// Speculative traversability (§3.2) is honoured: loading a pointer
// field through NULL yields NULL instead of faulting, which the
// transformed code's unguarded advances (FOR1/FOR2 in §4.3.3) rely on.
// Data-field access through NULL remains an error.
package interp

import (
	"fmt"
	"math"

	"repro/internal/adds"
	"repro/internal/lang"
)

// Kind tags a runtime value.
type Kind int

// Value kinds.
const (
	KindInt Kind = iota
	KindReal
	KindBool
	KindPtr
)

var kindNames = [...]string{KindInt: "int", KindReal: "real", KindBool: "bool", KindPtr: "ptr"}

// String names the kind ("int", "real", "bool", "ptr").
func (k Kind) String() string {
	if uint(k) < uint(len(kindNames)) {
		return kindNames[k]
	}
	return "?"
}

// Node is a heap record instance. Fields are stored by position, in
// the order of the record's ADDS declaration: words[i] is decl.Data[i]
// and parr[i] is decl.Pointers[i]. Every engine indexes the slices with
// the offset lang.Check recorded on the access (FieldExpr.Off; the
// walker checking it is in range, the bytecode in its instructions);
// only the Field* inspectors start from a field name and find its
// position in the declaration. The record's type name is decl.Name.
// A data field is one word at its declared type: two's complement for
// int, math.Float64bits for real, 0 or 1 for bool, so the zero word is
// every field's zero value and the words hold no pointer for the
// collector to scan. Stores write one word or one pointer slot in place
// and the slices never grow, which keeps concurrent access to different
// fields of one node race-free — the parallel executor relies on it
// (the dependence test guarantees no two iterations touch the same
// field of the same node).
type Node struct {
	decl *adds.Decl
	// words holds the scalar fields, indexed like decl.Data.
	words []uint64
	// parr holds the pointer fields, indexed like decl.Pointers; each
	// entry has the declared Count length (1 for plain pointers), and
	// all of them are cut from one backing array.
	parr [][]*Node
	// id is the node's allocation number, for printing and shape checks.
	id int64
}

// boolWord is b as a data-field word.
func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// word encodes a scalar v as a data-field word of its own kind.
func (v Value) word() uint64 {
	switch v.Kind {
	case KindReal:
		return math.Float64bits(v.F)
	case KindBool:
		return boolWord(v.B)
	}
	return uint64(v.I)
}

// Value is a PSL runtime value.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	B    bool
	N    *Node
}

// Convenience constructors.
func IntVal(i int64) Value    { return Value{Kind: KindInt, I: i} }
func RealVal(f float64) Value { return Value{Kind: KindReal, F: f} }
func BoolVal(b bool) Value    { return Value{Kind: KindBool, B: b} }
func PtrVal(n *Node) Value    { return Value{Kind: KindPtr, N: n} }
func NullVal() Value          { return Value{Kind: KindPtr} }
func (v Value) IsNull() bool  { return v.Kind == KindPtr && v.N == nil }

// String renders the value for print().
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindReal:
		return fmt.Sprintf("%g", v.F)
	case KindBool:
		return fmt.Sprintf("%t", v.B)
	case KindPtr:
		if v.N == nil {
			return "NULL"
		}
		return fmt.Sprintf("<%s#%d>", v.N.decl.Name, v.N.id)
	}
	return "?"
}

// zeroValue returns the zero of a static type.
func zeroValue(t lang.Type) Value {
	switch t := t.(type) {
	case *lang.Scalar:
		switch t.Kind {
		case lang.KindInt:
			return IntVal(0)
		case lang.KindReal:
			return RealVal(0)
		case lang.KindBool:
			return BoolVal(false)
		}
	case *lang.Pointer:
		return NullVal()
	}
	return Value{}
}

// coerce adapts a value to a destination type (int→real widening).
func coerce(v Value, t lang.Type) Value {
	if s, ok := t.(*lang.Scalar); ok && s.Kind == lang.KindReal && v.Kind == KindInt {
		return RealVal(float64(v.I))
	}
	return v
}
