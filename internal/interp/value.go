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
	KindString
	KindPtr
)

// Node is a heap record instance. Fields are stored by position, in
// the order of the record's ADDS declaration: vals[i] is decl.Data[i]
// and parr[i] is decl.Pointers[i]. The engines that run compiled code
// index the slices with offsets resolved at compile time; the
// tree-walker, the shape checker and the Field* inspectors start from a
// field name and find its position in the declaration themselves (data,
// ptrs), so the oracle does not lean on the compile IR it checks.
// Stores write one slot in place and the slices never grow, which keeps
// concurrent access to different fields of one node race-free — the
// parallel executor relies on it (the dependence test guarantees no two
// iterations touch the same field of the same node).
type Node struct {
	Type string
	decl *adds.Decl
	// vals holds the scalar fields, indexed like decl.Data.
	vals []Value
	// parr holds the pointer fields, indexed like decl.Pointers; each
	// entry has the declared Count length (1 for plain pointers).
	parr [][]*Node
	// id is a stable allocation number for deterministic printing.
	id int64
	// inEdges counts in-edges per uniquely-forward dimension when
	// runtime shape checks are enabled.
	inEdges map[string]int
}

// data returns the named scalar field's slot, or nil if the record
// declares no such field.
func (n *Node) data(field string) *Value {
	for i := range n.decl.Data {
		if n.decl.Data[i].Name == field {
			return &n.vals[i]
		}
	}
	return nil
}

// ptrs returns the named pointer field's targets, or nil if the record
// declares no such field.
func (n *Node) ptrs(field string) []*Node {
	for i := range n.decl.Pointers {
		if n.decl.Pointers[i].Name == field {
			return n.parr[i]
		}
	}
	return nil
}

// Value is a PSL runtime value.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	B    bool
	S    string
	N    *Node
}

// Convenience constructors.
func IntVal(i int64) Value    { return Value{Kind: KindInt, I: i} }
func RealVal(f float64) Value { return Value{Kind: KindReal, F: f} }
func BoolVal(b bool) Value    { return Value{Kind: KindBool, B: b} }
func StrVal(s string) Value   { return Value{Kind: KindString, S: s} }
func PtrVal(n *Node) Value    { return Value{Kind: KindPtr, N: n} }
func NullVal() Value          { return Value{Kind: KindPtr} }
func (v Value) IsNull() bool  { return v.Kind == KindPtr && v.N == nil }
func (v Value) AsReal() float64 {
	if v.Kind == KindInt {
		return float64(v.I)
	}
	return v.F
}

// String renders the value for print().
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindReal:
		return fmt.Sprintf("%g", v.F)
	case KindBool:
		return fmt.Sprintf("%t", v.B)
	case KindString:
		return v.S
	case KindPtr:
		if v.N == nil {
			return "NULL"
		}
		return fmt.Sprintf("<%s#%d>", v.N.Type, v.N.id)
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
		default:
			return StrVal("")
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
