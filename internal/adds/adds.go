// Package adds implements the Abstract Description of Data Structures
// (ADDS) mechanism from Hummel, Nicolau & Hendren (ICPP 1992).
//
// An ADDS declaration augments a recursive record type with shape
// information: the structure's named dimensions, the dimension and
// direction each recursive pointer field traverses, whether forward
// traversals along a dimension are unique (at most one in-edge per node),
// and which dimensions are independent of each other.
//
// The compiler-facing queries (Acyclic, UniqueAlong, Independent,
// PathNeverRevisits, ...) are what the general path matrix analysis in
// package analysis consumes to sharpen alias information and to validate
// the abstraction against shape-changing stores.
package adds

import (
	"fmt"
	"strings"
)

// Direction is the declared traversal direction of a pointer field along
// its dimension.
type Direction int

const (
	// Unknown is the default direction: the field may traverse the
	// dimension in any manner, including forming cycles.
	Unknown Direction = iota
	// Forward declares that following the field moves one unit away from
	// the dimension's origin; forward-only traversals are acyclic.
	Forward
	// Backward declares that following the field moves one unit back
	// toward the dimension's origin; backward-only traversals are acyclic.
	Backward
)

// String returns the ADDS surface syntax for the direction.
func (d Direction) String() string {
	switch d {
	case Forward:
		return "forward"
	case Backward:
		return "backward"
	default:
		return "unknown"
	}
}

// DefaultDimension is the implicit dimension assigned to recursive pointer
// fields that carry no ADDS annotation. Its direction is Unknown, which is
// the paper's conservative default ("possibly cyclic").
const DefaultDimension = "D"

// DataField is a non-pointer field of the record (its type is opaque to
// the shape analysis; only its name matters for field-granularity
// dependence testing).
type DataField struct {
	Name string
	Type string
}

// PointerField is a recursive pointer field together with its ADDS
// annotation.
type PointerField struct {
	Name string
	// Type is the target record type name. For self-recursive structures
	// it equals the declaring type's name, but mutually recursive
	// structures are permitted.
	Type string
	// Count is the number of pointers the field holds: 1 for a plain
	// pointer, n for a pointer array such as "Octree *subtrees[8]".
	Count int
	// Dim is the dimension the field traverses (DefaultDimension if the
	// field carries no annotation).
	Dim string
	// Dir is the declared direction along Dim.
	Dir Direction
	// Unique reports a "uniquely forward" (or "uniquely backward")
	// annotation: along Dim, every node is pointed to by at most one
	// pointer held in fields of this declaration group.
	Unique bool
}

// Decl is a complete ADDS declaration for one record type.
type Decl struct {
	Name string
	// Dims lists the declared dimensions in source order. A declaration
	// without explicit dimensions has the single DefaultDimension.
	Dims []string
	// Indep holds the dimension pairs declared independent via a
	// "where a||b" clause. Dimensions are dependent by default.
	Indep [][2]string
	// Data holds the non-pointer fields in source order.
	Data []DataField
	// Pointers holds the recursive pointer fields in source order.
	Pointers []PointerField
}

// Validate checks internal consistency of the declaration: dimensions
// referenced by fields or independence clauses must be declared, field
// names must be unique, pointer-array counts must be positive, and a field
// may traverse only one dimension in one direction (enforced structurally
// by PointerField, re-checked here for parser output).
func (d *Decl) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("adds: declaration has no type name")
	}
	dims := make(map[string]bool, len(d.Dims))
	for _, dim := range d.Dims {
		if dim == "" {
			return fmt.Errorf("adds: %s: empty dimension name", d.Name)
		}
		if dims[dim] {
			return fmt.Errorf("adds: %s: dimension %q declared twice", d.Name, dim)
		}
		dims[dim] = true
	}
	for _, pair := range d.Indep {
		for _, dim := range pair {
			if !dims[dim] {
				return fmt.Errorf("adds: %s: independence clause names undeclared dimension %q", d.Name, dim)
			}
		}
		if pair[0] == pair[1] {
			return fmt.Errorf("adds: %s: dimension %q declared independent of itself", d.Name, pair[0])
		}
	}
	names := make(map[string]bool)
	for _, f := range d.Data {
		if f.Name == "" {
			return fmt.Errorf("adds: %s: data field with empty name", d.Name)
		}
		if names[f.Name] {
			return fmt.Errorf("adds: %s: field %q declared twice", d.Name, f.Name)
		}
		names[f.Name] = true
	}
	for _, f := range d.Pointers {
		if f.Name == "" {
			return fmt.Errorf("adds: %s: pointer field with empty name", d.Name)
		}
		if names[f.Name] {
			return fmt.Errorf("adds: %s: field %q declared twice", d.Name, f.Name)
		}
		names[f.Name] = true
		if f.Count < 1 {
			return fmt.Errorf("adds: %s: field %q has non-positive count %d", d.Name, f.Name, f.Count)
		}
		if f.Dim == "" {
			return fmt.Errorf("adds: %s: field %q has no dimension", d.Name, f.Name)
		}
		if !dims[f.Dim] {
			return fmt.Errorf("adds: %s: field %q traverses undeclared dimension %q", d.Name, f.Name, f.Dim)
		}
		if f.Unique && f.Dir == Unknown {
			return fmt.Errorf("adds: %s: field %q is uniquely-directed but has unknown direction", d.Name, f.Name)
		}
	}
	return nil
}

// Pointer returns the pointer field with the given name, or nil.
func (d *Decl) Pointer(name string) *PointerField {
	if i := d.PointerIndex(name); i >= 0 {
		return &d.Pointers[i]
	}
	return nil
}

// PointerIndex returns the index in Pointers of the field with the
// given name, or -1.
func (d *Decl) PointerIndex(name string) int {
	for i := range d.Pointers {
		if d.Pointers[i].Name == name {
			return i
		}
	}
	return -1
}

// DataIndex returns the index in Data of the field with the given
// name, or -1.
func (d *Decl) DataIndex(name string) int {
	for i := range d.Data {
		if d.Data[i].Name == name {
			return i
		}
	}
	return -1
}

// HasDim reports whether dim is a declared dimension of d.
func (d *Decl) HasDim(dim string) bool {
	for _, x := range d.Dims {
		if x == dim {
			return true
		}
	}
	return false
}

// Independent reports whether dimensions a and b were declared independent
// ("where a||b"). Dimensions are dependent by default; a dimension is
// never independent of itself.
func (d *Decl) Independent(a, b string) bool {
	if a == b {
		return false
	}
	for _, pair := range d.Indep {
		if (pair[0] == a && pair[1] == b) || (pair[0] == b && pair[1] == a) {
			return true
		}
	}
	return false
}

// FieldsAlong returns the pointer fields that traverse dim in the given
// direction, in source order.
func (d *Decl) FieldsAlong(dim string, dir Direction) []PointerField {
	var out []PointerField
	for _, f := range d.Pointers {
		if f.Dim == dim && f.Dir == dir {
			out = append(out, f)
		}
	}
	return out
}

// Acyclic reports whether following only the named fields can never form a
// cycle according to the declaration. This holds exactly when all the
// fields traverse a single dimension and they all move in the same
// declared (non-Unknown) direction: the paper's "the term forward by
// itself declares an acyclic shape". An empty field set is trivially
// acyclic.
func (d *Decl) Acyclic(fields ...string) bool {
	dim, dir := "", Unknown
	for _, name := range fields {
		f := d.Pointer(name)
		if f == nil || f.Dir == Unknown {
			return false
		}
		if dim == "" {
			dim, dir = f.Dim, f.Dir
			continue
		}
		if f.Dim != dim || f.Dir != dir {
			return false
		}
	}
	return true
}

// UniqueAlong reports whether every forward field along dim is declared
// unique, i.e. each node has at most one in-edge along the dimension.
// This is the tree/list disjointness property: forward traversals starting
// from distinct, non-aliased nodes can never meet. It is false when the
// dimension has no forward fields at all.
func (d *Decl) UniqueAlong(dim string) bool {
	fwd := d.FieldsAlong(dim, Forward)
	if len(fwd) == 0 {
		return false
	}
	for _, f := range fwd {
		if !f.Unique {
			return false
		}
	}
	return true
}

// PathNeverRevisits reports whether a traversal that repeatedly follows
// any of the named fields is guaranteed never to visit the same node
// twice. This is the property that licenses parallel processing of the
// nodes of a pointer-chasing loop (footnote 1 of the paper). It is
// exactly Acyclic: same dimension, same declared direction.
func (d *Decl) PathNeverRevisits(fields ...string) bool {
	if len(fields) == 0 {
		return false
	}
	return d.Acyclic(fields...)
}

// DisjointSiblings reports whether two distinct pointers held in the named
// fields of a *single* node always target distinct, unshared substructures
// along the fields' dimension — the binary-tree "all subtrees of n are
// disjoint" property. It requires every named field to be uniquely forward
// along one common dimension.
func (d *Decl) DisjointSiblings(fields ...string) bool {
	if len(fields) == 0 {
		return false
	}
	dim := ""
	for _, name := range fields {
		f := d.Pointer(name)
		if f == nil || f.Dir != Forward || !f.Unique {
			return false
		}
		if dim == "" {
			dim = f.Dim
		} else if f.Dim != dim {
			return false
		}
	}
	return true
}

// String renders the declaration in ADDS surface syntax, suitable for
// re-parsing.
func (d *Decl) String() string {
	var b strings.Builder
	b.WriteString("type ")
	b.WriteString(d.Name)
	if !(len(d.Dims) == 1 && d.Dims[0] == DefaultDimension) {
		for _, dim := range d.Dims {
			fmt.Fprintf(&b, " [%s]", dim)
		}
	}
	if len(d.Indep) > 0 {
		b.WriteString(" where ")
		parts := make([]string, len(d.Indep))
		for i, pair := range d.Indep {
			parts[i] = pair[0] + "||" + pair[1]
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	b.WriteString(" {\n")
	for _, f := range d.Data {
		fmt.Fprintf(&b, "  %s %s;\n", f.Type, f.Name)
	}
	for _, f := range d.Pointers {
		fmt.Fprintf(&b, "  %s *%s", f.Type, f.Name)
		if f.Count > 1 {
			fmt.Fprintf(&b, "[%d]", f.Count)
		}
		if f.Dir != Unknown {
			b.WriteString(" is ")
			if f.Unique {
				b.WriteString("uniquely ")
			}
			fmt.Fprintf(&b, "%s along %s", f.Dir, f.Dim)
		}
		b.WriteString(";\n")
	}
	b.WriteString("};")
	return b.String()
}

// Universe is a set of ADDS declarations, indexed by type name. Analyses
// operate over a universe so that mutually recursive structures and
// programs with several structures are handled uniformly.
type Universe struct {
	decls map[string]*Decl
	order []string
}

// NewUniverse returns an empty universe.
func NewUniverse() *Universe {
	return &Universe{decls: make(map[string]*Decl)}
}

// Add validates the declaration and installs it, rejecting duplicates and
// dangling pointer-field target types already present with mismatched
// names. Target types may be forward-declared: Add does not require the
// target to exist yet; call Check after all declarations are added.
func (u *Universe) Add(d *Decl) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if _, dup := u.decls[d.Name]; dup {
		return fmt.Errorf("adds: type %q declared twice", d.Name)
	}
	u.decls[d.Name] = d
	u.order = append(u.order, d.Name)
	return nil
}

// Check verifies that every pointer field's target type is declared in the
// universe.
func (u *Universe) Check() error {
	for _, name := range u.order {
		d := u.decls[name]
		for _, f := range d.Pointers {
			if _, ok := u.decls[f.Type]; !ok {
				return fmt.Errorf("adds: %s.%s targets undeclared type %q", d.Name, f.Name, f.Type)
			}
		}
	}
	return nil
}

// Decl returns the declaration for the named type, or nil.
func (u *Universe) Decl(name string) *Decl {
	return u.decls[name]
}

// Types returns the declared type names in insertion order.
func (u *Universe) Types() []string {
	out := make([]string, len(u.order))
	copy(out, u.order)
	return out
}

// Len returns the number of declarations.
func (u *Universe) Len() int { return len(u.order) }

// FieldDecl resolves "typeName.fieldName" to the owning declaration and
// pointer field, or (nil, nil) if either is unknown.
func (u *Universe) FieldDecl(typeName, fieldName string) (*Decl, *PointerField) {
	d := u.decls[typeName]
	if d == nil {
		return nil, nil
	}
	f := d.Pointer(fieldName)
	if f == nil {
		return nil, nil
	}
	return d, f
}
