package adds_test

import (
	"fmt"
	"strings"
	"testing"

	. "repro/internal/adds"
	"repro/internal/lang"
)

// lang holds the one parser of the ADDS surface syntax; these helpers
// put the model's tests on top of it.

// parse reads a source of declarations into a checked universe.
func parse(src string) (*Universe, error) {
	p, err := lang.ParseRaw(src)
	if err != nil {
		return nil, err
	}
	return p.Universe, nil
}

// parseDecl reads a source holding exactly one declaration.
func parseDecl(src string) (*Decl, error) {
	u, err := parse(src)
	if err != nil {
		return nil, err
	}
	if u.Len() != 1 {
		return nil, fmt.Errorf("%d declarations, want 1", u.Len())
	}
	return u.Decl(u.Types()[0]), nil
}

func mustParse(t *testing.T, src string) *Universe {
	t.Helper()
	u, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// library is every canonical declaration of library.go in one universe.
func library(t *testing.T) *Universe {
	return mustParse(t, OneWayListSrc+ListNodeSrc+TwoWayListSrc+
		BinTreeSrc+OrthListSrc+TwoDRangeTreeSrc+OctreeSrc)
}

func TestParseOneWayList(t *testing.T) {
	d, err := parseDecl(OneWayListSrc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "OneWayList" {
		t.Errorf("name = %q, want OneWayList", d.Name)
	}
	if len(d.Dims) != 1 || d.Dims[0] != "X" {
		t.Errorf("dims = %v, want [X]", d.Dims)
	}
	if len(d.Data) != 1 || d.Data[0].Name != "data" || d.Data[0].Type != "int" {
		t.Errorf("data fields = %+v", d.Data)
	}
	f := d.Pointer("next")
	if f == nil {
		t.Fatal("no pointer field next")
	}
	if f.Dim != "X" || f.Dir != Forward || !f.Unique || f.Count != 1 {
		t.Errorf("next = %+v, want uniquely forward along X", *f)
	}
}

func TestParseDefaultDimension(t *testing.T) {
	d, err := parseDecl(ListNodeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Dims) != 1 || d.Dims[0] != DefaultDimension {
		t.Errorf("dims = %v, want [%s]", d.Dims, DefaultDimension)
	}
	if len(d.Data) != 2 {
		t.Fatalf("data fields = %+v, want coef and exp", d.Data)
	}
	f := d.Pointer("next")
	if f == nil {
		t.Fatal("no pointer field next")
	}
	if f.Dir != Unknown || f.Unique {
		t.Errorf("unannotated field should be unknown/non-unique, got %+v", *f)
	}
}

func TestParseMultiNamePointerGroup(t *testing.T) {
	d, err := parseDecl(BinTreeSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"left", "right"} {
		f := d.Pointer(name)
		if f == nil {
			t.Fatalf("missing field %s", name)
		}
		if f.Dim != "down" || f.Dir != Forward || !f.Unique {
			t.Errorf("%s = %+v, want uniquely forward along down", name, *f)
		}
	}
}

func TestParseIndependenceClause(t *testing.T) {
	d, err := parseDecl(TwoDRangeTreeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Dims); got != 3 {
		t.Fatalf("dims = %v", d.Dims)
	}
	if !d.Independent("sub", "down") || !d.Independent("down", "sub") {
		t.Error("sub||down not recorded (should be symmetric)")
	}
	if !d.Independent("sub", "leaves") {
		t.Error("sub||leaves not recorded")
	}
	if d.Independent("down", "leaves") {
		t.Error("down and leaves must be dependent (default)")
	}
	if d.Independent("down", "down") {
		t.Error("a dimension is never independent of itself")
	}
}

func TestParsePointerArray(t *testing.T) {
	d, err := parseDecl(OctreeSrc)
	if err != nil {
		t.Fatal(err)
	}
	f := d.Pointer("subtrees")
	if f == nil {
		t.Fatal("missing subtrees")
	}
	if f.Count != 8 {
		t.Errorf("subtrees count = %d, want 8", f.Count)
	}
	if f.Dim != "down" || !f.Unique || f.Dir != Forward {
		t.Errorf("subtrees = %+v", *f)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"missing type kw", `foo X {};`, "1:1: expected type, function, or procedure"},
		{"bad dim ref", `type T [X] { T *n is forward along Y; };`, "undeclared dimension"},
		{"dup field", `type T [X] { int a; int a; };`, "declared twice"},
		{"dup dim", `type T [X][X] { int a; };`, "declared twice"},
		{"indep undeclared", `type T [X] where X||Y { int a; };`, "undeclared dimension"},
		{"indep self", `type T [X] where X||X { int a; };`, "independent of itself"},
		{"keyword ident", `type forward [X] { int a; };`, "1:6: expected identifier, found forward"},
		{"bad array count", `type T [X] { T *n[0] is forward along X; };`, "1:20: bad array count \"0\" (1..1024)"},
		{"dangling target", `type T [X] { U *n is forward along X; };`, "undeclared type"},
		{"mixed declarators", `type T [X] { T *a, b; };`, "1:20: expected *, found identifier(\"b\")"},
		{"missing along", `type T [X] { T *n is forward X; };`, "1:30: expected along, found identifier(\"X\")"},
		{"truncated", `type T [X] { int a;`, "1:20: expected field type, found EOF"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parse(c.src)
			if err == nil {
				t.Fatalf("parse(%q) succeeded, want error containing %q", c.src, c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error = %v, want substring %q", err, c.wantSub)
			}
		})
	}
}

func TestRoundTrip(t *testing.T) {
	// String() output must re-parse to an equivalent declaration.
	for _, src := range []string{
		OneWayListSrc, ListNodeSrc, TwoWayListSrc, BinTreeSrc,
		OrthListSrc, TwoDRangeTreeSrc, OctreeSrc,
	} {
		d1, err := parseDecl(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		d2, err := parseDecl(d1.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", d1.String(), err)
		}
		if d1.String() != d2.String() {
			t.Errorf("round trip mismatch:\n%s\nvs\n%s", d1, d2)
		}
	}
}

func TestAcyclic(t *testing.T) {
	lib := library(t)
	owl := lib.Decl("OneWayList")
	if !owl.Acyclic("next") {
		t.Error("OneWayList.next must be acyclic")
	}
	ln := lib.Decl("ListNode")
	if ln.Acyclic("next") {
		t.Error("unannotated ListNode.next must not be provably acyclic")
	}
	twl := lib.Decl("TwoWayList")
	if !twl.Acyclic("next") || !twl.Acyclic("prev") {
		t.Error("each direction of TwoWayList alone is acyclic")
	}
	if twl.Acyclic("next", "prev") {
		t.Error("mixing next and prev can cycle; Acyclic must reject")
	}
	ol := lib.Decl("OrthList")
	if !ol.Acyclic("across") || !ol.Acyclic("down") {
		t.Error("orthogonal list forward fields are acyclic")
	}
	if ol.Acyclic("across", "down") {
		t.Error("across and down traverse different dimensions; not provably acyclic together")
	}
	bt := lib.Decl("BinTree")
	if !bt.Acyclic("left", "right") {
		t.Error("left+right along one dimension are jointly acyclic")
	}
	if bt.Acyclic() != true {
		t.Error("empty field set is trivially acyclic")
	}
	if bt.Acyclic("nosuch") {
		t.Error("unknown field is not acyclic")
	}
}

func TestUniqueAlong(t *testing.T) {
	lib := library(t)
	if !lib.Decl("OneWayList").UniqueAlong("X") {
		t.Error("OneWayList unique along X")
	}
	if !lib.Decl("Octree").UniqueAlong("down") || !lib.Decl("Octree").UniqueAlong("leaves") {
		t.Error("Octree unique along both dimensions")
	}
	if lib.Decl("ListNode").UniqueAlong(DefaultDimension) {
		t.Error("unannotated next is not unique")
	}
	// A dimension with no forward fields is not "unique".
	d := mustParse(t, `type B [X] { int v; B *back is backward along X; };`).Decl("B")
	if d.UniqueAlong("X") {
		t.Error("dimension with only backward fields is not UniqueAlong")
	}
	// Non-unique forward field defeats the property.
	d2 := mustParse(t, `type C [X] { int v; C *a is forward along X; };`).Decl("C")
	if d2.UniqueAlong("X") {
		t.Error("forward but not uniquely forward must not be UniqueAlong")
	}
}

func TestDisjointSiblings(t *testing.T) {
	lib := library(t)
	if !lib.Decl("BinTree").DisjointSiblings("left", "right") {
		t.Error("binary tree subtrees are disjoint")
	}
	if !lib.Decl("Octree").DisjointSiblings("subtrees") {
		t.Error("octree subtrees are disjoint")
	}
	if lib.Decl("ListNode").DisjointSiblings("next") {
		t.Error("unannotated field has no disjointness guarantee")
	}
	if lib.Decl("TwoWayList").DisjointSiblings("next", "prev") {
		t.Error("prev is backward; sibling disjointness requires uniquely forward")
	}
	if lib.Decl("BinTree").DisjointSiblings() {
		t.Error("empty set is not disjoint-siblings")
	}
}

func TestCrossDimensionDisjoint(t *testing.T) {
	rt := library(t).Decl("TwoDRangeTree")
	if !rt.CrossDimensionDisjoint("sub", "down") {
		t.Error("sub||down declared independent")
	}
	if rt.CrossDimensionDisjoint("down", "leaves") {
		t.Error("down and leaves are dependent")
	}
	oc := library(t).Decl("Octree")
	if oc.CrossDimensionDisjoint("down", "leaves") {
		t.Error("octree dims are dependent: leaves reachable along both")
	}
}

func TestPathNeverRevisits(t *testing.T) {
	lib := library(t)
	if !lib.Decl("OneWayList").PathNeverRevisits("next") {
		t.Error("one-way list traversal never revisits")
	}
	if lib.Decl("ListNode").PathNeverRevisits("next") {
		t.Error("unknown direction may revisit")
	}
	if lib.Decl("TwoWayList").PathNeverRevisits("next", "prev") {
		t.Error("mixed directions may revisit")
	}
	if lib.Decl("BinTree").PathNeverRevisits() {
		t.Error("empty traversal has no guarantee by convention")
	}
}

func TestUniverse(t *testing.T) {
	u := library(t)
	if u.Len() != 7 {
		t.Fatalf("library has %d decls, want 7", u.Len())
	}
	if u.Decl("Octree") == nil || u.Decl("NoSuch") != nil {
		t.Error("Decl lookup broken")
	}
	d, f := u.FieldDecl("Octree", "next")
	if d == nil || f == nil || f.Dim != "leaves" {
		t.Errorf("FieldDecl(Octree, next) = %v, %v", d, f)
	}
	if _, f := u.FieldDecl("Octree", "nosuch"); f != nil {
		t.Error("FieldDecl should return nil for unknown field")
	}
	if _, f := u.FieldDecl("NoSuch", "next"); f != nil {
		t.Error("FieldDecl should return nil for unknown type")
	}
	types := u.SortedTypes()
	for i := 1; i < len(types); i++ {
		if types[i-1] >= types[i] {
			t.Errorf("SortedTypes not sorted: %v", types)
		}
	}
	// Duplicate type rejected.
	if err := u.Add(&Decl{Name: "Octree", Dims: []string{"d"}}); err == nil {
		t.Error("duplicate Add must fail")
	}
}

func TestValidateDirect(t *testing.T) {
	bad := []Decl{
		{Name: ""},
		{Name: "T", Dims: []string{""}},
		{Name: "T", Dims: []string{"X"}, Pointers: []PointerField{{Name: "f", Type: "T", Count: 1, Dim: "X", Dir: Unknown, Unique: true}}},
		{Name: "T", Dims: []string{"X"}, Pointers: []PointerField{{Name: "f", Type: "T", Count: 0, Dim: "X"}}},
		{Name: "T", Dims: []string{"X"}, Pointers: []PointerField{{Name: "f", Type: "T", Count: 1, Dim: ""}}},
		{Name: "T", Dims: []string{"X"}, Data: []DataField{{Name: "", Type: "int"}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid decl %+v", i, bad[i])
		}
	}
	good := Decl{Name: "T", Dims: []string{"X"}, Pointers: []PointerField{{Name: "f", Type: "T", Count: 1, Dim: "X", Dir: Forward, Unique: true}}}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected valid decl: %v", err)
	}
}

func TestFieldsAlong(t *testing.T) {
	ol := library(t).Decl("OrthList")
	fwdX := ol.FieldsAlong("X", Forward)
	if len(fwdX) != 1 || fwdX[0].Name != "across" {
		t.Errorf("FieldsAlong(X, Forward) = %+v", fwdX)
	}
	backY := ol.FieldsAlong("Y", Backward)
	if len(backY) != 1 || backY[0].Name != "up" {
		t.Errorf("FieldsAlong(Y, Backward) = %+v", backY)
	}
	if got := ol.FieldsAlong("Z", Forward); got != nil {
		t.Errorf("unknown dimension should yield nil, got %+v", got)
	}
}
