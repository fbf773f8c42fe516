package core

import (
	"fmt"
	"testing"
)

// TestIndexedStoreHolePinned pins a known hole in the path-matrix
// store rule, not the answer it should give. Store step 3 skips "the
// very edge being overwritten" when the stored index matches an
// existing edge's index text, and an index variable's text is its
// name. So a store through kids[i] in a loop, or through an inner i
// that shadows an outer one, is taken for the edge it overwrites: the
// function exits clean although y ends up with two in-edges along
// down. Unrolled, or with the inner variable renamed, the same stores
// exit with the sharing violation. The runtime shape check flags all
// four. When the store rule learns to tell the edges apart, the two
// clean exits become sharing and this test is to be updated.
func TestIndexedStoreHolePinned(t *testing.T) {
	const decl = `
type Tree [down]
{ int data;
  Tree *kids[2] is uniquely forward along down;
};
`
	const sharing = "[sharing of Tree along down]"
	cases := []struct{ name, body, exits string }{
		{"loop", `
  for i = 0 to 1 {
    x->kids[i] = y;
  }`, "[]"},
		{"unrolled", `
  x->kids[0] = y;
  x->kids[1] = y;`, sharing},
		{"shadowed", `
  var int i = 0;
  x->kids[i] = y;
  if x != NULL {
    var int i = 1;
    x->kids[i] = y;
  }`, "[]"},
		{"renamed", `
  var int i = 0;
  x->kids[i] = y;
  if x != NULL {
    var int j = 1;
    x->kids[j] = y;
  }`, sharing},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compile(decl + `
procedure link(Tree *x, Tree *y) {` + tc.body + `
}

procedure main() {
  var Tree *x = new Tree;
  var Tree *y = new Tree;
  link(x, y);
}
`)
			if err != nil {
				t.Fatal(err)
			}
			exits, err := c.ExitViolations("link")
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(exits); got != tc.exits {
				t.Errorf("link exits with %s, pinned %s", got, tc.exits)
			}
			_, _, shapes, err := c.RunChecked(RunConfig{}, "main")
			if err != nil {
				t.Fatal(err)
			}
			if len(shapes) == 0 || shapes[0].Kind != "sharing" || shapes[0].Type != "Tree" || shapes[0].Dim != "down" {
				t.Errorf("runtime shape check = %v, want sharing of Tree along down", shapes)
			}
		})
	}
}
