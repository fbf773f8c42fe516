package analysis

import (
	"testing"

	"repro/internal/adds"
	"repro/internal/lang"
	"repro/internal/pathmatrix"
)

// TestIndependenceDisproof exercises the §3.1.3 claim for the 2-D range
// tree: "any node that can be accessed by a forward traversal along
// sub, cannot be accessed by a forward traversal along down or along
// leaves". Even with possibly-aliased bases, a sub-loaded handle can
// never alias a down- or leaves-loaded handle.
func TestIndependenceDisproof(t *testing.T) {
	src := adds.TwoDRangeTreeSrc + `
procedure f(TwoDRangeTree *a, TwoDRangeTree *b) {
  var TwoDRangeTree *s = a->subtree;
  var TwoDRangeTree *d = b->left;
  var TwoDRangeTree *l = b->next;
  print(1);
}
`
	prog, fr := analyzeOne(t, src, "f")
	fn := prog.Func("f")
	last := fn.Body.Stmts[len(fn.Body.Stmts)-1]
	st := fr.Before(last)

	if got := st.get("s", "d").Alias; got != pathmatrix.NoAlias {
		t.Errorf("sub-loaded vs down-loaded = %v, want NoAlias (sub||down)\n%s", got, st.PM)
	}
	if got := st.get("s", "l").Alias; got != pathmatrix.NoAlias {
		t.Errorf("sub-loaded vs leaves-loaded = %v, want NoAlias (sub||leaves)\n%s", got, st.PM)
	}
	// down and leaves are dependent: d and l may alias (both b-derived
	// one step along dependent dimensions — d = b->left could be the
	// same leaf l = b->next points at).
	if got := st.get("d", "l").Alias; got == pathmatrix.NoAlias {
		t.Errorf("down-loaded vs leaves-loaded must stay possible (dependent dims)\n%s", st.PM)
	}
}

// TestIndependenceSurvivesCopy: provenance flows through plain copies.
func TestIndependenceSurvivesCopy(t *testing.T) {
	src := adds.TwoDRangeTreeSrc + `
procedure f(TwoDRangeTree *a, TwoDRangeTree *b) {
  var TwoDRangeTree *s = a->subtree;
  var TwoDRangeTree *s2 = s;
  var TwoDRangeTree *d = b->left;
  print(1);
}
`
	prog, fr := analyzeOne(t, src, "f")
	fn := prog.Func("f")
	last := fn.Body.Stmts[len(fn.Body.Stmts)-1]
	st := fr.Before(last)
	if got := st.get("s2", "d").Alias; got != pathmatrix.NoAlias {
		t.Errorf("copied sub-handle vs down-loaded = %v, want NoAlias\n%s", got, st.PM)
	}
}

// TestIndependenceLostAtJoin: provenance that differs across branches
// is dropped — no unsound disproof after a join.
func TestIndependenceLostAtJoin(t *testing.T) {
	src := adds.TwoDRangeTreeSrc + `
procedure f(TwoDRangeTree *a, TwoDRangeTree *b, bool c) {
  var TwoDRangeTree *x = NULL;
  if c {
    x = a->subtree;
  } else {
    x = a->left;
  }
  var TwoDRangeTree *d = b->left;
  print(1);
}
`
	prog, fr := analyzeOne(t, src, "f")
	fn := prog.Func("f")
	last := fn.Body.Stmts[len(fn.Body.Stmts)-1]
	st := fr.Before(last)
	// x may be down-loaded, so independence from down must NOT apply.
	if got := st.get("x", "d").Alias; got == pathmatrix.NoAlias {
		t.Errorf("mixed-provenance handle must stay possible vs down-loaded\n%s", st.PM)
	}
}

// TestOrthListRowDisjointness: two rows reached from provably distinct
// row heads stay distinct after parallel across-traversals.
func TestOrthListRowDisjointness(t *testing.T) {
	src := adds.OrthListSrc + `
procedure f(OrthList *grid) {
  var OrthList *r1 = grid->down;
  var OrthList *r2 = r1->down;
  var OrthList *a = r1->across;
  var OrthList *b = r2->across;
  print(1);
}
`
	prog, fr := analyzeOne(t, src, "f")
	fn := prog.Func("f")
	last := fn.Body.Stmts[len(fn.Body.Stmts)-1]
	st := fr.Before(last)
	if got := st.get("r1", "r2").Alias; got != pathmatrix.NoAlias {
		t.Errorf("successive down-loads must be distinct, got %v", got)
	}
	// a and b hang off distinct rows via a uniquely-forward field.
	if got := st.get("a", "b").Alias; got != pathmatrix.NoAlias {
		t.Errorf("across-children of distinct rows must be distinct, got %v\n%s", got, st.PM)
	}
}

// TestOrthListLoopParallelizable: scaling one row's elements is a
// parallelizable traversal along across.
func TestOrthListRowScaleLoop(t *testing.T) {
	src := adds.OrthListSrc + `
procedure scalerow(OrthList *row, int c) {
  var OrthList *p = row;
  while p != NULL {
    p->data = p->data * c;
    p = p->across;
  }
}
`
	prog, fr := analyzeOne(t, src, "scalerow")
	fn := prog.Func("scalerow")
	loop, err := FindLoop(fn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.advances(loop, "p") {
		t.Error("across-traversal must strictly advance")
	}
}

// TestTwoWayListBothDirections: forward and backward traversals each
// advance; mixing directions does not.
func TestTwoWayListBothDirections(t *testing.T) {
	src := adds.TwoWayListSrc + `
procedure fwd(TwoWayList *h) {
  var TwoWayList *p = h;
  while p != NULL {
    p->data = 1;
    p = p->next;
  }
}
procedure bwd(TwoWayList *tl) {
  var TwoWayList *p = tl;
  while p != NULL {
    p->data = 1;
    p = p->prev;
  }
}
procedure zigzag(TwoWayList *h) {
  var TwoWayList *p = h;
  while p != NULL {
    var TwoWayList *q = p->next;
    p = q->prev;   // back where we started: must not "advance"
  }
}
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(prog).AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"fwd", "bwd"} {
		loop, _ := FindLoop(prog.Func(fn), 0)
		if !res.Funcs[fn].advances(loop, "p") {
			t.Errorf("%s traversal must strictly advance", fn)
		}
	}
	loop, _ := FindLoop(prog.Func("zigzag"), 0)
	if res.Funcs["zigzag"].advances(loop, "p") {
		t.Error("zigzag must not be proven to advance (it revisits p)")
	}
}

// TestBackwardAdvanceOnBackwardLoop: bwd uses prev, which is declared
// backward (acyclic) but not unique; the induction fact must still hold
// through p' paths... and indeed prev-only traversal is acyclic, so the
// p'→p path over prev suffices.
func TestBackwardFieldPathNoAlias(t *testing.T) {
	src := adds.TwoWayListSrc + `
procedure f(TwoWayList *a) {
  var TwoWayList *x = a->prev;
  var TwoWayList *y = x->prev;
  print(1);
}
`
	prog, fr := analyzeOne(t, src, "f")
	fn := prog.Func("f")
	last := fn.Body.Stmts[len(fn.Body.Stmts)-1]
	st := fr.Before(last)
	if st.get("a", "x").Alias != pathmatrix.NoAlias {
		t.Error("a vs a->prev distinct (acyclic backward)")
	}
	if st.get("x", "y").Alias != pathmatrix.NoAlias {
		t.Error("x vs x->prev distinct")
	}
	// a vs y: two backward steps; acyclicity of prev gives distinctness
	// only through the recorded path — conservatively Possible is also
	// acceptable, but never a false NoAlias-with-path claim.
	e := st.get("a", "y")
	if e.Alias == pathmatrix.NoAlias && !e.HasPath() {
		t.Error("a vs y NoAlias without a justifying path")
	}
}
