package analysis

import (
	"strings"
	"testing"

	"repro/internal/adds"
	"repro/internal/lang"
	"repro/internal/pathmatrix"
)

// polyProgram is the paper's §3.3.2 example: scaling the coefficients of
// a polynomial stored in a one-way list.
const polyProgram = `
type OneWayList [X]
{ int coef, exp;
  OneWayList *next is uniquely forward along X;
};

procedure scale(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->coef = p->coef * c;
    p = p->next;
  }
}
`

func analyzeOne(t *testing.T, src, fn string) (*lang.Program, *FuncResult) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(prog).AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	return prog, res.Funcs[fn]
}

// TestPolyLoopMatrices reproduces PM1: the paper's path matrices for the
// polynomial-scaling loop (§3.3.2).
func TestPolyLoopMatrices(t *testing.T) {
	prog, fr := analyzeOne(t, polyProgram, "scale")
	scale := prog.Func("scale")
	loop, err := FindLoop(scale, 0)
	if err != nil {
		t.Fatal(err)
	}

	// "Just before the loop": head and p are definite aliases.
	before := fr.Before(loop)
	if before == nil {
		t.Fatal("no state before loop")
	}
	if got := before.get("head", "p").Alias; got != pathmatrix.DefiniteAlias {
		t.Errorf("before loop: head/p = %v, want definite alias", got)
	}

	// At the fixed point, inside the loop after the advance:
	// head -> p is a definite next-path with no alias, and p' -> p is a
	// one-step next edge — "the ADDS declaration and the analysis have
	// captured ... that head, p, and p' are never aliases".
	adv, err := FindAssign(scale, "p = p->next;")
	if err != nil {
		t.Fatal(err)
	}
	after := fr.After(adv)
	if after == nil {
		t.Fatal("no state after p = p->next")
	}
	hp := after.get("head", "p")
	if hp.Alias != pathmatrix.NoAlias {
		t.Errorf("after advance: head/p alias = %v, want NoAlias\n%s", hp.Alias, after.PM)
	}
	if !hp.HasPath() {
		t.Errorf("after advance: head -> p should record a next path\n%s", after.PM)
	}
	pp := after.get("p'", "p")
	if pp.Alias != pathmatrix.NoAlias || !pp.HasPath() {
		t.Errorf("after advance: p' -> p = %q, want next edge with no alias\n%s", pp, after.PM)
	}
	if !fr.advances(loop, "p") {
		t.Error("induction pointer must provably advance")
	}

	// After the loop, p == NULL: killed, aliases nothing.
	if len(fr.Exit.Violations) != 0 {
		t.Errorf("scale must end with a valid abstraction, got %v", fr.Exit.ViolationKeys())
	}
}

// TestConservativeWithoutADDS shows the paper's contrast: with the
// unannotated ListNode declaration the same loop cannot prove head, p
// distinct.
func TestConservativeWithoutADDS(t *testing.T) {
	src := `
type ListNode
{ int coef, exp;
  ListNode *next;
};

procedure scale(ListNode *head, int c) {
  var ListNode *p = head;
  while p != NULL {
    p->coef = p->coef * c;
    p = p->next;
  }
}
`
	prog, fr := analyzeOne(t, src, "scale")
	scale := prog.Func("scale")
	adv, err := FindAssign(scale, "p = p->next;")
	if err != nil {
		t.Fatal(err)
	}
	after := fr.After(adv)
	if after.get("head", "p").Alias == pathmatrix.NoAlias {
		t.Errorf("without ADDS the analysis must not prove head/p distinct\n%s", after.PM)
	}
	loop, _ := FindLoop(scale, 0)
	if fr.advances(loop, "p") {
		t.Error("without ADDS the induction must not provably advance")
	}
}

// TestSubtreeMoveValidation reproduces V1 (§3.3.1): moving a subtree
// breaks the binary tree's disjointness, and the immediately following
// NULL store repairs it.
func TestSubtreeMoveValidation(t *testing.T) {
	src := adds.BinTreeSrc + `
procedure move(BinTree *p1, BinTree *p2) {
  p1->left = p2->left;
  p2->left = NULL;
}
`
	prog, fr := analyzeOne(t, src, "move")
	move := prog.Func("move")
	// After the first store the abstraction is broken... (normalization
	// hoists the load, so locate the store itself).
	var firstStore lang.Stmt
	lang.Walk(move.Body, func(s lang.Stmt) bool {
		if as, ok := s.(*lang.AssignStmt); ok {
			if fe, ok := as.LHS.(*lang.FieldExpr); ok && fe.Base() != nil && fe.Base().Name == "p1" {
				firstStore = s
				return false
			}
		}
		return true
	})
	if firstStore == nil {
		t.Fatal("store not found")
	}
	st1 := fr.After(firstStore)
	if st1 == nil {
		t.Fatal("no state after first store")
	}
	if st1.Valid("BinTree", "down") {
		t.Errorf("sharing violation expected after p1->left = p2->left; violations = %v", st1.ViolationKeys())
	}
	// ...and the second statement fixes it.
	if !fr.Exit.Valid("BinTree", "down") {
		t.Errorf("violation must clear after p2->left = NULL; still active: %v", fr.Exit.ViolationKeys())
	}
}

// TestSubtreeMoveNotFixed: without the repair store the violation
// persists to the exit.
func TestSubtreeMoveNotFixed(t *testing.T) {
	src := adds.BinTreeSrc + `
procedure move(BinTree *p1, BinTree *p2) {
  p1->left = p2->left;
}
`
	_, fr := analyzeOne(t, src, "move")
	if fr.Exit.Valid("BinTree", "down") {
		t.Error("unrepaired sharing must persist at exit")
	}
}

// TestCycleViolation: closing a cycle along a forward direction is
// flagged; overwriting the offending edge clears it.
func TestCycleViolation(t *testing.T) {
	src := adds.OneWayListSrc + `
procedure close(OneWayList *a) {
  var OneWayList *b = a->next;
  b->next = a;
  b->next = NULL;
}
`
	prog, fr := analyzeOne(t, src, "close")
	cl := prog.Func("close")
	store := cl.Body.Stmts[1]
	st := fr.After(store)
	if st.Valid("OneWayList", "X") {
		t.Errorf("cycle violation expected after b->next = a (b is a's next): %v", st.ViolationKeys())
	}
	if !fr.Exit.Valid("OneWayList", "X") {
		t.Errorf("overwrite must clear the cycle violation: %v", fr.Exit.ViolationKeys())
	}
}

// TestSelfLoopViolation: p->next = p is a definite cycle.
func TestSelfLoopViolation(t *testing.T) {
	src := adds.OneWayListSrc + `
procedure self(OneWayList *p) {
  p->next = p;
}
`
	_, fr := analyzeOne(t, src, "self")
	if fr.Exit.Valid("OneWayList", "X") {
		t.Error("self loop must violate the forward declaration")
	}
}

// TestFreshListBuildIsValid: building a list with fresh nodes keeps the
// abstraction valid (no false sharing/cycle reports).
func TestFreshListBuildIsValid(t *testing.T) {
	src := adds.OneWayListSrc + `
function OneWayList * build(int n) {
  var OneWayList *head = NULL;
  var int i = 0;
  while i < n {
    var OneWayList *node = new OneWayList;
    node->next = head;
    head = node;
    i = i + 1;
  }
  return head;
}
`
	_, fr := analyzeOne(t, src, "build")
	if len(fr.Exit.Violations) != 0 {
		t.Errorf("prepending fresh nodes is shape-preserving; got %v", fr.Exit.ViolationKeys())
	}
}

// TestAppendSharedNodeViolates: inserting the same node twice is a
// sharing violation that persists.
func TestAppendSharedNodeViolates(t *testing.T) {
	src := adds.OneWayListSrc + `
procedure bad(OneWayList *a, OneWayList *b) {
  var OneWayList *n = new OneWayList;
  a->next = n;
  b->next = n;
}
`
	_, fr := analyzeOne(t, src, "bad")
	// a and b may be distinct, in which case n acquires two in-edges.
	if fr.Exit.Valid("OneWayList", "X") {
		t.Error("double insertion must flag sharing")
	}
}

// TestLoadAfterStoreBindsDefinite: p->f = q; r = p->f must make r a
// definite alias of q.
func TestLoadAfterStoreBindsDefinite(t *testing.T) {
	src := adds.BinTreeSrc + `
procedure f(BinTree *p) {
  var BinTree *q = new BinTree;
  p->left = q;
  var BinTree *r = p->left;
  if r == q {
    print("same");
  }
}
`
	prog, fr := analyzeOne(t, src, "f")
	fn := prog.Func("f")
	var rDecl *lang.VarStmt
	lang.Walk(fn.Body, func(s lang.Stmt) bool {
		if vs, ok := s.(*lang.VarStmt); ok && vs.Name == "r" {
			rDecl = vs
			return false
		}
		return true
	})
	if rDecl == nil {
		t.Fatal("no var r")
	}
	st := fr.After(rDecl)
	if got := st.get("r", "q").Alias; got != pathmatrix.DefiniteAlias {
		t.Errorf("r/q = %v, want definite alias\n%s", got, st.PM)
	}
}

// TestNewIsDisjoint: a fresh node aliases nothing.
func TestNewIsDisjoint(t *testing.T) {
	src := adds.OneWayListSrc + `
procedure f(OneWayList *a, OneWayList *b) {
  var OneWayList *n = new OneWayList;
  print(1);
}
`
	prog, fr := analyzeOne(t, src, "f")
	fn := prog.Func("f")
	last := fn.Body.Stmts[len(fn.Body.Stmts)-1]
	st := fr.Before(last)
	for _, h := range []string{"a", "b"} {
		if st.get("n", h).Alias != pathmatrix.NoAlias {
			t.Errorf("fresh n vs %s should be NoAlias", h)
		}
	}
	// While parameters a and b may alias each other.
	if st.get("a", "b").Alias != pathmatrix.PossibleAlias {
		t.Error("parameters of the same type must be possible aliases at entry")
	}
}

// TestSiblingDisjointness: two distinct children of the same tree node
// are provably distinct (uniquely forward along one dimension).
func TestSiblingDisjointness(t *testing.T) {
	src := adds.BinTreeSrc + `
procedure f(BinTree *t) {
  var BinTree *l = t->left;
  var BinTree *r = t->right;
  print(1);
}
`
	prog, fr := analyzeOne(t, src, "f")
	fn := prog.Func("f")
	last := fn.Body.Stmts[len(fn.Body.Stmts)-1]
	st := fr.Before(last)
	if got := st.get("l", "r").Alias; got != pathmatrix.NoAlias {
		t.Errorf("left and right children must be provably distinct, got %v\n%s", got, st.PM)
	}
	// And both are below t.
	if st.get("t", "l").Alias != pathmatrix.NoAlias {
		t.Error("t and t->left are distinct along an acyclic dimension")
	}
}

// TestUnknownDirectionStaysPossible: with an unannotated field, the
// child may alias anything.
func TestUnknownDirectionStaysPossible(t *testing.T) {
	src := adds.ListNodeSrc + `
procedure f(ListNode *a, ListNode *b) {
  var ListNode *c = a->next;
  print(1);
}
`
	prog, fr := analyzeOne(t, src, "f")
	fn := prog.Func("f")
	last := fn.Body.Stmts[len(fn.Body.Stmts)-1]
	st := fr.Before(last)
	if st.get("c", "a").Alias == pathmatrix.NoAlias {
		t.Error("possibly-cyclic next: c may alias a")
	}
	if st.get("c", "b").Alias == pathmatrix.NoAlias {
		t.Error("c may alias unrelated b")
	}
}

// TestIfJoin: facts proven in only one branch weaken at the join.
func TestIfJoin(t *testing.T) {
	src := adds.OneWayListSrc + `
procedure f(OneWayList *a, OneWayList *b, bool cond) {
  var OneWayList *p = NULL;
  if cond {
    p = a;
  } else {
    p = b;
  }
  print(1);
}
`
	prog, fr := analyzeOne(t, src, "f")
	fn := prog.Func("f")
	last := fn.Body.Stmts[len(fn.Body.Stmts)-1]
	st := fr.Before(last)
	if st.get("p", "a").Alias != pathmatrix.PossibleAlias {
		t.Errorf("p/a after join = %v, want possible", st.get("p", "a").Alias)
	}
	if st.get("p", "b").Alias != pathmatrix.PossibleAlias {
		t.Errorf("p/b after join = %v, want possible", st.get("p", "b").Alias)
	}
}

// TestNeqRefinement: if p != q then inside the branch they do not alias.
func TestNeqRefinement(t *testing.T) {
	src := adds.OneWayListSrc + `
procedure f(OneWayList *p, OneWayList *q) {
  if p != q {
    print(1);
  }
}
`
	prog, fr := analyzeOne(t, src, "f")
	fn := prog.Func("f")
	ifs := fn.Body.Stmts[0].(*lang.IfStmt)
	st := fr.Before(ifs.Then.Stmts[0])
	if st.get("p", "q").Alias != pathmatrix.NoAlias {
		t.Errorf("p != q branch: alias = %v, want NoAlias", st.get("p", "q").Alias)
	}
}

// TestEqNullRefinement: after "if p == NULL", p aliases nothing inside.
func TestEqNullRefinement(t *testing.T) {
	src := adds.OneWayListSrc + `
procedure f(OneWayList *p, OneWayList *q) {
  if p == NULL {
    print(1);
  }
}
`
	prog, fr := analyzeOne(t, src, "f")
	fn := prog.Func("f")
	ifs := fn.Body.Stmts[0].(*lang.IfStmt)
	st := fr.Before(ifs.Then.Stmts[0])
	if st.get("p", "q").Alias != pathmatrix.NoAlias {
		t.Error("NULL pointer aliases nothing")
	}
}

// TestCalleeStoreInvalidatesPaths: calling a function that stores next
// must drop definite next paths in the caller, but caller handle
// aliasing facts survive.
func TestCalleeStoreInvalidatesPaths(t *testing.T) {
	src := adds.OneWayListSrc + `
procedure mutate(OneWayList *x) {
  x->next = NULL;
}

procedure f(OneWayList *head) {
  var OneWayList *p = head->next;
  mutate(head);
  print(1);
}
`
	prog, fr := analyzeOne(t, src, "f")
	fn := prog.Func("f")
	last := fn.Body.Stmts[len(fn.Body.Stmts)-1]
	st := fr.Before(last)
	e := st.get("head", "p")
	if e.HasPath() {
		t.Errorf("definite next path must not survive mutate(): %q", e)
	}
	if e.Alias != pathmatrix.NoAlias {
		t.Errorf("handle aliasing cannot be changed by a callee: %v", e.Alias)
	}
}

// TestCalleeViolationPropagates: a callee that exits with a broken
// abstraction poisons its caller.
func TestCalleeViolationPropagates(t *testing.T) {
	src := adds.OneWayListSrc + `
procedure breakit(OneWayList *x) {
  x->next = x;
}

procedure f(OneWayList *head) {
  breakit(head);
}
`
	_, fr := analyzeOne(t, src, "f")
	if fr.Exit.Valid("OneWayList", "X") {
		t.Error("callee violation must propagate to the caller")
	}
}

// TestRecursiveFunctionConverges: recursion must not hang the analyzer.
func TestRecursiveFunctionConverges(t *testing.T) {
	src := adds.BinTreeSrc + `
function int count(BinTree *t) {
  if t == NULL {
    return 0;
  }
  return 1 + count(t->left) + count(t->right);
}
`
	_, fr := analyzeOne(t, src, "count")
	if len(fr.Exit.Violations) != 0 {
		t.Errorf("read-only recursion is violation-free, got %v", fr.Exit.ViolationKeys())
	}
}

// TestTwoWayListBackwardLoad: loading prev gives no-alias against the
// loaded-from handle (acyclic direction) but stays possible against
// unrelated handles.
func TestTwoWayListBackwardLoad(t *testing.T) {
	src := adds.TwoWayListSrc + `
procedure f(TwoWayList *a, TwoWayList *b) {
  var TwoWayList *p = a->prev;
  print(1);
}
`
	prog, fr := analyzeOne(t, src, "f")
	fn := prog.Func("f")
	last := fn.Body.Stmts[len(fn.Body.Stmts)-1]
	st := fr.Before(last)
	if st.get("a", "p").Alias != pathmatrix.NoAlias {
		t.Error("a and a->prev are distinct (prev is acyclic backward)")
	}
	if st.get("b", "p").Alias == pathmatrix.NoAlias {
		t.Error("backward load gives no disjointness against unrelated handles")
	}
}

// TestMatrixRendering: the printed matrix contains the paper's glyphs.
func TestMatrixRendering(t *testing.T) {
	prog, fr := analyzeOne(t, polyProgram, "scale")
	scale := prog.Func("scale")
	adv, _ := FindAssign(scale, "p = p->next;")
	s := fr.After(adv).PM.String()
	if !strings.Contains(s, "next+") {
		t.Errorf("expected next+ in matrix:\n%s", s)
	}
	if !strings.Contains(s, "p'") {
		t.Errorf("expected primed handle in matrix:\n%s", s)
	}
}

// TestOctreeLeavesTraversal: the BHL1-style loop over the leaves list of
// an octree proves strict advance.
func TestOctreeLeavesTraversal(t *testing.T) {
	src := adds.OctreeSrc + `
procedure walk(Octree *particles) {
  var Octree *p = particles;
  while p != NULL {
    p->forcex = 0.0;
    p = p->next;
  }
}
`
	prog, fr := analyzeOne(t, src, "walk")
	fn := prog.Func("walk")
	loop, _ := FindLoop(fn, 0)
	if !fr.advances(loop, "p") {
		t.Error("octree leaves traversal must strictly advance")
	}
}

// cycleListSrc is the list program of the root package's
// TestBrokenDeclarationsAreFlagged, cycle row: build makes a four-node
// list head → … → tail in a loop and closes it, tail->next = head.
const cycleListSrc = `
type OneWayList [X]
{ int data;
  OneWayList *next is uniquely forward along X;
};

function OneWayList * build() {
  var OneWayList *tail = new OneWayList;
  var OneWayList *head = tail;
  var int i = 0;
  while i < 3 {
    var OneWayList *t = new OneWayList;
    t->data = i;
    t->next = head;
    head = t;
    i = i + 1;
  }
  tail->next = head;
  return head;
}

procedure first(OneWayList *tail) {
  var OneWayList *head = tail;
  var OneWayList *t = new OneWayList;
  t->next = head;
}
`

// TestCycleDropPoint locates where ROADMAP item 2(b)'s next+ path
// between head and tail is lost, by pinning the entries at the three
// candidate points. It is the store rule: p->f = q records the new edge
// between p and q alone and composes it with none of q's relationships.
// So t->next = head gives t→head "next" but nothing from t to tail —
// even on the first trip, where head is a definite alias of tail (first
// shows it without the loop) and t→tail should be "next". The kill on
// head = t then copies t's empty row to head, and the back edge joins
// that with the loop entry's "=" into "=?" — both faithful to what
// they are given (a star would carry next* across the back edge had the
// store recorded next). tail->next = head then sees head =? tail and
// records a possible alias, not a cycle, and build exits valid. Nothing
// here is fixed: the pinned entries are today's.
func TestCycleDropPoint(t *testing.T) {
	prog := lang.MustParse(cycleListSrc)
	res, err := New(prog).AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	entry := func(st *State, r, c string) string { return st.get(r, c).String() }
	after := func(fn, stmt string) *State {
		t.Helper()
		as, err := FindAssign(prog.Func(fn), stmt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Funcs[fn].After(as)
	}

	// The store, without the loop: head = tail, yet t→tail stays empty.
	st := after("first", "t->next = head;")
	if got := [3]string{entry(st, "head", "tail"), entry(st, "t", "head"), entry(st, "t", "tail")}; got != [3]string{"=", "next", ""} {
		t.Errorf("first, after the store: head→tail, t→head, t→tail = %q", got)
	}
	// The store in the loop (its last trip).
	st = after("build", "t->next = head;")
	if got := [3]string{entry(st, "head", "tail"), entry(st, "t", "head"), entry(st, "t", "tail")}; got != [3]string{"=?", "next", ""} {
		t.Errorf("build, after the store: head→tail, t→head, t→tail = %q", got)
	}
	// The kill on head = t.
	if st := after("build", "head = t;"); entry(st, "head", "tail") != "" || entry(st, "tail", "head") != "" {
		t.Errorf("build, after head = t: head→tail %q, tail→head %q, want both empty", entry(st, "head", "tail"), entry(st, "tail", "head"))
	}
	// The back edge: the body exit's empty entry joins the entry's "=".
	loop, err := FindLoop(prog.Func("build"), 0)
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Funcs["build"]
	if body, inv := fr.LoopBodyExit[loop], fr.LoopInvariant[loop]; entry(body, "head", "tail") != "" || entry(inv, "head", "tail") != "=?" {
		t.Errorf("build's loop: body exit head→tail %q, invariant %q; want \"\" and \"=?\"", entry(body, "head", "tail"), entry(inv, "head", "tail"))
	}
	// The closing store sees a possible alias, not a cycle.
	if st := after("build", "tail->next = head;"); entry(st, "tail", "head") != "=?,next" || len(fr.Exit.Violations) != 0 {
		t.Errorf("build, after tail->next = head: tail→head %q, exit violations %v; want \"=?,next\" and none", entry(st, "tail", "head"), fr.Exit.ViolationKeys())
	}
}

// TestCallResultDropsProvenance: p = f(…) gives p a new value, so the
// forward-load fact p held before (x came from h along a) no longer
// describes it. f and g differ only in what x held before the call;
// after "y = h->fb" — and getb returns h->fb, so x == y at run time —
// the two states must agree on x and y, and may not say they are
// disjoint.
func TestCallResultDropsProvenance(t *testing.T) {
	const src = `
type T [a][b] where a||b
{ int data;
  T *fa is uniquely forward along a;
  T *fb is uniquely forward along b;
};

function T * getb(T *h) {
  return h->fb;
}

procedure f(T *h) {
  var T *x = h->fa;
  var T *y = NULL;
  x = getb(h);
  y = h->fb;
}

procedure g(T *h) {
  var T *x = NULL;
  var T *y = NULL;
  x = getb(h);
  y = h->fb;
}
`
	entry := func(fn string) pathmatrix.Entry {
		prog, fr := analyzeOne(t, src, fn)
		as, err := FindAssign(prog.Func(fn), "y = h->fb;")
		if err != nil {
			t.Fatal(err)
		}
		st := fr.After(as)
		if st == nil {
			t.Fatalf("%s: no state after y = h->fb", fn)
		}
		if _, ok := st.Prov[st.handle("x")]; ok {
			t.Errorf("%s: x keeps a provenance after x = getb(h)", fn)
		}
		return st.get("x", "y")
	}
	f, g := entry("f"), entry("g")
	if f.String() != g.String() {
		t.Errorf("x/y after y = h->fb: f has %v, g has %v", f, g)
	}
	if f.Alias == pathmatrix.NoAlias {
		t.Errorf("x/y = %v: x = getb(h) may be h->fb, so x and y may alias", f)
	}
}

// TestNestedLoopDropsOuterPrime pins ROADMAP item 2(c) as it stands,
// the guard its fix flips: a pointer variable has one prime per
// function, and the inner while drops q' at its exit, so the outer
// loop's back edge never carries q'. The outer head's invariant then
// holds q' = h and q' = p at once — both definite aliases, although p
// advances past h. The dependence test reads only the body exit, where
// q' is dead, so no verdict rests on it today.
func TestNestedLoopDropsOuterPrime(t *testing.T) {
	prog, fr := analyzeOne(t, adds.OneWayListSrc+`
procedure f(OneWayList *h) {
  var OneWayList *p = h;
  var OneWayList *q = h;
  while p != NULL {
    q = p;
    while q != NULL {
      q = q->next;
    }
    p = p->next;
  }
}
`, "f")
	outer, err := FindLoop(prog.Func("f"), 0)
	if err != nil {
		t.Fatal(err)
	}
	inv := fr.LoopInvariant[outer]
	if got := [2]string{inv.get("q'", "h").String(), inv.get("q'", "p").String()}; got != [2]string{"=", "="} {
		t.Errorf("outer invariant: q'→h, q'→p = %q, want both \"=\" (item 2(c)'s dropped prime)\n%s", got, inv)
	}
	if body := fr.LoopBodyExit[outer]; body.handle("q'") >= 0 {
		t.Errorf("outer body exit holds q' live; item 2(c) says the inner loop drops it\n%s", body)
	}
}
