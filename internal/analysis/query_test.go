package analysis

import (
	"testing"

	"repro/internal/adds"
	"repro/internal/lang"
	"repro/internal/pathmatrix"
)

func TestFindLoopAndAssignErrors(t *testing.T) {
	prog := lang.MustParse(adds.OneWayListSrc + `
procedure f(OneWayList *p) {
  p->data = 1;
}`)
	fn := prog.Func("f")
	if _, err := FindLoop(fn, 0); err == nil {
		t.Error("no loops: FindLoop must error")
	}
	if _, err := FindAssign(fn, "q = q->next;"); err == nil {
		t.Error("missing assignment: FindAssign must error")
	}
	if _, err := FindAssign(fn, "p->data = 1;"); err != nil {
		t.Errorf("existing assignment not found: %v", err)
	}
}

// analyzeFunc analyzes the whole program and returns fn's result.
func analyzeFunc(t *testing.T, prog *lang.Program, fn string) *FuncResult {
	t.Helper()
	res, err := New(prog).AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	return res.Funcs[fn]
}

// TestMayAliasAtConservativeFallbacks: two pointer parameters may
// alias, a fresh node aliases neither, a handle the function never
// declares has no row, and a statement the function does not hold has
// no state — the facts a may-alias question reads, and where it must
// answer "may".
func TestMayAliasAtConservativeFallbacks(t *testing.T) {
	prog := lang.MustParse(adds.OneWayListSrc + `
procedure f(OneWayList *a, OneWayList *b) {
  var OneWayList *n = new OneWayList;
  print(1);
}`)
	fr := analyzeFunc(t, prog, "f")
	fn := prog.Func("f")
	st := fr.Before(fn.Body.Stmts[len(fn.Body.Stmts)-1])
	if st.get("a", "b").Alias == pathmatrix.NoAlias {
		t.Error("two parameters must be possible aliases")
	}
	if st.get("n", "a").Alias != pathmatrix.NoAlias {
		t.Error("fresh node cannot alias a parameter")
	}
	if st.handle("zz") >= 0 {
		t.Error("an undeclared handle has a row")
	}
	fake := &lang.ReturnStmt{}
	if fr.Before(fake) != nil || fr.After(fake) != nil {
		t.Error("unreached statement has no states")
	}
}

func TestAnalyzeUnknownFunction(t *testing.T) {
	prog := lang.MustParse(adds.OneWayListSrc + `procedure f(OneWayList *p) { }`)
	if fr := analyzeFunc(t, prog, "nosuch"); fr != nil {
		t.Errorf("unknown function has a result: %+v", fr)
	}
}

func TestViolationKeyString(t *testing.T) {
	k := ViolationKey{Type: "Octree", Dim: "down", Kind: Sharing}
	if k.String() != "sharing of Octree along down" {
		t.Errorf("key = %q", k.String())
	}
	k2 := ViolationKey{Type: "List", Dim: "X", Kind: Cycle}
	if k2.String() != "cycle of List along X" {
		t.Errorf("key = %q", k2.String())
	}
}

func TestStoresPointerFieldsQuery(t *testing.T) {
	prog := lang.MustParse(adds.OneWayListSrc + `
procedure mut(OneWayList *p) {
  p->next = NULL;
}
procedure ro(OneWayList *p) {
  p->data = 1;
}`)
	res, err := New(prog).AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	if pw := res.Effects.FuncSummary(0).PointerWrites(); len(pw) != 1 || pw[0].Field() != "next" {
		t.Errorf("mut stores = %v", pw)
	}
	if pw := res.Effects.FuncSummary(1).PointerWrites(); len(pw) != 0 {
		t.Errorf("ro stores = %v", pw)
	}
	for _, i := range []int{-1, len(prog.Funcs)} {
		if sum := res.Effects.FuncSummary(i); sum != nil {
			t.Errorf("summary of function %d = %v, want nil", i, sum)
		}
	}
}

// TestUninitializedPointerVar: a declared-but-uninitialized pointer is
// treated as NULL (aliases nothing).
func TestUninitializedPointerVar(t *testing.T) {
	prog := lang.MustParse(adds.OneWayListSrc + `
procedure f(OneWayList *a) {
  var OneWayList *p;
  print(1);
}`)
	fr := analyzeFunc(t, prog, "f")
	fn := prog.Func("f")
	last := fn.Body.Stmts[len(fn.Body.Stmts)-1]
	if fr.Before(last).get("p", "a").Alias != pathmatrix.NoAlias {
		t.Error("uninitialized pointer aliases nothing")
	}
}

// TestScopedHandleRemoved: a block-local pointer disappears from the
// matrix after its block.
func TestScopedHandleRemoved(t *testing.T) {
	prog := lang.MustParse(adds.OneWayListSrc + `
procedure f(OneWayList *a, bool c) {
  if c {
    var OneWayList *tmp = a;
    tmp->data = 1;
  }
  print(1);
}`)
	fr := analyzeFunc(t, prog, "f")
	fn := prog.Func("f")
	last := fn.Body.Stmts[len(fn.Body.Stmts)-1]
	st := fr.Before(last)
	if st.handle("tmp") >= 0 {
		t.Error("block-local handle must be removed at scope exit")
	}
}

// shadowSrc assigns p = s, where s aliases the outer q, on the branch
// that declares an inner pointer named inner.
func shadowSrc(fn, inner string) string {
	return `
procedure ` + fn + `(OneWayList *head, int k) {
  var OneWayList *q = head; var OneWayList *s = q;
  var OneWayList *p = new OneWayList;
  if k == 0 { var OneWayList *` + inner + ` = new OneWayList; ` + inner + `->data = 1; p = s; }
  var OneWayList *r = q;
  while r != NULL { r->data = p->data + 1; r = r->next; }
}`
}

// TestShadowingKeepsOuterHandle: an inner declaration that shadows q is
// a handle of its own, so its scope exit leaves the outer q's row in
// place. Before the loop p == q whenever k == 0, so the q/p entry must
// be a possible alias, exactly as when the inner variable is named q2.
func TestShadowingKeepsOuterHandle(t *testing.T) {
	prog := lang.MustParse(adds.OneWayListSrc + shadowSrc("f", "q") + shadowSrc("g", "q2"))
	res, err := New(prog).AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	before := func(fn string) *State {
		loop, err := FindLoop(prog.Func(fn), 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Funcs[fn].Before(loop)
	}
	f, g := before("f"), before("g")
	if got := f.get("q", "p").Alias; got != pathmatrix.PossibleAlias {
		t.Errorf("shadowed: q/p = %v, want =?\n%s", got, f.PM)
	}
	if f.PM.String() != g.PM.String() {
		t.Errorf("shadowing changed the matrix before the loop:\n%s\nrenamed:\n%s", f.PM, g.PM)
	}
}

// TestLoopBodyAlwaysReturns: a while whose body returns is analyzed
// without hanging and the loop runs at most once.
func TestLoopBodyAlwaysReturns(t *testing.T) {
	prog := lang.MustParse(adds.OneWayListSrc + `
function OneWayList * f(OneWayList *p) {
  while p != NULL {
    return p;
  }
  return NULL;
}`)
	fr := analyzeFunc(t, prog, "f")
	if fr.Exit == nil {
		t.Fatal("no exit state")
	}
}
