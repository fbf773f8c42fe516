package depend

import (
	"strings"
	"testing"

	"repro/internal/adds"
	"repro/internal/analysis"
	"repro/internal/lang"
)

// reports runs the dependence test on every while loop of fn.
func reports(t *testing.T, src, fn string) []*Report {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.New(prog).AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	var reps []*Report
	for i := 0; ; i++ {
		if _, err := analysis.FindLoop(prog.Func(fn), i); err != nil {
			return reps
		}
		rep, err := AnalyzeLoop(prog, res.Funcs[fn], res.Effects, fn, i)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
}

func TestScaleLoopParallelizable(t *testing.T) {
	reps := reports(t, adds.OneWayListSrc+`
procedure scale(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data * c;
    p = p->next;
  }
}`, "scale")
	if len(reps) != 1 {
		t.Fatalf("reports = %d", len(reps))
	}
	if !reps[0].Parallelizable {
		t.Errorf("scale loop must parallelize:\n%s", reps[0])
	}
	if reps[0].Induction != "p" || reps[0].AdvanceField != "next" {
		t.Errorf("induction=%q field=%q", reps[0].Induction, reps[0].AdvanceField)
	}
}

func TestUnannotatedListRejected(t *testing.T) {
	reps := reports(t, adds.ListNodeSrc+`
procedure scale(ListNode *head, int c) {
  var ListNode *p = head;
  while p != NULL {
    p->coef = p->coef * c;
    p = p->next;
  }
}`, "scale")
	if reps[0].Parallelizable {
		t.Error("unannotated list must not parallelize")
	}
	if !strings.Contains(reps[0].String(), "p' may alias p") {
		t.Errorf("reason should mention aliasing:\n%s", reps[0])
	}
}

func TestStructureMutationRejected(t *testing.T) {
	reps := reports(t, adds.OneWayListSrc+`
procedure chop(OneWayList *head) {
  var OneWayList *p = head;
  while p != NULL {
    p->next = NULL;
    p = p->next;
  }
}`, "chop")
	if reps[0].Parallelizable {
		t.Error("a loop that rearranges the structure must be rejected")
	}
}

func TestScalarReductionRejected(t *testing.T) {
	reps := reports(t, adds.OneWayListSrc+`
function int sum(OneWayList *head) {
  var int s = 0;
  var OneWayList *p = head;
  while p != NULL {
    s = s + p->data;
    p = p->next;
  }
  return s;
}`, "sum")
	if reps[0].Parallelizable {
		t.Error("scalar reduction is a loop-carried dependence")
	}
	if !strings.Contains(reps[0].String(), "outer scalar") {
		t.Errorf("reason should mention the scalar:\n%s", reps[0])
	}
}

func TestNeighborWriteRejected(t *testing.T) {
	// Writing through p->next touches the *next* iteration's node.
	reps := reports(t, adds.OneWayListSrc+`
procedure smear(OneWayList *head) {
  var OneWayList *p = head;
  while p != NULL {
    var OneWayList *q = p->next;
    if q != NULL {
      q->data = p->data;
    }
    p = p->next;
  }
}`, "smear")
	if reps[0].Parallelizable {
		t.Error("writes to neighbouring nodes must be rejected")
	}
}

const polyList = `
type Poly [X]
{ int coef, exp;
  Poly *next is uniquely forward along X;
};`

func TestDisjointFieldsAccepted(t *testing.T) {
	// Reading a field of every node is fine while writing a different
	// field of the own node — the BHL1 pattern.
	reps := reports(t, polyList+`
function int weigh(Poly *node) {
  return node->exp;
}
procedure f(Poly *head) {
  var Poly *p = head;
  while p != NULL {
    p->coef = weigh(head);
    p = p->next;
  }
}`, "f")
	if !reps[0].Parallelizable {
		t.Errorf("disjoint-field pattern must parallelize:\n%s", reps[0])
	}
}

func TestSameFieldGlobalReadRejected(t *testing.T) {
	// Same as above but reading the *same* field that is written.
	reps := reports(t, polyList+`
function int weigh(Poly *node) {
  return node->coef;
}
procedure f(Poly *head) {
  var Poly *p = head;
  while p != NULL {
    p->coef = weigh(head);
    p = p->next;
  }
}`, "f")
	if reps[0].Parallelizable {
		t.Errorf("read of the written field through another handle must conflict:\n%s", reps[0])
	}
}

func TestNonCanonicalLoopsReported(t *testing.T) {
	reps := reports(t, adds.OneWayListSrc+`
procedure f(OneWayList *head, int n) {
  var int i = 0;
  while i < n {
    i = i + 1;
  }
  var OneWayList *p = head;
  while p != NULL {
    print(1);
  }
}`, "f")
	if len(reps) != 2 {
		t.Fatalf("reports = %d", len(reps))
	}
	if reps[0].Parallelizable {
		t.Error("counted loop is not a pointer chase")
	}
	// Neither loop got as far as an advance, so neither verdict names
	// one: no "over" clause.
	if got, want := reps[0].String(), "f.loop: NOT PARALLELIZABLE\n  loop condition is not `p != NULL`"; got != want {
		t.Errorf("counted loop renders\n%s\nwant\n%s", got, want)
	}
	if reps[1].Parallelizable {
		t.Error("no advance: not the canonical form")
	}
	if got, want := reps[1].String(), "f.while p != NULL: NOT PARALLELIZABLE\n  loop body does not end with `p = p->f`"; got != want {
		t.Errorf("advance-less loop renders\n%s\nwant\n%s", got, want)
	}
}

// TestAnalyzeProgramScanAndNestingGuard: the program verdict comes in
// scan order, each report locating its loop (Index) and counting the
// loops nested in it (Nested); a loop whose body holds a forall is
// rejected by the nesting guard whatever checks 1–6 would say of it —
// here they approve it, as AnalyzeLoop shows — and its verdict, which
// never found an advance, names none.
func TestAnalyzeProgramScanAndNestingGuard(t *testing.T) {
	prog, err := lang.Parse(adds.OneWayListSrc + `
procedure twice(OneWayList *head) {
  var OneWayList *p = head;
  while p != NULL {
    forall i = 0 to 0 {
      p->data = p->data * 2;
    }
    p = p->next;
  }
}

procedure outer(OneWayList *head, int n) {
  var int k = 0;
  while k < n {
    var OneWayList *q = head;
    while q != NULL {
      q->data = q->data + 1;
      q = q->next;
    }
    k = k + 1;
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.New(prog).AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	reps, err := AnalyzeProgram(prog, res)
	if err != nil {
		t.Fatal(err)
	}
	type at struct {
		fn            string
		index, nested int
		ok            bool
	}
	want := []at{{"twice", 0, 0, false}, {"outer", 0, 1, false}, {"outer", 1, 0, true}}
	if len(reps) != len(want) {
		t.Fatalf("%d reports, want %d", len(reps), len(want))
	}
	for k, r := range reps {
		if got := (at{r.Func, r.Index, r.Nested, r.Parallelizable}); got != want[k] {
			t.Errorf("report %d = %+v, want %+v:\n%s", k, got, want[k], r)
		}
	}
	if got, want := reps[0].String(), "twice.loop: NOT PARALLELIZABLE\n  "+NestedForall; got != want {
		t.Errorf("nesting guard renders\n%s\nwant\n%s", got, want)
	}
	if alone, err := AnalyzeLoop(prog, res.Funcs["twice"], res.Effects, "twice", 0); err != nil || !alone.Parallelizable {
		t.Errorf("checks 1-6 on the forall-body loop: %v, %v; want it approved (the guard alone rejects it)", alone, err)
	}
}

// TestRandInLoopRejected: an iteration that draws from rand() — in the
// body or anywhere below it — shares the generator with every other
// iteration, and a parallel run serves the draws in completion order.
// The verdict must say so and name the call path. print() is no such
// hazard (its output is merged in iteration order).
func TestRandInLoopRejected(t *testing.T) {
	const helpers = `
function int draw() {
  if rand() < 0.5 { return 1; }
  return 0;
}
function int noisy() {
  return draw() + 1;
}
procedure show(OneWayList *p) {
  print(p->data);
}
`
	loop := func(stmt string) string {
		return adds.OneWayListSrc + helpers + `
procedure f(OneWayList *head) {
  var OneWayList *p = head;
  while p != NULL {
    ` + stmt + `
    p = p->next;
  }
}`
	}
	for _, c := range []struct{ stmt, path string }{
		{"if rand() < 0.5 { p->data = 0; }", "(rand())"},
		{"p->data = p->data + draw();", "(draw() -> rand())"},
		{"p->data = noisy();", "(noisy() -> draw() -> rand())"},
	} {
		rep := reports(t, loop(c.stmt), "f")[0]
		if rep.Parallelizable {
			t.Errorf("%s: a loop that draws from rand() must be rejected:\n%s", c.stmt, rep)
		}
		if got := strings.Join(rep.Reasons, "; "); !strings.Contains(got, "rand() stream "+c.path) {
			t.Errorf("%s: reason should name the call path %s, got %q", c.stmt, c.path, got)
		}
	}
	if rep := reports(t, loop("show(p);"), "f")[0]; !rep.Parallelizable {
		t.Errorf("a loop that only prints must stay approvable:\n%s", rep)
	}
}

// TestScopeBySlot: the body's scope is decided by declaration, not by
// name. A body that declares its own c in a nested block still reads
// the outer c, which is its one free variable; one that declares its
// own s still writes the outer s it assigns first.
func TestScopeBySlot(t *testing.T) {
	reps := reports(t, adds.OneWayListSrc+`
procedure scale(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data * c;
    if p->data > 50 {
      var int c = 2;
      p->data = p->data - c;
    }
    p = p->next;
  }
}`, "scale")
	r := reps[0]
	if !r.Parallelizable {
		t.Fatalf("scale loop must parallelize:\n%s", r)
	}
	if len(r.Free) != 1 || r.Free[0].Name != "c" || !lang.TypeEq(r.Free[0].Type, lang.Int) {
		t.Errorf("Free = %v, want the outer int c alone", r.Free)
	}
	if elem, ok := lang.IsPointer(r.IndType); !ok || elem != "OneWayList" {
		t.Errorf("IndType = %v, want OneWayList *", r.IndType)
	}
	for _, n := range []string{"p", "c"} {
		if !r.Names[n] {
			t.Errorf("Names lacks %q: %v", n, r.Names)
		}
	}

	reps = reports(t, adds.OneWayListSrc+`
function int total(OneWayList *head) {
  var int s = 0;
  var OneWayList *p = head;
  while p != NULL {
    s = s + p->data;
    if s > 50 {
      var int s = 1;
      p->data = p->data + s;
    }
    p = p->next;
  }
  return s;
}`, "total")
	if reps[0].Parallelizable || !strings.Contains(reps[0].String(), `body writes outer scalar "s"`) {
		t.Errorf("an outer s written beside an inner s must be a loop-carried dependence:\n%s", reps[0])
	}
}

// TestOuterPointerWriteRejected: a body that assigns a pointer declared
// outside the loop carries it from iteration to iteration, like a
// scalar, and a strip helper would assign its own copy: after a
// planned run q would still be NULL, and q->data would fault.
func TestOuterPointerWriteRejected(t *testing.T) {
	reps := reports(t, adds.OneWayListSrc+`
function int last(OneWayList *head) {
  var OneWayList *q = head;
  var OneWayList *p = head;
  while p != NULL {
    q = p;
    p = p->next;
  }
  return q->data;
}`, "last")
	if reps[0].Parallelizable || !strings.Contains(reps[0].String(), `body writes outer pointer "q"`) {
		t.Errorf("an outer pointer written in the body must be a loop-carried dependence:\n%s", reps[0])
	}
}
