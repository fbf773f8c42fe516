package depend

import (
	"strings"
	"testing"

	"repro/internal/adds"
	"repro/internal/lang"
)

func reports(t *testing.T, src, fn string) []*Report {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := AnalyzeAllLoops(prog, fn)
	if err != nil {
		t.Fatal(err)
	}
	return reps
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
	if !strings.Contains(reps[0].String(), "not `p != NULL`") {
		t.Errorf("reason:\n%s", reps[0])
	}
	if reps[1].Parallelizable {
		t.Error("no advance: not the canonical form")
	}
	if !strings.Contains(reps[1].String(), "does not end with") {
		t.Errorf("reason:\n%s", reps[1])
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
