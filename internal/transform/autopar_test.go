package transform

import (
	"strings"
	"testing"

	"repro/internal/adds"
	"repro/internal/interp"
	"repro/internal/lang"
)

// planFor is a test helper: plan with the given width and fail on error.
func planFor(t *testing.T, src string, width int) *Plan {
	t.Helper()
	plan, err := AutoParallelize(lang.MustParse(src), width)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// loopByFunc finds the plan entry for (fn, index).
func loopByFunc(t *testing.T, p *Plan, fn string, index int) *LoopPlan {
	t.Helper()
	for _, lp := range p.Loops {
		if lp.Func == fn && lp.Index == index {
			return lp
		}
	}
	t.Fatalf("plan has no entry for %s#%d:\n%s", fn, index, p)
	return nil
}

// TestAutoParallelizeMatchesStripMine: on the single-approved-loop
// program the planner must emit exactly the program the hand-wired
// StripMine call produces — same helper name, same text.
func TestAutoParallelizeMatchesStripMine(t *testing.T) {
	prog := lang.MustParse(scaleSrc)
	hand, err := StripMine(prog, "scale", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan := planFor(t, scaleSrc, 4)
	if got, want := lang.Format(plan.Program), lang.Format(hand.Program); got != want {
		t.Errorf("auto plan diverged from hand-tuned StripMine:\n--- auto ---\n%s\n--- hand ---\n%s", got, want)
	}
	if plan.Parallelized != 1 {
		t.Errorf("parallelized %d loops, want 1:\n%s", plan.Parallelized, plan)
	}
	lp := loopByFunc(t, plan, "scale", 0)
	if !lp.Parallelized || lp.Helper != "_scale_L0_iteration" || lp.Width != 4 {
		t.Errorf("scale#0 entry: %+v", lp)
	}
	// The rejected loops carry their dependence reports.
	for _, fn := range []string{"build", "total"} {
		lp := loopByFunc(t, plan, fn, 0)
		if lp.Parallelized || lp.Absorbed {
			t.Errorf("%s#0 should be rejected: %s", fn, lp)
		}
		if lp.Report == nil || len(lp.Report.Reasons) == 0 {
			t.Errorf("%s#0 rejection lacks a reason", fn)
		}
	}
	// The input program is untouched.
	if prog.Func("_scale_L0_iteration") != nil {
		t.Error("AutoParallelize modified its input program")
	}
}

// TestAutoParallelizeSiblings: two approved loops in one function (the
// BHL1/BHL2 shape) are both strip-mined, and the result equals the
// hand-written chain of StripMine calls in program order.
func TestAutoParallelizeSiblings(t *testing.T) {
	src := adds.OneWayListSrc + `
function OneWayList * build(int n) {
  var OneWayList *head = NULL;
  var int i = n;
  while i > 0 {
    var OneWayList *node = new OneWayList;
    node->data = i;
    node->next = head;
    head = node;
    i = i - 1;
  }
  return head;
}

procedure twopass(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data * c;
    p = p->next;
  }
  p = head;
  while p != NULL {
    p->data = p->data + 1;
    p = p->next;
  }
}

function int main(int n, int c) {
  var OneWayList *h = build(n);
  twopass(h, c);
  var int s = 0;
  var OneWayList *p = h;
  while p != NULL {
    s = s + p->data;
    p = p->next;
  }
  return s;
}
`
	prog := lang.MustParse(src)
	h1, err := StripMine(prog, "twopass", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := StripMine(h1.Program, "twopass", 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan := planFor(t, src, 8)
	if got, want := lang.Format(plan.Program), lang.Format(h2.Program); got != want {
		t.Errorf("auto plan diverged from the hand-tuned chain:\n--- auto ---\n%s\n--- hand ---\n%s", got, want)
	}
	if plan.Parallelized != 2 {
		t.Errorf("parallelized %d loops, want 2:\n%s", plan.Parallelized, plan)
	}
	// Semantics: the planned program reproduces the serial result.
	args := []interp.Value{interp.IntVal(37), interp.IntVal(3)}
	want, _, err := interp.Run(prog, interp.Config{Seed: 1}, "main", args...)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := interp.Run(plan.Program, interp.Config{Seed: 1}, "main", args...)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != want.I {
		t.Errorf("planned program returned %d, serial %d", got.I, want.I)
	}
}

// TestAutoParallelizeAbsorbsNestedLoops: a while loop nested in an
// approved body moves into the helper and is reported as absorbed,
// not rejected.
func TestAutoParallelizeAbsorbsNestedLoops(t *testing.T) {
	src := adds.OneWayListSrc + `
procedure crunch(OneWayList *head) {
  var OneWayList *p = head;
  while p != NULL {
    var int acc = 0;
    var int k = 0;
    while k < 100 {
      acc = acc + k;
      k = k + 1;
    }
    p->data = acc;
    p = p->next;
  }
}
`
	plan := planFor(t, src, 4)
	outer := loopByFunc(t, plan, "crunch", 0)
	if !outer.Parallelized {
		t.Fatalf("outer loop not parallelized:\n%s", plan)
	}
	inner := loopByFunc(t, plan, "crunch", 1)
	if !inner.Absorbed || inner.AbsorbedInto != outer.Helper {
		t.Errorf("inner loop entry: %+v (want absorbed into %s)", inner, outer.Helper)
	}
	if inner.Parallelized {
		t.Errorf("inner loop must not be independently parallelized")
	}
}

// TestAutoParallelizeNestedApprovedInRejected: an approved pointer-
// chasing loop inside a rejected counting loop is strip-mined in
// place — index bookkeeping survives the rewrite.
func TestAutoParallelizeNestedApprovedInRejected(t *testing.T) {
	src := adds.OneWayListSrc + `
procedure rounds(OneWayList *head, int c, int n) {
  var int r = 0;
  while r < n {
    var OneWayList *p = head;
    while p != NULL {
      p->data = p->data * c;
      p = p->next;
    }
    r = r + 1;
  }
}
`
	plan := planFor(t, src, 4)
	outer := loopByFunc(t, plan, "rounds", 0)
	if outer.Parallelized || outer.Absorbed {
		t.Errorf("counting loop should stay serial: %s", outer)
	}
	inner := loopByFunc(t, plan, "rounds", 1)
	if !inner.Parallelized {
		t.Fatalf("nested approved loop not parallelized:\n%s", plan)
	}
	text := lang.FormatFunc(plan.Program.Func("rounds"))
	if !strings.Contains(text, "forall") {
		t.Errorf("transformed rounds lacks forall:\n%s", text)
	}
}

// TestAutoParallelizeOriginalIndices: plan entries report the indices
// loops have in the *input* program, even for loops first reached
// after an earlier rewrite shifted the working program's indices (the
// nested W1 moves into a helper, so the sibling W2 is loop #1 of the
// rewritten function — but loop #2 of the caller's source, and that
// is what the plan must say).
func TestAutoParallelizeOriginalIndices(t *testing.T) {
	src := adds.OneWayListSrc + `
procedure work(OneWayList *head) {
  var OneWayList *p = head;
  while p != NULL {
    var int acc = 0;
    var int k = 0;
    while k < 10 {
      acc = acc + k;
      k = k + 1;
    }
    p->data = acc;
    p = p->next;
  }
  var int s = 0;
  p = head;
  while p != NULL {
    s = s + p->data;
    p = p->next;
  }
}
`
	plan := planFor(t, src, 4)
	if lp := loopByFunc(t, plan, "work", 0); !lp.Parallelized {
		t.Errorf("work#0: %s", lp)
	}
	if lp := loopByFunc(t, plan, "work", 1); !lp.Absorbed {
		t.Errorf("work#1: %s", lp)
	}
	lp := loopByFunc(t, plan, "work", 2) // fails if the plan mislabels W2 as #1
	if lp.Parallelized || lp.Absorbed || lp.Report == nil ||
		!strings.Contains(strings.Join(lp.Report.Reasons, " "), "loop-carried") {
		t.Errorf("work#2: %+v", lp)
	}
}

// TestAutoParallelizeRefusesNestedForall: a loop whose body already
// contains a forall (surface syntax here; a planner-transformed inner
// loop in general) is left serial with an explicit reason.
func TestAutoParallelizeRefusesNestedForall(t *testing.T) {
	src := adds.OneWayListSrc + `
procedure mixed(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    forall i = 0 to 3 {
      p->data = p->data + 0;
    }
    p->data = p->data * c;
    p = p->next;
  }
}
`
	plan := planFor(t, src, 4)
	if plan.Parallelized != 0 {
		t.Fatalf("nothing should be parallelized:\n%s", plan)
	}
	lp := loopByFunc(t, plan, "mixed", 0)
	if lp.Report == nil || !strings.Contains(strings.Join(lp.Report.Reasons, " "), "forall") {
		t.Errorf("missing nested-forall reason: %+v", lp)
	}
}

// TestAutoParallelizeDefaults: width <= 0 selects the host default,
// and the plan renders a readable summary.
func TestAutoParallelizeDefaults(t *testing.T) {
	plan := planFor(t, scaleSrc, 0)
	if plan.Width != DefaultWidth(0) {
		t.Errorf("width %d, want DefaultWidth(0) = %d", plan.Width, DefaultWidth(0))
	}
	for pes, want := range map[int]int{1: 16, 2: 32, 4: 64, 8: 128, 32: 128} {
		if got := DefaultWidth(pes); got != want {
			t.Errorf("DefaultWidth(%d) = %d, want %d (16 per PE, at most 128)", pes, got, want)
		}
	}
	s := plan.Summary()
	if !strings.Contains(s, "scale#0") || !strings.Contains(s, "parallelized 1/") {
		t.Errorf("summary %q", s)
	}
	if !strings.Contains(plan.String(), "PARALLELIZED") {
		t.Errorf("plan string lacks verdicts:\n%s", plan)
	}
}

// TestPlanOwnsItsCode: a plan that approved a loop carries the code the
// planner lowered to read the classifier's verdicts — built once, for
// exactly the program the plan reports — and every stage timing is
// filled; a plan that approved nothing lowered nothing.
func TestPlanOwnsItsCode(t *testing.T) {
	prog := lang.MustParse(scaleSrc)
	c0 := interp.CompileCount()
	plan, err := AutoParallelize(prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := interp.CompileCount() - c0; d != 1 {
		t.Errorf("planning built code %d times, want 1", d)
	}
	if plan.Code == nil || plan.Code.Err() != nil || plan.Code.Program() != plan.Program {
		t.Fatalf("plan.Code = %+v for program %p, want that program's working code", plan.Code, plan.Program)
	}
	if v, _, err := interp.RunCompiled(plan.Code, interp.Config{}, "main", interp.IntVal(20), interp.IntVal(3)); err != nil || v.I != 3*20*21/2 {
		t.Errorf("running plan.Code: %v, %v", v, err)
	}
	if tm := plan.Timings; tm.Analyze <= 0 || tm.Depend <= 0 || tm.Rewrite <= 0 || tm.Lower <= 0 {
		t.Errorf("timings not filled: %+v", tm)
	}

	c0 = interp.CompileCount()
	none := planFor(t, adds.OneWayListSrc+`
function int total(OneWayList *head) {
  var int s = 0;
  var OneWayList *p = head;
  while p != NULL {
    s = s + p->data;
    p = p->next;
  }
  return s;
}`, 4)
	if none.Parallelized != 0 || none.Code != nil || interp.CompileCount() != c0 {
		t.Errorf("a plan with no approvals has code %v after %d builds:\n%s", none.Code, interp.CompileCount()-c0, none)
	}
	if tm := none.Timings; tm.Depend <= 0 || tm.Rewrite != 0 || tm.Lower != 0 {
		t.Errorf("timings of a plan with no approvals: %+v", tm)
	}
}

// TestPlanSurvivesLoweringFailure: the classifier's verdict is advisory,
// so a planned program that does not compile still comes back as a
// plan, every approved loop saying why it has no vector verdict, and
// plan.Code reports the failure to whoever tries to run it. No source
// text gets there (a checked program compiles), so the AST is damaged by
// hand, in a function the rewrite does not touch and so does not
// re-check.
func TestPlanSurvivesLoweringFailure(t *testing.T) {
	prog := lang.MustParse(scaleSrc)
	body := prog.Func("total").Body
	body.Stmts[len(body.Stmts)-1].(*lang.ReturnStmt).Value.(*lang.Ident).Name = "nosuch"
	plan, err := AutoParallelize(prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	lp := loopByFunc(t, plan, "scale", 0)
	if !lp.Parallelized || lp.Vectorized || !strings.HasPrefix(lp.VectorReason, "kernel lowering unavailable: ") ||
		!strings.Contains(lp.VectorReason, "nosuch") {
		t.Errorf("approved loop of a program that does not compile: %+v", lp)
	}
	if plan.Code == nil || plan.Code.Err() == nil || !strings.Contains(lp.VectorReason, plan.Code.Err().Error()) {
		t.Errorf("plan.Code = %+v, want a handle whose Err is the stated reason %q", plan.Code, lp.VectorReason)
	}
}
