package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/depend"
	"repro/internal/transform"
)

// forallBodyList is a list loop whose body already holds a forall. Each
// iteration touches only its own node, so checks 1–6 of the dependence
// test approve it; the nesting guard rejects it, for the planner and
// for every other caller alike.
const forallBodyList = `
type OneWayList [X]
{ int data;
  OneWayList *next is uniquely forward along X;
};

procedure twice(OneWayList *head) {
  var OneWayList *p = head;
  while p != NULL {
    forall i = 0 to 0 {
      p->data = p->data * 2;
    }
    p = p->next;
  }
}
`

// assertOneVerdict plans src and holds every other caller to the plan's
// verdict on each loop it did not absorb: core's LoopReports, StripMine
// (which succeeds exactly when the loop is approved, and otherwise
// fails with the verdict's reasons) and X1's ADDS column. The reasons
// must match too, except on a rejected loop around an approved one,
// whose plan entry says its body will hold that loop's forall.
func assertOneVerdict(t *testing.T, src string) {
	t.Helper()
	c, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := c.AutoParallel(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, lp := range auto.Plan.Loops {
		if lp.Absorbed {
			continue
		}
		at := fmt.Sprintf("%s#%d", lp.Func, lp.Index)
		want := lp.Report
		reps, err := c.LoopReports(lp.Func)
		if err != nil {
			t.Fatalf("%s: LoopReports: %v", at, err)
		}
		got := reps[lp.Index]
		if got.Parallelizable != want.Parallelizable {
			t.Errorf("%s: LoopReports says parallelizable = %t, the plan %t:\n%s\nplan: %s", at, got.Parallelizable, want.Parallelizable, got, lp)
		}
		around := false
		for _, in := range reps[lp.Index+1 : lp.Index+1+got.Nested] {
			around = around || in.Parallelizable
		}
		if why := strings.Join(got.Reasons, "; "); why != lp.ReasonText() && !around {
			t.Errorf("%s: LoopReports gives %q, the plan %q", at, why, lp.ReasonText())
		}

		_, err = c.StripMine(lp.Func, lp.Index, 4)
		if (err == nil) != want.Parallelizable {
			t.Errorf("%s: StripMine error %v, but the plan says parallelizable = %t", at, err, want.Parallelizable)
		} else if err != nil && !strings.Contains(err.Error(), strings.Join(got.Reasons, "\n  ")) {
			t.Errorf("%s: StripMine fails with\n%v\nwithout the verdict's reasons %q", at, err, got.Reasons)
		}

		v, err := c.CompareBaselines(lp.Func, lp.Index)
		if err != nil {
			t.Fatalf("%s: CompareBaselines: %v", at, err)
		}
		if v.ADDS != want.Parallelizable {
			t.Errorf("%s: X1's ADDS column says %t, the plan %t", at, v.ADDS, want.Parallelizable)
		}
		if v.ADDSReport.String() != got.String() {
			t.Errorf("%s: X1 reports\n%s\nbut LoopReports\n%s", at, v.ADDSReport, got)
		}
	}
}

// TestOneVerdictPerLoop: the planner, core's LoopReports, StripMine and
// X1 read one verdict per loop — depend's program verdict, the nesting
// guard and the declaration premise included — over the equivalence
// corpus, generated loop programs, every broken-declaration program and
// a loop whose body already holds a forall.
func TestOneVerdictPerLoop(t *testing.T) {
	type named struct{ name, src string }
	var srcs []named
	for _, p := range equivalenceCorpus(t) {
		srcs = append(srcs, named{p.name, p.src})
	}
	for seed := int64(1); seed <= 50; seed++ {
		srcs = append(srcs, named{fmt.Sprintf("genloop-%d", seed), transform.GenLoopProgramPSL(seed)})
	}
	for _, tc := range brokenDeclarations(t) {
		srcs = append(srcs, named{"broken/" + tc.name, tc.src})
	}
	srcs = append(srcs, named{"forall-body", forallBodyList})
	for _, s := range srcs {
		t.Run(s.name, func(t *testing.T) { assertOneVerdict(t, s.src) })
	}
}

// TestStripMineRefusesForallBody: StripMine refuses a loop whose body
// already holds a forall with the planner's reason, where it once
// emitted a helper holding a nested forall.
func TestStripMineRefusesForallBody(t *testing.T) {
	c, err := core.Compile(forallBodyList)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := c.AutoParallel(4)
	if err != nil {
		t.Fatal(err)
	}
	if got := auto.Plan.Loops[0].ReasonText(); got != depend.NestedForall {
		t.Fatalf("the plan rejects twice#0 with %q, want %q", got, depend.NestedForall)
	}
	_, err = c.StripMine("twice", 0, 4)
	want := "transform: loop #0 of twice is not parallelizable:\ntwice.loop: NOT PARALLELIZABLE\n  " + depend.NestedForall
	if fmt.Sprint(err) != want {
		t.Errorf("StripMine(twice, 0) = %v, want %s", err, want)
	}
}
