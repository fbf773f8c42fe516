package transform

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/adds"
	"repro/internal/depend"
	"repro/internal/interp"
	"repro/internal/lang"
)

// TestAutoParallelizeDuplicateLoopPos: the planner keys loops by source
// position, so a program whose loops share one position (the classic
// hand-built-AST mistake: every node at the zero position) must be
// rejected up front with the typed error — not silently misplanned.
func TestAutoParallelizeDuplicateLoopPos(t *testing.T) {
	prog, err := lang.Parse(adds.OneWayListSrc + `
procedure work(OneWayList *head) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data + 1;
    p = p->next;
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	// Clone a function and install it under a new name: the clone's loop
	// keeps the original's position, exactly the duplicate the planner
	// must refuse.
	twin := prog.Clone().Func("work")
	twin.Name = "work2"
	if err := prog.AddFunc(twin); err != nil {
		t.Fatal(err)
	}

	_, err = AutoParallelize(prog, 4)
	if err == nil {
		t.Fatal("AutoParallelize accepted a program with duplicate loop positions")
	}
	var dup *DuplicateLoopPosError
	if !errors.As(err, &dup) {
		t.Fatalf("got %T (%v), want *DuplicateLoopPosError", err, err)
	}
	if dup.FuncA == dup.FuncB {
		t.Errorf("error names one function twice (%s); the duplicate spans work and work2", dup.FuncA)
	}
	for _, fn := range []string{dup.FuncA, dup.FuncB} {
		if fn != "work" && fn != "work2" {
			t.Errorf("error names unexpected function %q", fn)
		}
	}
}

// TestReasonTextJoinsAllReasons: a dependence report may carry several
// reasons (the approval case records three facts); the plan line must
// render every one, not just Reasons[0].
func TestReasonTextJoinsAllReasons(t *testing.T) {
	lp := &LoopPlan{
		Func:  "f",
		Index: 0,
		Report: &depend.Report{
			Parallelizable: false,
			Reasons: []string{
				"induction variable q does not strictly advance",
				"cross-iteration write/write conflict on field data",
			},
		},
	}
	text := lp.ReasonText()
	for _, want := range lp.Report.Reasons {
		if !strings.Contains(text, want) {
			t.Errorf("ReasonText dropped %q: %q", want, text)
		}
	}
	if want := lp.Report.Reasons[0] + "; " + lp.Report.Reasons[1]; text != want {
		t.Errorf("ReasonText = %q, want %q", text, want)
	}
	if line := lp.String(); !strings.Contains(line, lp.Report.Reasons[1]) {
		t.Errorf("String() dropped the second reason: %q", line)
	}

	empty := &LoopPlan{Func: "f", Report: &depend.Report{}}
	if got := empty.ReasonText(); got != "loop not analyzable" {
		t.Errorf("empty report ReasonText = %q, want fixed placeholder", got)
	}
}

// TestPlanIndicesNonNegative: every plan entry — including absorbed
// inner loops, which are located in a body the rewrite is about to
// replace — must carry a valid non-negative input-program index. The
// old planner silently recorded Index: -1 when indexOfLoop missed.
func TestPlanIndicesNonNegative(t *testing.T) {
	plan := planFor(t, adds.OneWayListSrc+`
procedure crunch(OneWayList *head) {
  var OneWayList *p = head;
  while p != NULL {
    var int acc = 0;
    var int k = 0;
    while k < 3 {
      acc = acc + p->data;
      k = k + 1;
    }
    p->data = acc;
    p = p->next;
  }
}
`, 4)
	absorbed := 0
	for _, lp := range plan.Loops {
		if lp.Index < 0 {
			t.Errorf("%s: negative plan index %d", lp.Func, lp.Index)
		}
		if lp.Absorbed {
			absorbed++
		}
	}
	if absorbed == 0 {
		t.Fatal("test program exercised no absorbed-loop path")
	}
}

// scaleProc is scaleSrc's scale procedure, the text the name-clash
// variants below replace.
const scaleProc = `
procedure scale(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data * c;
    p = p->next;
  }
}
`

// nameClashScales are valid variants of scale that already use a name
// the strip-mine rewrite would introduce: the PE index as a parameter
// the loop body reads, the skip-ahead counter as the induction handle,
// and the helper procedure itself.
var nameClashScales = map[string]string{
	"_pe is a free variable of the body": `
procedure scale(OneWayList *head, int _pe) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data * _pe;
    p = p->next;
  }
}
`,
	"_k is the induction handle, _pe a local": `
procedure scale(OneWayList *head, int c) {
  var OneWayList *_k = head;
  while _k != NULL {
    var int _pe = c;
    _k->data = _k->data * _pe;
    _k = _k->next;
  }
}
`,
	"the helper's name is a user procedure": `
procedure _scale_L0_iteration(int a) { }
procedure scale(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data * c;
    p = p->next;
  }
  _scale_L0_iteration(c);
}
`,
}

// TestStripMineAvoidsTakenNames: a program that already uses _pe, _k or
// the helper's name is as valid as any other — AutoParallelize and
// StripMine must rename what they synthesize, not fail the plan, and
// the planned program must compute what the serial one does on the
// oracle walker and on the default kernel engine.
func TestStripMineAvoidsTakenNames(t *testing.T) {
	if !strings.Contains(scaleSrc, scaleProc) {
		t.Fatal("scaleSrc no longer holds the scale procedure this test replaces")
	}
	for name, scale := range nameClashScales {
		t.Run(name, func(t *testing.T) {
			prog := lang.MustParse(strings.Replace(scaleSrc, scaleProc, scale, 1))
			plan, err := AutoParallelize(prog, 4)
			if err != nil {
				t.Fatalf("AutoParallelize: %v", err)
			}
			if lp := loopByFunc(t, plan, "scale", 0); !lp.Parallelized {
				t.Fatalf("scale#0 not parallelized:\n%s", plan)
			}
			sm, err := StripMine(prog, "scale", 0, 4)
			if err != nil {
				t.Fatalf("StripMine: %v", err)
			}
			if got, want := lang.Format(sm.Program), lang.Format(plan.Program); got != want {
				t.Errorf("StripMine and AutoParallelize disagree:\n%s\n---\n%s", got, want)
			}
			args := []interp.Value{interp.IntVal(37), interp.IntVal(3)}
			for _, engine := range []interp.Engine{interp.EngineWalk, interp.EngineKernel} {
				cfg := interp.Config{Engine: engine}
				want, _, err := interp.Run(prog, cfg, "main", args...)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := interp.Run(plan.Program, cfg, "main", args...)
				if err != nil {
					t.Fatalf("%s: planned program: %v\n%s", engine, err, lang.Format(plan.Program))
				}
				if got.I != want.I || want.I != 3*37*38/2 {
					t.Errorf("%s: planned program returned %d, serial %d, want %d", engine, got.I, want.I, 3*37*38/2)
				}
			}
		})
	}
}
