package transform

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/adds"
	"repro/internal/depend"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/parexec"
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

// shadowTwins are valid variants of scaleSrc whose loop body redeclares,
// in a nested block, a name it also uses from outside the loop: an
// outer int c it reads, an outer s it writes, an outer q it stores
// through. Each has a twin that names the inner variable differently.
// The inner declaration is another variable, so each pair is one
// program and must get one plan. Every variant keeps scale's loop, the
// one loop the planner approves.
var shadowTwins = []struct{ name, old, shadowed, renamed string }{
	{"scale reads outer c", scaleProc, `
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
}
`, `
procedure scale(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data * c;
    if p->data > 50 {
      var int d = 2;
      p->data = p->data - d;
    }
    p = p->next;
  }
}
`},
	{"sum writes outer s", "    s = s + p->data;\n", `    s = s + p->data;
    if s > 50 {
      var int s = 1;
      p->data = p->data + s;
    }
`, `    s = s + p->data;
    if s > 50 {
      var int t = 1;
      p->data = p->data + t;
    }
`},
	{"bump stores through outer q", mainOpening, `procedure bump(OneWayList *head) {
  var OneWayList *q = head;
  var OneWayList *p = head;
  while p != NULL {
    q->data = q->data + 1;
    if p->data > 50 {
      var OneWayList *q = p;
      q->data = q->data - 1;
    }
    p = p->next;
  }
}

` + mainOpening + "  bump(h);\n", `procedure bump(OneWayList *head) {
  var OneWayList *q = head;
  var OneWayList *p = head;
  while p != NULL {
    q->data = q->data + 1;
    if p->data > 50 {
      var OneWayList *r = p;
      r->data = r->data - 1;
    }
    p = p->next;
  }
}

` + mainOpening + "  bump(h);\n"},
}

// mainOpening is scaleSrc's main up to its call of scale.
const mainOpening = "function int main(int n, int c) {\n  var OneWayList *h = build(n);\n  scale(h, c);\n"

// TestShadowedNamesPlanAsTheirTwins: the dependence test and the
// strip-miner scope a loop by the checker's slots, so a nested
// declaration that reuses an outer name changes nothing — not the
// verdicts, not the helper's parameters.
func TestShadowedNamesPlanAsTheirTwins(t *testing.T) {
	for _, tc := range shadowTwins {
		t.Run(tc.name, func(t *testing.T) {
			if !strings.Contains(scaleSrc, tc.old) {
				t.Fatalf("scaleSrc no longer holds %q", tc.old)
			}
			prog := lang.MustParse(strings.Replace(scaleSrc, tc.old, tc.shadowed, 1))
			twin := lang.MustParse(strings.Replace(scaleSrc, tc.old, tc.renamed, 1))
			assertPlansAsTwin(t, prog, twin, "scale")
		})
	}
}

// assertPlansAsTwin: prog plans, its plan reads as its renamed twin's,
// fn#0 is the one approved loop, StripMine of it writes the planner's
// program, and the planned program computes what the serial one does on
// the walker, the kernel engine and a pool of 2 PEs.
func assertPlansAsTwin(t *testing.T, prog, twin *lang.Program, fn string) {
	t.Helper()
	plan, err := AutoParallelize(prog, 4)
	if err != nil {
		t.Fatalf("AutoParallelize: %v", err)
	}
	twinPlan, err := AutoParallelize(twin, 4)
	if err != nil {
		t.Fatalf("AutoParallelize (twin): %v", err)
	}
	if got, want := plan.String(), twinPlan.String(); got != want {
		t.Errorf("plan differs from the renamed twin's:\n%s\n--- twin ---\n%s", got, want)
	}
	if plan.Parallelized != 1 || !loopByFunc(t, plan, fn, 0).Parallelized {
		t.Fatalf("want %s#0 the one approved loop:\n%s", fn, plan)
	}
	sm, err := StripMine(prog, fn, 0, 4)
	if err != nil {
		t.Fatalf("StripMine: %v", err)
	}
	if got, want := lang.Format(sm.Program), lang.Format(plan.Program); got != want {
		t.Errorf("StripMine and AutoParallelize disagree:\n%s\n---\n%s", got, want)
	}

	args := []interp.Value{interp.IntVal(37), interp.IntVal(3)}
	want, _, err := interp.Run(prog, interp.Config{Engine: interp.EngineWalk}, "main", args...)
	if err != nil {
		t.Fatal(err)
	}
	if tw, _, err := interp.Run(twin, interp.Config{Engine: interp.EngineWalk}, "main", args...); err != nil || tw.I != want.I {
		t.Fatalf("twin returned %d (%v), the program %d", tw.I, err, want.I)
	}
	runs := map[string]func() (interp.Value, interp.Stats, error){
		"walk": func() (interp.Value, interp.Stats, error) {
			return interp.Run(plan.Program, interp.Config{Engine: interp.EngineWalk}, "main", args...)
		},
		"kernel": func() (interp.Value, interp.Stats, error) {
			return interp.Run(plan.Program, interp.Config{Engine: interp.EngineKernel}, "main", args...)
		},
		"2 PEs": func() (interp.Value, interp.Stats, error) {
			return parexec.Run(plan.Program, parexec.Options{PEs: 2}, "main", args...)
		},
	}
	for leg, run := range runs {
		got, _, err := run()
		if err != nil {
			t.Fatalf("%s: planned program: %v\n%s", leg, err, lang.Format(plan.Program))
		}
		if got.I != want.I {
			t.Errorf("%s: planned program returned %d, serial %d", leg, got.I, want.I)
		}
	}
}

// anchorTwinSrc is a list loop whose body reads the outer pointer q
// and, in a nested block, declares a pointer named inner at the
// iteration's own node and writes through it; main runs it on a list of
// n nodes.
func anchorTwinSrc(inner string) string {
	return strings.ReplaceAll(`type L [X] { int v; int w; L *next is uniquely forward along X; };
procedure work(L *head, L *q, int c) {
  var L *p = head;
  while p != NULL {
    p->v = q->w + c;
    if p->v > 5 {
      var L *INNER = p;
      INNER->v = c;
    }
    p = p->next;
  }
}
function int main(int n, int c) {
  var L *h = NULL;
  var int i = n;
  while i > 0 {
    var L *x = new L;
    x->w = i;
    x->next = h;
    h = x;
    i = i - 1;
  }
  work(h, h, c * 2);
  var int s = 0;
  var L *p = h;
  while p != NULL {
    s = s * 3 + p->v;
    p = p->next;
  }
  return s;
}
`, "INNER", inner)
}

// TestShadowedAnchorsPlanAsTheirTwins: the effect summaries anchor a
// region to a variable's slot, not its name, so an inner q that points
// at the iteration's own node writes there — W p.v — and the outer q
// the body reads stays a region of its own: work#0 is approved, as in
// its twin with the inner variable named r.
func TestShadowedAnchorsPlanAsTheirTwins(t *testing.T) {
	assertPlansAsTwin(t, lang.MustParse(anchorTwinSrc("q")), lang.MustParse(anchorTwinSrc("r")), "work")
}
