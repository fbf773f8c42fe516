package bytecode

import (
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/lang"
)

var costGates = flag.Bool("cost-gates", false, "also assert that classifying a strip costs time linear in its body (timing gate; CI's cost-gate step)")

// stripBodySrc is a strip over a list whose helper's guarded body is
// body; the helper's parameters give a body a real, an int, a pointer
// and a bool to use besides the lane index and the element.
func stripBodySrc(body string) string { return stripCallSrc(body, "k") }

// stripCallSrc is stripBodySrc with arg as the strip call's third
// argument, the helper's real parameter.
func stripCallSrc(body, arg string) string {
	return fmt.Sprintf(`
type C [L] { int tag; real w; real y; bool ok; C *next is uniquely forward along L; };
function int f(int x) { return x + 1; }
procedure g(C *r) { }
procedure _h(int _pe, C *p, real k, int n, C *q, bool b) {
  for _k = 1 to _pe { p = p->next; }
  if p != NULL {
%s
  }
}
function int main() {
  var C *p = NULL;
  var real k = 1.0;
  var int n = 2;
  var C *q = NULL;
  var bool b = true;
  forall _pe = 0 to 3 { _h(_pe, p, %s, n, q, b); }
  return 0;
}`, body, arg)
}

// stripSite lowers src and returns main's one forall.
func stripSite(t testing.TB, src string) *ForallSite {
	t.Helper()
	cp, err := compile.Compile(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	bp, err := Compile(cp)
	if err != nil {
		t.Fatal(err)
	}
	site := &bp.Func("main").Foralls[0]
	if site.Strip == nil {
		t.Fatalf("not a strip: %s", site.VectorReason)
	}
	return site
}

// TestVectorReasonPCOrder pins which reason a strip with more than one
// offence reports: a call argument a lane cannot bind from a caller
// register first, whatever the body; otherwise the reason of the guarded
// body's first offending instruction in pc order, a while loop offending
// at its head (the first instruction of its condition).
func TestVectorReasonPCOrder(t *testing.T) {
	for _, c := range []struct{ body, arg, want string }{
		{"print(p->tag);\n    var C *r = p->next;", "", "body prints"},
		{"g(p);\n    var C *r = new C;", "", "body calls function g"},
		{"q = new C;", "", "allocates"},
		{"for i = 1 to 3 { var C *r = p->next; }\n    print(1);", "", "body contains a loop"},
		{"while p->tag > 100 { print(p->tag); }", "", "body contains a loop"},
		{"while q->tag > 100 { p->tag = 1; }", "", "body contains a loop"},
		{"q->tag = f(p->tag);", "", "body calls function f"},
		// The lowering holds p->next in a pointer variable of its own.
		{"p->tag = f(p->next->tag);", "", "pointer-chasing access"},
		{"p->tag = p->next->tag + f(1);", "", "pointer-chasing access"},
		{"p->tag = f(_pe);", "", "body calls function f"},
		// The call is evaluated before the add that reads the lane index.
		{"p->tag = _pe + f(1);", "", "body calls function f"},
		{"var int t = f(1) + _pe;", "", "body calls function f"},
		{"p->w = rand() + _pe;", "", "body calls rand()"},
		// The lane index is widened to real before rand() is called.
		{"p->w = _pe + rand();", "", "uses the strip PE index"},
		{"_pe = 3;\n    return;", "", "uses the strip PE index"},
		{"if _pe > 1 { print(p->tag); }", "", "uses the strip PE index"},
		{"if p == q { print(1); }", "", "pointer-chasing access"},
		{"p->tag = p->tag + 1;\n    print(\"y\");", "", "body prints"},
		{"if b { p->w = p->w * k; } else { p->tag = p->tag % n; }", "", ""},
		// A literal or an expression argument takes an instruction of the
		// forall body, so a lane could not bind it from a register.
		{"p->w = k;", "1.0", "strip call argument is not in a caller register"},
		{"p->w = k;", "k + 1.0", "strip call argument is not in a caller register"},
		{"print(1);", "k + 1.0", "strip call argument is not in a caller register"},
	} {
		arg := c.arg
		if arg == "" {
			arg = "k"
		}
		if got := stripSite(t, stripCallSrc("    "+c.body, arg)).VectorReason; got != c.want {
			t.Errorf("body %q, argument %s: reason %q, want %q", c.body, arg, got, c.want)
		}
	}
}

// TestClassifyCostLinear: classifying a vectorizable strip and renaming
// it onto slabs costs time linear in the helper's body. The body is a
// variable loaded once and then read by every statement, plus a
// variable declared per statement — the shapes on which a search from
// each load for its readers, or from each read for the stores before
// it, costs the square of the body. Eight times the body must cost at
// most 24 times the time: 7–12 times in practice, where a square costs
// about sixty (2-vCPU host, go1.24). Tier-1 checks the kernel's shape,
// CI's cost-gate step the time.
func TestClassifyCostLinear(t *testing.T) {
	body := func(n int) string {
		var sb strings.Builder
		sb.WriteString("    var real t = p->w;\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "    var real a%d = p->w;\n    p->y = t + a%[1]d;\n", i)
		}
		return sb.String()
	}
	const small = 1000
	var cps [2]*compile.Program
	for i, n := range []int{small, 8 * small} {
		cp, err := compile.Compile(lang.MustParse(stripBodySrc(body(n))))
		if err != nil {
			t.Fatal(err)
		}
		cps[i] = cp
		bp, err := Compile(cp)
		if err != nil {
			t.Fatal(err)
		}
		// Every load goes and every store folds into its add: per pair of
		// statements two steps and an add, and the first statement's step.
		site := bp.Func("main").Foralls[0]
		if site.Kernel == nil || len(site.Kernel.Code) != 3*n+1 {
			t.Fatalf("%d statement pairs: kernel %t (%s), want %d instructions", n, site.Kernel != nil, site.VectorReason, 3*n+1)
		}
	}
	best := func(cp *compile.Program) time.Duration {
		d := time.Duration(1 << 62)
		for r := 0; r < 5; r++ {
			start := time.Now()
			if _, err := Compile(cp); err != nil {
				t.Fatal(err)
			}
			d = min(d, time.Since(start))
		}
		return d
	}
	d1, d8 := best(cps[0]), best(cps[1])
	ratio := float64(d8) / float64(d1)
	t.Logf("compile: %v at %d statements, %v at %d (%.1fx)", d1, 2*small+1, d8, 16*small+1, ratio)
	if *costGates && ratio > 24 {
		t.Errorf("8x the body costs %.1fx the compile time, want at most 24x", ratio)
	}
}
