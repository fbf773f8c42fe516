package effects

import (
	"strings"
	"testing"

	"repro/internal/adds"
	"repro/internal/lang"
	"repro/internal/nbody"
)

func summaries(t *testing.T, src string) (*lang.Program, *Analyzer) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog, NewAnalyzer(prog)
}

func hasAccess(s *Summary, substr string) bool {
	for _, a := range s.Accesses {
		if strings.Contains(a.String(), substr) {
			return true
		}
	}
	return false
}

func TestDirectFieldAccesses(t *testing.T) {
	_, an := summaries(t, adds.OneWayListSrc+`
procedure f(OneWayList *p, int c) {
  p->data = p->data * c;
}`)
	sum := an.FuncSummary("f")
	if !hasAccess(sum, "W p.data") {
		t.Errorf("missing write:\n%s", sum)
	}
	if !hasAccess(sum, "R p.data") {
		t.Errorf("missing read:\n%s", sum)
	}
	if len(sum.PointerWrites()) != 0 {
		t.Errorf("no pointer writes expected:\n%s", sum)
	}
}

func TestMovedRegions(t *testing.T) {
	_, an := summaries(t, adds.OneWayListSrc+`
procedure f(OneWayList *head) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = 0;
    p = p->next;
  }
}`)
	sum := an.FuncSummary("f")
	// p ranges over head and everything reachable along X: the write
	// must appear against both the unmoved and the moved region.
	if !hasAccess(sum, "W head.data") {
		t.Errorf("missing unmoved write:\n%s", sum)
	}
	if !hasAccess(sum, "W head.X*.data") {
		t.Errorf("missing moved write:\n%s", sum)
	}
}

func TestPointerWriteDetected(t *testing.T) {
	_, an := summaries(t, adds.OneWayListSrc+`
procedure f(OneWayList *a, OneWayList *b) {
  a->next = b;
}`)
	pw := an.FuncSummary("f").PointerWrites()
	if len(pw) != 1 || pw[0].Field != "next" {
		t.Errorf("pointer writes = %v", pw)
	}
}

func TestCalleeSubstitution(t *testing.T) {
	_, an := summaries(t, adds.OneWayListSrc+`
procedure zero(OneWayList *x) {
  x->data = 0;
}
procedure f(OneWayList *head) {
  var OneWayList *p = head->next;
  zero(p);
}`)
	sum := an.FuncSummary("f")
	// zero's write to x rebases onto head.X* (p = head->next moved).
	if !hasAccess(sum, "W head.X*.data") {
		t.Errorf("callee write not rebased:\n%s", sum)
	}
}

func TestRecursiveSummaryConverges(t *testing.T) {
	_, an := summaries(t, adds.BinTreeSrc+`
procedure touch(BinTree *t) {
  if t != NULL {
    t->data = 1;
    touch(t->left);
    touch(t->right);
  }
}`)
	sum := an.FuncSummary("touch")
	if !hasAccess(sum, "W t.data") {
		t.Errorf("missing direct write:\n%s", sum)
	}
	if !hasAccess(sum, "W t.down*.data") {
		t.Errorf("missing recursive write over down:\n%s", sum)
	}
}

func TestFreshAnchor(t *testing.T) {
	_, an := summaries(t, adds.OneWayListSrc+`
procedure f() {
  var OneWayList *n = new OneWayList;
  n->data = 5;
}`)
	sum := an.FuncSummary("f")
	found := false
	for _, a := range sum.Accesses {
		if a.Kind == Write && a.Region.Anchor == AnchorFresh {
			found = true
		}
	}
	if !found {
		t.Errorf("write to fresh node must be fresh-anchored:\n%s", sum)
	}
}

func TestBlockSummaryWithAnchors(t *testing.T) {
	prog, an := summaries(t, adds.OneWayListSrc+`
procedure f(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data * c;
    p = p->next;
  }
}`)
	fn := prog.Func("f")
	var loop *lang.WhileStmt
	lang.Walk(fn.Body, func(s lang.Stmt) bool {
		if w, ok := s.(*lang.WhileStmt); ok {
			loop = w
			return false
		}
		return true
	})
	// Anchored on p itself (the loop view): the body writes p.data.
	sum := an.BlockSummary(loop.Body, []string{"p", "head"})
	if !hasAccess(sum, "W p.data") {
		t.Errorf("loop-anchored write missing:\n%s", sum)
	}
}

func TestCallResultRegions(t *testing.T) {
	_, an := summaries(t, adds.OneWayListSrc+`
function OneWayList * find(OneWayList *h) {
  return h;
}
procedure f(OneWayList *head) {
  var OneWayList *p = find(head);
  p->data = 1;
}`)
	sum := an.FuncSummary("f")
	// p may point anywhere reachable from head.
	if !hasAccess(sum, "W head.") && !hasAccess(sum, "W head ") {
		t.Errorf("call-result write should anchor at head (moved):\n%s", sum)
	}
}

func TestRegionString(t *testing.T) {
	r := Region{Anchor: "p"}
	if r.String() != "p" {
		t.Errorf("unmoved = %q", r.String())
	}
	r2 := Region{Anchor: "p", Dims: "down,leaves", Moved: true}
	if r2.String() != "p.down.leaves*" {
		t.Errorf("moved = %q", r2.String())
	}
	r3 := Region{Anchor: "p", Moved: true}
	if r3.String() != "p.?*" {
		t.Errorf("dimless = %q", r3.String())
	}
}

func TestJoinDims(t *testing.T) {
	if got := joinDims("", "down"); got != "down" {
		t.Errorf("joinDims = %q", got)
	}
	if got := joinDims("leaves", "down"); got != "down,leaves" {
		t.Errorf("joinDims = %q", got)
	}
	if got := joinDims("down,leaves", "down"); got != "down,leaves" {
		t.Errorf("joinDims = %q", got)
	}
}

func TestWritesReadsFilters(t *testing.T) {
	_, an := summaries(t, adds.OneWayListSrc+`
procedure f(OneWayList *p) {
  p->data = p->data + 1;
}`)
	sum := an.FuncSummary("f")
	if len(sum.Writes()) == 0 || len(sum.Reads()) == 0 {
		t.Errorf("filters broken:\n%s", sum)
	}
	for _, w := range sum.Writes() {
		if w.Kind != Write {
			t.Error("Writes returned a read")
		}
	}
}

// recursive reports whether f can reach itself through calls.
func recursive(a *Analyzer, f string) bool {
	seen := map[string]bool{}
	var reach func(g string) bool
	reach = func(g string) bool {
		for _, h := range a.callees[g] {
			if h == f {
				return true
			}
			if !seen[h] {
				seen[h] = true
				if reach(h) {
					return true
				}
			}
		}
		return false
	}
	return reach(f)
}

// TestSolveWalksCalleesFirst pins the cost of closing summaries over
// the call graph: on Barnes–Hut every function outside a recursion is
// walked exactly once (its callees are complete by then), a recursive
// one until its own summary stops growing.
func TestSolveWalksCalleesFirst(t *testing.T) {
	prog := lang.MustParse(nbody.BarnesHutPSL)
	a := NewAnalyzer(prog)
	sawRecursive := false
	for _, f := range prog.Funcs {
		n := a.walks[f.Name]
		if recursive(a, f.Name) {
			sawRecursive = true
			if n < 2 {
				t.Errorf("recursive %s walked %d times: a fixed point needs a confirming walk", f.Name, n)
			}
		} else if n != 1 {
			t.Errorf("%s is not recursive but was walked %d times, want 1", f.Name, n)
		}
	}
	if !sawRecursive {
		t.Fatal("Barnes–Hut no longer has a recursive function (compute_force)")
	}
}

// TestRandIsASharedWrite: rand() mutates the one generator every
// iteration shares, so it shows up in the caller's summary — through
// any depth of calls — as a write to a region of its own; print() and
// the pure builtins leave no trace.
func TestRandIsASharedWrite(t *testing.T) {
	prog := lang.MustParse(adds.OneWayListSrc + `
function real draw() { return rand(); }
function real twice() { return draw() + draw(); }
function real quiet(OneWayList *p) { print(p->data); return sqrt(abs(1.0)); }
`)
	a := NewAnalyzer(prog)
	for fn, want := range map[string]bool{"draw": true, "twice": true, "quiet": false} {
		if got := a.FuncSummary(fn).Has(RandDraw); got != want {
			t.Errorf("%s: Has(RandDraw) = %v, want %v (%s)", fn, got, want, a.FuncSummary(fn))
		}
	}
	if s := a.FuncSummary("twice").String(); s != "W <rand>.state" {
		t.Errorf("twice summary = %q", s)
	}
}
