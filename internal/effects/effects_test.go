package effects

import (
	"fmt"
	"runtime"
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
	if len(pw) != 1 || pw[0].Field() != "next" {
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
		if a.Kind() == Write && a.Anchor() == AnchorFresh {
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

// octreeNames is the name table of a program over the octree
// declaration (dimensions down and leaves), with one anchor.
func octreeNames(t *testing.T) (*names, uint64) {
	t.Helper()
	tab := newNames(lang.MustParse(adds.OctreeSrc).Universe)
	intern(tab.anchorID, &tab.anchors, "p", anchorShift, anchorBits)
	return tab, tab.anchorID["p"]
}

func TestRegionString(t *testing.T) {
	tab, p := octreeNames(t)
	for _, c := range []struct {
		key  uint64
		want string
	}{
		{p, "p"},
		{p | movedBit | tab.dimBit["down"] | tab.dimBit["leaves"], "p.down.leaves*"},
		{p | movedBit, "p.?*"},
	} {
		if got := (Access{key: c.key, tab: tab}).Region(); got != c.want {
			t.Errorf("region %#x = %q, want %q", c.key, got, c.want)
		}
	}
}

// TestJoinDims: joining dimension sets is an OR of region words, and
// the set renders in name order whatever order it was joined in.
func TestJoinDims(t *testing.T) {
	tab, p := octreeNames(t)
	down, leaves := tab.dimBit["down"], tab.dimBit["leaves"]
	if down == 0 || leaves == 0 || down == leaves {
		t.Fatalf("dimension bits down=%#x leaves=%#x", down, leaves)
	}
	for _, c := range []struct {
		key  uint64
		want string
	}{
		{p | movedBit | down, "p.down*"},
		{p | movedBit | leaves | down, "p.down.leaves*"},
		{p | movedBit | (down | leaves) | down, "p.down.leaves*"},
	} {
		if got := (Access{key: c.key, tab: tab}).Region(); got != c.want {
			t.Errorf("region %#x = %q, want %q", c.key, got, c.want)
		}
	}
}

// TestNamesBeyondCapacity: a name the access word has no room for is
// left out of the table, and the analysis degrades to the conservative
// answer instead of spilling one part of the word into the next — here
// a declaration with more dimensions than the bitset holds.
func TestNamesBeyondCapacity(t *testing.T) {
	var decl, body strings.Builder
	decl.WriteString("type Wide [")
	for i := 0; i <= dimBits; i++ {
		if i > 0 {
			decl.WriteString("][")
		}
		fmt.Fprintf(&decl, "d%02d", i)
	}
	decl.WriteString("] { int data;")
	for i := 0; i <= dimBits; i++ {
		fmt.Fprintf(&decl, " Wide *f%02d is uniquely forward along d%02d;", i, i)
		fmt.Fprintf(&body, "  q = p->f%02d;\n  q->data = 1;\n", i)
	}
	decl.WriteString(" };\n")
	_, an := summaries(t, decl.String()+"procedure f(Wide *p) {\n  var Wide *q = p;\n"+body.String()+"}")
	if n := len(an.tab.dims); n != dimBits {
		t.Fatalf("table holds %d dimensions, want %d", n, dimBits)
	}
	sum := an.FuncSummary("f")
	for _, want := range []string{"W p.data", "W p.d00*.data", fmt.Sprintf("W p.d%02d*.data", dimBits-1), "W p.?*.data"} {
		if !hasAccess(sum, want) {
			t.Errorf("missing %q:\n%s", want, sum)
		}
	}
	for _, a := range sum.Accesses {
		if a.Anchor() != "p" || a.Field() == "" {
			t.Errorf("dimension overflow leaked into another part of the word: %s", a)
		}
	}

	ids, list := map[string]uint64{}, []string{""}
	for _, s := range []string{"a", "b", "a", "c", "d"} {
		intern(ids, &list, s, 4, 2)
	}
	if len(list) != 4 || ids["c"] != 3<<4 || ids["d"] != 0 {
		t.Errorf("intern past capacity: list %q ids %v", list, ids)
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
		if w.Kind() != Write {
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

// TestNewAnalyzerAllocCeiling pins what closing the Barnes–Hut summaries
// costs the allocator. With accesses as structs of three strings in a
// map grown from empty for every block it was 534 kB in 770 objects; as
// words in presized tables it is about 71 kB.
func TestNewAnalyzerAllocCeiling(t *testing.T) {
	prog := lang.MustParse(nbody.BarnesHutPSL)
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		NewAnalyzer(prog)
	}
	runtime.ReadMemStats(&after)
	bytes, objects := (after.TotalAlloc-before.TotalAlloc)/calls, (after.Mallocs-before.Mallocs)/calls
	t.Logf("NewAnalyzer(BarnesHutPSL): %d B in %d objects per call", bytes, objects)
	if bytes > 200<<10 {
		t.Errorf("NewAnalyzer(BarnesHutPSL) allocates %d B per call, want at most %d", bytes, 200<<10)
	}
}

// BenchmarkNewAnalyzer measures closing the effect summaries of the two
// measured n-body sources over their call graphs.
func BenchmarkNewAnalyzer(b *testing.B) {
	for _, c := range []struct{ name, src string }{{"barneshut", nbody.BarnesHutPSL}, {"vecforce", nbody.VecForcePSL}} {
		prog := lang.MustParse(c.src)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewAnalyzer(prog)
			}
		})
	}
}
