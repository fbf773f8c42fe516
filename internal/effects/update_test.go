package effects

import (
	"reflect"
	"testing"

	"repro/internal/adds"
	"repro/internal/lang"
	"repro/internal/nbody"
)

const updateTestSrc = adds.OneWayListSrc + `
procedure leaf(OneWayList *p) {
  p->data = 1;
}
procedure mid(OneWayList *p) {
  leaf(p);
}
procedure lone(OneWayList *p) {
  p->data = 2;
}
`

// TestUpdateResetsAndCascades: Update must rebuild a touched function's
// summary from its new body (no stale accesses — the fixed point only
// accumulates, so leftovers would persist forever) and re-close every
// transitive caller, leaving unrelated functions untouched.
func TestUpdateResetsAndCascades(t *testing.T) {
	prog, err := lang.Parse(updateTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer(prog)
	if s := a.FuncSummary("mid").String(); !containsWrite(a.FuncSummary("mid"), "data") {
		t.Fatalf("mid summary missing inherited data write: %s", s)
	}
	loneBefore := a.FuncSummary("lone")

	// Rewrite leaf to write next instead of data.
	variant, err := lang.Parse(adds.OneWayListSrc + `
procedure leaf(OneWayList *p) {
  p->next = NULL;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	prog.Func("leaf").Body = variant.Func("leaf").Body

	redone := a.Update("leaf")
	got := map[string]bool{}
	for _, n := range redone {
		got[n] = true
	}
	if !got["leaf"] || !got["mid"] {
		t.Errorf("Update should re-summarize leaf and its caller mid, got %v", redone)
	}
	if got["lone"] {
		t.Errorf("Update re-summarized unrelated function lone: %v", redone)
	}
	if a.FuncSummary("lone") != loneBefore {
		t.Error("unrelated function lone lost its memoized summary")
	}
	for _, fn := range []string{"leaf", "mid"} {
		s := a.FuncSummary(fn)
		if containsWrite(s, "data") {
			t.Errorf("%s kept a stale data write after the rewrite: %s", fn, s)
		}
		if !containsWrite(s, "next") {
			t.Errorf("%s missing the new next write: %s", fn, s)
		}
	}
}

func containsWrite(s *Summary, field string) bool {
	for _, w := range s.Writes() {
		if w.Field == field {
			return true
		}
	}
	return false
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
// one until its own summary stops growing, and an Update walks only the
// touched function's transitive callers — again once each.
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

	before := map[string]int{}
	for name, n := range a.walks {
		before[name] = n
	}
	redone := map[string]bool{}
	for _, name := range a.Update("timestep") {
		redone[name] = true
	}
	if !redone["timestep"] || !redone["simulate"] || redone["compute_force"] {
		t.Errorf("Update(timestep) recomputed %v, want timestep and its callers only", redone)
	}
	for _, f := range prog.Funcs {
		want := before[f.Name]
		if redone[f.Name] {
			want++
		}
		if got := a.walks[f.Name]; got != want {
			t.Errorf("after Update(timestep): %s walked %d times, want %d", f.Name, got, want)
		}
	}
}

// TestUpdateMatchesFreshOrder: reports quote the first offending access
// of a summary, so the order of Accesses is output. Solving callee-first
// makes it a function of the program alone: an incremental Update leaves
// exactly the summaries — same accesses, same order — a fresh analyzer
// computes, whichever function was touched.
func TestUpdateMatchesFreshOrder(t *testing.T) {
	prog := lang.MustParse(nbody.BarnesHutPSL)
	for _, touched := range []string{"compute_force", "timestep", "insert_particle", "simulate"} {
		a := NewAnalyzer(prog)
		a.Update(touched)
		fresh := NewAnalyzer(prog)
		for _, f := range prog.Funcs {
			if got, want := a.FuncSummary(f.Name).Accesses, fresh.FuncSummary(f.Name).Accesses; !reflect.DeepEqual(got, want) {
				t.Errorf("Update(%s): summary of %s\n got %v\nwant %v", touched, f.Name, got, want)
			}
		}
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
