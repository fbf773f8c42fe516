package effects_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/effects"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/parexec"
	"repro/internal/transform"
)

// sameSummary fails unless got holds exactly want's accesses, in
// want's first-found order, each rendering as want's does.
func sameSummary(t *testing.T, where string, got *effects.Summary, want *refSummary) {
	t.Helper()
	if len(got.Accesses) != len(want.Accesses) {
		t.Errorf("%s: %d accesses, reference has %d\ngot:\n%s\nwant:\n%s", where, len(got.Accesses), len(want.Accesses), got, want)
		return
	}
	for i, w := range want.Accesses {
		g := got.Accesses[i]
		if g.Anchor() != w.Region.Anchor || g.Region() != w.Region.String() || g.Moved() != w.Region.Moved ||
			g.Field() != w.Field || g.Kind().String() != w.Kind.String() || g.IsPointer() != w.IsPointer ||
			g.String() != w.String() {
			t.Errorf("%s: access %d is %s, reference has %s", where, i, g, w)
		}
	}
	if g, w := got.String(), want.String(); g != w {
		t.Errorf("%s: summary text diverged\ngot:\n%s\nwant:\n%s", where, g, w)
	}
}

// subsetSummary fails unless every access of got renders as one of
// want's.
func subsetSummary(t *testing.T, where string, got *effects.Summary, want *refSummary) {
	t.Helper()
	ref := map[string]bool{}
	for _, w := range want.Accesses {
		ref[w.String()] = true
	}
	for _, g := range got.Accesses {
		if !ref[g.String()] {
			t.Errorf("%s: access %s is not among the reference's\ngot:\n%s\nwant:\n%s", where, g, got, want)
		}
	}
}

// sharesNames reports, by function index, whether a function declares
// one name at two slots or calls, directly or not, one that does. The
// reference keys a variable by its name, so it merges such variables'
// regions — and with them its callers' — where the production analyzer
// keeps them apart: merging can only add regions.
func sharesNames(prog *lang.Program) []bool {
	shares := make([]bool, len(prog.Funcs))
	for i, f := range prog.Funcs {
		seen := map[lang.ID]bool{}
		for _, id := range f.Vars {
			shares[i] = shares[i] || seen[id]
			seen[id] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for i, f := range prog.Funcs {
			lang.Walk(f.Body, func(s lang.Stmt) bool {
				lang.WalkExprs(s, func(e lang.Expr) {
					if c, ok := e.(*lang.CallExpr); ok && c.Callee > 0 && shares[c.Callee-1] && !shares[i] {
						shares[i], changed = true, true
					}
				})
				return true
			})
		}
	}
	return shares
}

// assertMatchesReference analyzes src with the production analyzer and
// with the reference and compares every function summary and, for every
// while loop, the summary of its body anchored on the pointer variables
// the body mentions. A function sharesNames marks is held to the subset
// of the reference's accesses, every other to the exact sequence; it
// returns how many functions took each leg.
func assertMatchesReference(t *testing.T, name, src string) (exact, subset int) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, src)
	}
	got, want := effects.NewAnalyzer(prog), newRefAnalyzer(prog)
	shares := sharesNames(prog)
	for i, f := range prog.Funcs {
		same := sameSummary
		if shares[i] {
			same, subset = subsetSummary, subset+1
		} else {
			exact++
		}
		same(t, name+": "+f.Name, got.FuncSummary(i), want.FuncSummary(f.Name))
		lang.Walk(f.Body, func(s lang.Stmt) bool {
			if loop, ok := s.(*lang.WhileStmt); ok {
				names, slots := pointerVars(loop.Body)
				same(t, name+": "+f.Name+" loop at "+loop.Pos().String(),
					got.BlockSummary(f, loop.Body, slots), want.BlockSummary(loop.Body, names))
			}
			return true
		})
	}
	return exact, subset
}

// pointerVars lists the pointer variables a block mentions, in
// first-mention order: by name for the reference, by slot for the
// production analyzer.
func pointerVars(b *lang.Block) (names []string, slots []int) {
	seenName, seenSlot := map[string]bool{}, map[int]bool{}
	lang.Walk(b, func(s lang.Stmt) bool {
		lang.WalkExprs(s, func(e lang.Expr) {
			id, ok := e.(*lang.Ident)
			if !ok {
				return
			}
			if _, isPtr := lang.IsPointer(id.Type()); !isPtr {
				return
			}
			if !seenName[id.Name] {
				seenName[id.Name] = true
				names = append(names, id.Name)
			}
			if !seenSlot[id.Slot] {
				seenSlot[id.Slot] = true
				slots = append(slots, id.Slot)
			}
		})
		return true
	})
	return names, slots
}

// shadowTwinPSL is a list loop whose body reads the outer pointer q
// and, in a nested block, declares a pointer named inner at the
// iteration's own node and writes through it; every caller of work
// inherits the difference.
func shadowTwinPSL(inner string) string {
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
procedure twice(L *a, L *b) {
  work(a, b, 1);
  work(b, a, 2);
}
`, "INNER", inner)
}

// diffSeeds is how many generated programs tier-1 puts through the
// comparison.
const diffSeeds = 200

// TestEffectsMatchReference holds the integer effect sets to the
// string-and-map implementation they replaced: over the testdata
// corpus, the measured workloads, the 50-loop planner program, a
// program with a shadowing pointer and its renamed twin, and diffSeeds
// generated programs, every function summary and every loop body's
// block summary has the reference's accesses in the reference's order,
// rendered the same — or, where the reference merges two variables of
// one name, a subset of them.
func TestEffectsMatchReference(t *testing.T) {
	srcs := map[string]string{
		"parexec.PolyNormalizePSL": parexec.PolyNormalizePSL,
		"nbody.BarnesHutForcePSL":  nbody.BarnesHutForcePSL,
		"nbody.BarnesHutPSL":       nbody.BarnesHutPSL,
		"nbody.VecForcePSL":        nbody.VecForcePSL,
		"gen-many-loop-10x5":       transform.ManyLoopProgramPSL(10, 5),
		"shadowed":                 shadowTwinPSL("q"),
		"renamed":                  shadowTwinPSL("r"),
	}
	files, err := filepath.Glob("../../testdata/*.psl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata corpus files found (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs["testdata/"+filepath.Base(f)] = string(data)
	}
	exact, subset := 0, 0
	tally := func(e, s int) { exact, subset = exact+e, subset+s }
	for name, src := range srcs {
		tally(assertMatchesReference(t, name, src))
	}
	for seed := int64(0); seed < diffSeeds; seed++ {
		tally(assertMatchesReference(t, "generated", transform.GenLoopProgramPSL(seed)))
	}
	t.Logf("functions compared exactly: %d; as a subset (a name at two slots): %d", exact, subset)
	if subset == 0 {
		t.Error("no function took the subset leg: the corpus lost its shadowing program")
	}
}

// FuzzEffectsMatchReference runs the comparison on generated programs
// the tier-1 seeds do not reach.
func FuzzEffectsMatchReference(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(diffSeeds))
	f.Fuzz(func(t *testing.T, seed int64) {
		assertMatchesReference(t, "generated", transform.GenLoopProgramPSL(seed))
	})
}
