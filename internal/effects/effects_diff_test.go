package effects_test

import (
	"os"
	"path/filepath"
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

// assertMatchesReference analyzes src with the production analyzer and
// with the reference and compares every function summary and, for every
// while loop, the summary of its body anchored on the pointer variables
// the body mentions.
func assertMatchesReference(t *testing.T, name, src string) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, src)
	}
	got, want := effects.NewAnalyzer(prog), newRefAnalyzer(prog)
	for _, f := range prog.Funcs {
		sameSummary(t, name+": "+f.Name, got.FuncSummary(f.Name), want.FuncSummary(f.Name))
		lang.Walk(f.Body, func(s lang.Stmt) bool {
			if loop, ok := s.(*lang.WhileStmt); ok {
				anchors := pointerNames(loop.Body)
				sameSummary(t, name+": "+f.Name+" loop at "+loop.Pos().String(),
					got.BlockSummary(loop.Body, anchors), want.BlockSummary(loop.Body, anchors))
			}
			return true
		})
	}
}

// pointerNames lists the pointer variables a block mentions, in
// first-mention order.
func pointerNames(b *lang.Block) []string {
	var out []string
	seen := map[string]bool{}
	lang.Walk(b, func(s lang.Stmt) bool {
		lang.WalkExprs(s, func(e lang.Expr) {
			if id, ok := e.(*lang.Ident); ok && !seen[id.Name] {
				if _, isPtr := lang.IsPointer(id.Type()); isPtr {
					seen[id.Name] = true
					out = append(out, id.Name)
				}
			}
		})
		return true
	})
	return out
}

// diffSeeds is how many generated programs tier-1 puts through the
// comparison.
const diffSeeds = 200

// TestEffectsMatchReference holds the integer effect sets to the
// string-and-map implementation they replaced: over the testdata
// corpus, the measured workloads, the 50-loop planner program and
// diffSeeds generated programs, every function summary and every loop
// body's block summary has the reference's accesses in the reference's
// order, rendered the same.
func TestEffectsMatchReference(t *testing.T) {
	srcs := map[string]string{
		"parexec.PolyNormalizePSL": parexec.PolyNormalizePSL,
		"nbody.BarnesHutForcePSL":  nbody.BarnesHutForcePSL,
		"nbody.BarnesHutPSL":       nbody.BarnesHutPSL,
		"nbody.VecForcePSL":        nbody.VecForcePSL,
		"gen-many-loop-10x5":       transform.ManyLoopProgramPSL(10, 5),
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
	for name, src := range srcs {
		assertMatchesReference(t, name, src)
	}
	for seed := int64(0); seed < diffSeeds; seed++ {
		assertMatchesReference(t, "generated", transform.GenLoopProgramPSL(seed))
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
