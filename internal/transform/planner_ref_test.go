package transform

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/depend"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/parexec"
)

// autoParallelizeFullRestart is the reference planner, built on the
// public pieces — depend's verdict on the current program and StripMine:
// take verdicts in scan order, strip-mine the first approval,
// re-analyze the whole program from scratch, restart the scan at the
// first function, until a scan approves nothing — quadratic in approved
// loops, and it assumes nothing about what a rewrite does to the other
// loops' verdicts. The helpers the rewrites add are not planned.
// AutoParallelize, which reaches every verdict on one analysis of the
// input, must produce the same Plan; that the two agree is exactly the
// claim "strip-mining an approved loop never changes the verdict of any
// other loop", and TestPlanMatchesFullRestart checks it.
func autoParallelizeFullRestart(prog *lang.Program, width int) (*Plan, error) {
	if width <= 0 {
		width = DefaultWidth(0)
	}
	plan := &Plan{Width: width}
	type loopAt struct {
		fn    string
		index int
	}
	var origIndex map[lang.Pos]loopAt
	seen := map[lang.Pos]*LoopPlan{}
	loopPlan := func(r *depend.Report) *LoopPlan {
		lp := seen[r.Loop.Pos()]
		if lp == nil {
			at, ok := origIndex[r.Loop.Pos()]
			if !ok {
				at = loopAt{r.Func, r.Index}
			}
			lp = &LoopPlan{Func: at.fn, Index: at.index, Pos: r.Loop.Pos()}
			seen[r.Loop.Pos()] = lp
			plan.Loops = append(plan.Loops, lp)
		}
		return lp
	}

	cur := prog
	for {
		res, err := analysis.New(cur).AnalyzeAll()
		if err != nil {
			return nil, err
		}
		reports, err := depend.AnalyzeProgram(cur, res)
		if err != nil {
			return nil, err
		}
		if origIndex == nil {
			if err := checkLoopPositions(reports); err != nil {
				return nil, err
			}
			origIndex = map[lang.Pos]loopAt{}
			for _, r := range reports {
				origIndex[r.Loop.Pos()] = loopAt{r.Func, r.Index}
			}
		}
		transformed := false
		for k, rep := range reports {
			if prog.Func(rep.Func) == nil {
				continue // a helper an earlier rewrite added
			}
			if lp := seen[rep.Loop.Pos()]; lp != nil && (lp.Parallelized || lp.Absorbed) {
				continue
			}
			lp := loopPlan(rep)
			lp.Report = rep
			if !rep.Parallelizable {
				continue
			}
			sm, err := StripMine(cur, rep.Func, rep.Index, width)
			if err != nil {
				return nil, err
			}
			lp.Parallelized = true
			lp.Helper = sm.Helper
			lp.Width = width
			plan.Parallelized++
			for _, inner := range reports[k+1 : k+1+rep.Nested] {
				ilp := loopPlan(inner)
				ilp.Absorbed = true
				ilp.AbsorbedInto = sm.Helper
			}
			cur = sm.Program
			transformed = true
			break
		}
		if !transformed {
			break
		}
	}
	plan.Program = cur
	annotateVectorVerdicts(plan)
	return plan, nil
}

// assertMatchesFullRestart plans src with both planners and fails on
// any difference in plan text, transformed program or loop coordinates
// — or in whether the program is planned at all.
func assertMatchesFullRestart(t *testing.T, src string, width int) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	got, err := AutoParallelize(prog, width)
	want, wantErr := autoParallelizeFullRestart(prog, width)
	if err != nil || wantErr != nil {
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("width %d: planner error %v, full-restart error %v\n%s", width, err, wantErr, src)
		}
		return
	}
	if g, w := got.String(), want.String(); g != w {
		t.Errorf("width %d: plan text diverged\nplanner:\n%s\nfull restart:\n%s\nsource:\n%s", width, g, w, src)
	}
	if g, w := lang.Format(got.Program), lang.Format(want.Program); g != w {
		t.Errorf("width %d: transformed program diverged\nplanner:\n%s\nfull restart:\n%s", width, g, w)
	}
	type coords struct {
		Func         string
		Index        int
		Pos          lang.Pos
		Helper       string
		AbsorbedInto string
	}
	at := func(p *Plan) []coords {
		out := make([]coords, len(p.Loops))
		for i, lp := range p.Loops {
			out[i] = coords{lp.Func, lp.Index, lp.Pos, lp.Helper, lp.AbsorbedInto}
		}
		return out
	}
	if g, w := at(got), at(want); !slices.Equal(g, w) {
		t.Errorf("width %d: loop coordinates diverged\nplanner:      %+v\nfull restart: %+v", width, g, w)
	}
}

// oracleSources is the corpus the differential oracle plans: every
// testdata/*.psl program, the measured workloads, and two sizes of the
// many-loop program.
func oracleSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{
		"parexec.PolyNormalizePSL": parexec.PolyNormalizePSL,
		"nbody.BarnesHutForcePSL":  nbody.BarnesHutForcePSL,
		"nbody.BarnesHutPSL":       nbody.BarnesHutPSL,
		"nbody.VecForcePSL":        nbody.VecForcePSL,
		"gen-many-loop-6x4":        ManyLoopProgramPSL(6, 4),
		"gen-many-loop-10x5":       ManyLoopProgramPSL(10, 5),
	}
	files, err := filepath.Glob("../../testdata/*.psl")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no testdata corpus files found")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs["testdata/"+filepath.Base(f)] = string(data)
	}
	return srcs
}

// planSeeds is how many generated programs tier-1 puts through the
// oracle.
const planSeeds = 200

// TestPlanMatchesFullRestart is the differential oracle for the
// planner's one structural assumption — that a verdict reached on the
// input program still holds after other loops were strip-mined. Over
// the testdata corpus, the measured workloads, the many-loop program
// and planSeeds generated programs (GenLoopProgramPSL: the shapes a
// rewrite could plausibly disturb), AutoParallelize must produce the
// plan text, transformed program and loop coordinates of the reference
// that re-analyzes everything after every rewrite.
func TestPlanMatchesFullRestart(t *testing.T) {
	srcs := oracleSources(t)
	widths := []int{2, 4, 8}
	for name, src := range srcs {
		for _, width := range widths {
			t.Run(fmt.Sprintf("%s/w%d", name, width), func(t *testing.T) {
				assertMatchesFullRestart(t, src, width)
			})
		}
	}
	t.Run("generated", func(t *testing.T) {
		for seed := int64(0); seed < planSeeds; seed++ {
			assertMatchesFullRestart(t, GenLoopProgramPSL(seed), widths[seed%3])
		}
	})
}

// FuzzPlanMatchesFullRestart runs the oracle on generated programs the
// tier-1 seeds do not reach.
func FuzzPlanMatchesFullRestart(f *testing.F) {
	f.Add(int64(0), uint8(2))
	f.Add(int64(planSeeds), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, width uint8) {
		assertMatchesFullRestart(t, GenLoopProgramPSL(seed), 1+int(width%16))
	})
}
