package transform

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/parexec"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/plans/*.golden from the current planner")

// TestPlanGolden pins the planner's whole deliverable — full plan text
// (every verdict and every rejection reason) plus the transformed
// program — byte for byte against files recorded before the analysis
// packages were rewritten. TestPlanMatchesFullRestart cannot
// witness a change to analysis/effects/depend, because the reference
// planner shares them; these files can.
func TestPlanGolden(t *testing.T) {
	srcs := map[string]string{
		"barneshut":     nbody.BarnesHutPSL,
		"vecforce":      nbody.VecForcePSL,
		"polynormalize": parexec.PolyNormalizePSL,
		"manyloop-10x5": ManyLoopProgramPSL(10, 5),
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
		base := filepath.Base(f)
		srcs[base[:len(base)-len(".psl")]] = string(data)
	}
	for name, src := range srcs {
		for _, width := range []int{4, 8} {
			t.Run(fmt.Sprintf("%s-w%d", name, width), func(t *testing.T) {
				plan := planFor(t, src, width)
				got := plan.String() + "\n\n" + lang.Format(plan.Program)
				path := filepath.Join("testdata", "plans", fmt.Sprintf("%s-w%d.golden", name, width))
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (record with `go test ./internal/transform -run TestPlanGolden -update-golden`)", err)
				}
				if got != string(want) {
					t.Errorf("plan diverged from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
				}
			})
		}
	}
}
