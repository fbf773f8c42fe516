// Integration harness: end-to-end checks that the repository reproduces
// the paper's qualitative results (the "shape" of every experiment).
// cmd/experiments regenerates the full-scale artifacts; these tests run
// the same pipelines at CI-friendly scale.
package repro

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/nbody"
	"repro/internal/sequent"
)

// TestHarnessT1T2Shape asserts the §4.4 table shape: parallel beats
// sequential, par(7) beats par(4), nothing is linear, and speedup grows
// with N.
func TestHarnessT1T2Shape(t *testing.T) {
	cfg := sequent.DefaultTableConfig()
	cfg.Ns = []int{32, 96}
	cfg.MeasureSteps = 1
	table, err := sequent.BarnesHutTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range table.Rows {
		if !(r.Seq > r.Par[4] && r.Par[4] > r.Par[7]) {
			t.Errorf("N=%d: times not ordered: seq=%.0f par4=%.0f par7=%.0f",
				r.N, r.Seq, r.Par[4], r.Par[7])
		}
		if r.Speedup[4] >= 4 || r.Speedup[7] >= 7 {
			t.Errorf("N=%d: superlinear speedup: %v", r.N, r.Speedup)
		}
	}
	if table.Rows[1].Speedup[7] <= table.Rows[0].Speedup[7] {
		t.Errorf("par(7) speedup should grow with N: %.2f then %.2f",
			table.Rows[0].Speedup[7], table.Rows[1].Speedup[7])
	}
}

// TestHarnessPipeline runs the complete §4.3 story through the public
// API: validate, prove, transform, execute, compare.
func TestHarnessPipeline(t *testing.T) {
	c, err := core.Compile(nbody.BarnesHutPSL)
	if err != nil {
		t.Fatal(err)
	}

	// §4.3.2 validation: every tree-building routine exits valid.
	for _, fn := range []string{"expand_box", "insert_particle", "build_tree", "timestep"} {
		keys, err := c.ExitViolations(fn)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 0 {
			t.Errorf("%s: %v", fn, keys)
		}
	}

	// §4.3.2 alias analysis: BHL1 and BHL2 parallelize.
	reps, err := c.LoopReports(nbody.TimestepFunc)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || !reps[0].Parallelizable || !reps[1].Parallelizable {
		t.Fatalf("BHL reports: %v", reps)
	}

	// §4.3.3 transformation + execution equivalence.
	p1, err := c.StripMine(nbody.TimestepFunc, nbody.BHL1, 4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := p1.StripMine(nbody.TimestepFunc, nbody.BHL2, 4)
	if err != nil {
		t.Fatal(err)
	}
	args := []interp.Value{
		interp.IntVal(24), interp.IntVal(2), interp.RealVal(0.5), interp.RealVal(0.01),
	}
	seqV, _, err := c.Run(core.RunConfig{Seed: 7}, "simulate", args...)
	if err != nil {
		t.Fatal(err)
	}
	parV, _, err := p2.Run(core.RunConfig{Seed: 7}, "simulate", args...)
	if err != nil {
		t.Fatal(err)
	}
	seqPos, err := interp.FieldReal(seqV, "posx")
	if err != nil {
		t.Fatal(err)
	}
	parPos, err := interp.FieldReal(parV, "posx")
	if err != nil {
		t.Fatal(err)
	}
	if seqPos != parPos {
		t.Errorf("first particle diverged: %g vs %g", seqPos, parPos)
	}

	// The transformed source carries the paper's structure.
	src := p2.Source()
	for _, want := range []string{"forall", "_timestep_L0_iteration", "_timestep_L1_iteration"} {
		if !strings.Contains(src, want) {
			t.Errorf("transformed source lacks %q", want)
		}
	}
}

// TestHarnessX1Pattern asserts the precision-comparison pattern: only
// ADDS+GPM parallelizes the parallelizable loops, and nobody
// parallelizes the mutating or unannotated ones.
func TestHarnessX1Pattern(t *testing.T) {
	c, err := core.Compile(nbody.BarnesHutPSL)
	if err != nil {
		t.Fatal(err)
	}
	for loop, wantADDS := range map[int]bool{nbody.BHL1: true, nbody.BHL2: true} {
		v, err := c.CompareBaselines(nbody.TimestepFunc, loop)
		if err != nil {
			t.Fatal(err)
		}
		if v.Conservative || v.KLimited {
			t.Errorf("loop %d: baselines must reject: %s", loop, v)
		}
		if v.ADDS != wantADDS {
			t.Errorf("loop %d: ADDS verdict %v", loop, v.ADDS)
		}
	}
	v, err := c.CompareBaselines("build_tree", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.ADDS {
		t.Error("build loop must be rejected by everyone")
	}
}

// TestHarnessX2SyncSensitivity asserts the ablation direction: cheaper
// synchronization raises the speedup.
func TestHarnessX2SyncSensitivity(t *testing.T) {
	base := sequent.DefaultTableConfig()
	base.Ns = []int{48}
	base.MeasureSteps = 1
	base.CalibrateSeconds = 0

	slow, err := sequent.BarnesHutTable(base)
	if err != nil {
		t.Fatal(err)
	}
	fast := base
	costs := interp.DefaultCosts()
	costs.Barrier = 50
	fast.Costs = costs
	fastT, err := sequent.BarnesHutTable(fast)
	if err != nil {
		t.Fatal(err)
	}
	if fastT.Rows[0].Speedup[7] <= slow.Rows[0].Speedup[7] {
		t.Errorf("cheap sync should raise speedup: slow %.2f, fast %.2f",
			slow.Rows[0].Speedup[7], fastT.Rows[0].Speedup[7])
	}
}

// TestHarnessNativeAgreement cross-checks the native Go Barnes-Hut
// against the interpreted PSL version at small N: both use the same
// generator, algorithm, and schedule, so trajectories must agree to
// floating-point noise.
func TestHarnessNativeAgreement(t *testing.T) {
	const n, steps = 16, 2
	// Native.
	s := nbody.NewUniform(n, 7, 0.5, 0.01)
	s.Run("seq", steps, 0)

	// Interpreted.
	c, err := core.Compile(nbody.BarnesHutPSL)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := c.Run(core.RunConfig{Seed: 7}, "simulate",
		interp.IntVal(n), interp.IntVal(steps), interp.RealVal(0.5), interp.RealVal(0.01))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for !v.IsNull() {
		x, err := interp.FieldReal(v, "posx")
		if err != nil {
			t.Fatal(err)
		}
		if diff := x - s.Bodies[i].Pos.X; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("particle %d: native %g vs interpreted %g", i, s.Bodies[i].Pos.X, x)
		}
		if v, err = interp.FieldPtr(v, "next"); err != nil {
			t.Fatal(err)
		}
		i++
	}
	if i != n {
		t.Fatalf("interpreted list has %d particles", i)
	}
}
