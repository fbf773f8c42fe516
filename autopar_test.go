// Planner acceptance tests: the auto-parallelization planner
// (transform.AutoParallelize / core.AutoParallel) must reproduce
// exactly what the hand-wired StripMine calls of the R1/R2
// measurement conventions produce — same programs
// where the drivers reach every transformed loop, and bit-identical
// outputs, allocation counts, and simulated cycle counts everywhere.
// The serving-layer side of the acceptance criterion (hot "auto"
// requests do zero compile work) is pinned in internal/serve.
package repro

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/parexec"
)

// runAll executes fn on prog under one configuration triplet —
// simulated (4 PEs, cyclic; the machine model has one implementation,
// the walker), then per engine serial real and goroutine-parallel
// (4 PEs) — returning a fingerprint that includes
// values, outputs, and full Stats (steps, allocations, simulated
// cycles).
func runAll(t *testing.T, prog *lang.Program, fn string, seed uint64, args []interp.Value) string {
	t.Helper()
	var fp bytes.Buffer
	v, st, out := runEngine(t, prog,
		interp.Config{Mode: interp.Simulated, PEs: 4, Sched: interp.Cyclic, Seed: seed}, fn, args)
	fp.WriteString(v.String() + out)
	writeStats(&fp, st)
	for _, eng := range []interp.Engine{interp.EngineWalk, interp.EngineBytecode} {
		v, st, out := runEngine(t, prog, interp.Config{Engine: eng, Seed: seed}, fn, args)
		fp.WriteString(v.String() + out)
		writeStats(&fp, st)
		var pout bytes.Buffer
		v, st, err := parexec.Run(prog, parexec.Options{
			Interp: eng, PEs: 4, Seed: seed, Output: &pout,
		}, fn, args...)
		if err != nil {
			t.Fatalf("parallel %s: %v", eng, err)
		}
		fp.WriteString(v.String() + pout.String())
		writeStats(&fp, st)
	}
	return fp.String()
}

func writeStats(b *bytes.Buffer, st interp.Stats) {
	fmt.Fprintf(b, "|%+v|", st)
}

// TestAutoMatchesHandTuned: the acceptance pin. On the R1 polynomial
// the planner must emit the byte-identical program the hand-wired
// StripMine call produces (and likewise for the BHL1/BHL2 chain on
// the full Barnes-Hut program); on the R2 force workload — where the
// planner additionally transforms timestep, which run_forces never
// calls — outputs, allocation counts, and simulated cycle counts must
// still be bit-identical across engines and modes.
func TestAutoMatchesHandTuned(t *testing.T) {
	// R1: the §3.3.2 polynomial at the paper's width = PEs (4).
	c, err := core.Compile(parexec.PolyNormalizePSL)
	if err != nil {
		t.Fatal(err)
	}
	hand, err := c.StripMine(parexec.NormalizeFunc, parexec.NormalizeLoop, 4)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := c.AutoParallel(4)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Source() != hand.Source() {
		t.Errorf("R1: auto plan is not the hand-tuned program:\n--- auto ---\n%s\n--- hand ---\n%s",
			auto.Source(), hand.Source())
	}
	polyArgs := []interp.Value{interp.IntVal(300), interp.RealVal(1.001)}
	if got, want := runAll(t, auto.Program, "run", 0, polyArgs), runAll(t, hand.Program, "run", 0, polyArgs); got != want {
		t.Errorf("R1: auto execution fingerprint diverged:\nauto %s\nhand %s", got, want)
	}

	// The full Barnes-Hut program: the planner must reproduce the
	// BHL1-then-BHL2 chain of hand calls (the X2 configuration).
	bh, err := core.Compile(nbody.BarnesHutPSL)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := bh.StripMine(nbody.TimestepFunc, nbody.BHL1, 8)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := h1.StripMine(nbody.TimestepFunc, nbody.BHL2, 8)
	if err != nil {
		t.Fatal(err)
	}
	bhAuto, err := bh.AutoParallel(8)
	if err != nil {
		t.Fatal(err)
	}
	if bhAuto.Source() != h2.Source() {
		t.Errorf("Barnes-Hut: auto plan is not the hand-tuned BHL1/BHL2 chain:\n%s", bhAuto.Source())
	}

	// R2: the force workload at the R2 convention width = 4×PEs (16).
	// Here the programs legitimately differ in text — the planner also
	// parallelizes timestep's loops, which run_forces never calls — so
	// the pin is the execution fingerprint.
	cf, err := core.Compile(nbody.BarnesHutForcePSL)
	if err != nil {
		t.Fatal(err)
	}
	handF, err := cf.StripMine(nbody.ForceFunc, nbody.ForceLoop, 16)
	if err != nil {
		t.Fatal(err)
	}
	autoF, err := cf.AutoParallel(16)
	if err != nil {
		t.Fatal(err)
	}
	if got := autoF.Plan.Parallelized; got != 3 {
		t.Errorf("R2 plan parallelized %d loops, want 3 (BHL1, BHL2, FCL):\n%s", got, autoF.Plan)
	}
	forceArgs := []interp.Value{interp.IntVal(48), interp.RealVal(0.5)}
	if got, want := runAll(t, autoF.Program, nbody.ForceFunc, 7, forceArgs), runAll(t, handF.Program, nbody.ForceFunc, 7, forceArgs); got != want {
		t.Errorf("R2: auto execution fingerprint diverged:\nauto %s\nhand %s", got, want)
	}
}
