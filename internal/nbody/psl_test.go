package nbody

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/depend"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/parexec"
	"repro/internal/transform"
)

func parseBH(t *testing.T) *lang.Program {
	t.Helper()
	prog, err := lang.Parse(BarnesHutPSL)
	if err != nil {
		t.Fatalf("Barnes-Hut PSL does not parse: %v", err)
	}
	return prog
}

// TestBHValidates: the octree abstraction is valid at timestep's loops —
// build_tree/expand_box/insert_particle leave no active violations
// (§4.3.2's validation argument).
func TestBHValidates(t *testing.T) {
	res, err := analysis.New(parseBH(t)).AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"expand_box", "insert_particle", "build_tree", TimestepFunc} {
		fr := res.Funcs[fn]
		if n := len(fr.Exit.Violations); n != 0 {
			t.Errorf("%s exits with %d active violation(s): %v", fn, n, fr.Exit.ViolationKeys())
		}
	}
}

// TestBHInsertTemporarySharing: insert_particle temporarily breaks the
// down-dimension uniqueness (the competitor is shared between the old
// and new subtree) and repairs it before the iteration ends.
func TestBHInsertTemporarySharing(t *testing.T) {
	prog := parseBH(t)
	res, err := analysis.New(prog).AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Funcs["insert_particle"]
	fn := prog.Func("insert_particle")
	// Find the store sub->subtrees[cq] = child and the repairing store
	// t->subtrees[q] = sub.
	var sharingStore, repairStore *lang.AssignStmt
	lang.Walk(fn.Body, func(s lang.Stmt) bool {
		as, ok := s.(*lang.AssignStmt)
		if !ok {
			return true
		}
		fe, ok := as.LHS.(*lang.FieldExpr)
		if !ok || fe.Base() == nil {
			return true
		}
		rhs, ok := as.RHS.(*lang.Ident)
		if !ok {
			return true
		}
		if fe.Base().Name == "sub" && rhs.Name == "child" {
			sharingStore = as
		}
		if fe.Base().Name == "t" && rhs.Name == "sub" {
			repairStore = as
		}
		return true
	})
	if sharingStore == nil || repairStore == nil {
		t.Fatal("could not locate the sharing/repair stores")
	}
	afterShare := fr.After(sharingStore)
	if afterShare == nil {
		t.Fatal("no state after sharing store")
	}
	if afterShare.Valid("Octree", "down") {
		t.Error("expected a temporary sharing violation after sub->subtrees[cq] = child")
	}
	afterRepair := fr.After(repairStore)
	if afterRepair == nil {
		t.Fatal("no state after repair store")
	}
	if !afterRepair.Valid("Octree", "down") {
		t.Errorf("the repair store must clear the violation; still active: %v", afterRepair.ViolationKeys())
	}
}

// TestBHLoopsParallelizable reproduces the §4.3.2 verdict: BHL1 and
// BHL2 are parallelizable; the build loop is not (it mutates the tree).
func TestBHLoopsParallelizable(t *testing.T) {
	prog := parseBH(t)
	res, err := analysis.New(prog).AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, loop := range []int{BHL1, BHL2} {
		rep, err := depend.AnalyzeLoop(prog, res.Funcs[TimestepFunc], res.Effects, TimestepFunc, loop)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Parallelizable {
			t.Errorf("BHL%d must parallelize:\n%s", loop+1, rep)
		}
	}
	// The tree-building loop in build_tree must NOT parallelize.
	rep, err := depend.AnalyzeLoop(prog, res.Funcs["build_tree"], res.Effects, "build_tree", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Parallelizable {
		t.Errorf("build_tree's loop mutates the structure and must be rejected:\n%s", rep)
	}
}

// runSim runs simulate(n, steps) and returns the particle positions.
func runSim(t *testing.T, prog *lang.Program, mode interp.Mode, n, steps int) [][3]float64 {
	t.Helper()
	ip := interp.New(prog, interp.Config{Seed: 7, Mode: mode, PEs: 4})
	v, err := ip.Call("simulate", simArgs(n, steps)...)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return positions(t, v)
}

func simArgs(n, steps int) []interp.Value {
	return []interp.Value{interp.IntVal(int64(n)), interp.IntVal(int64(steps)), interp.RealVal(0.5), interp.RealVal(0.01)}
}

// positions reads the particle list simulate returns.
func positions(t *testing.T, v interp.Value) [][3]float64 {
	t.Helper()
	var out [][3]float64
	for !v.IsNull() {
		var p [3]float64
		for c, f := range []string{"posx", "posy", "posz"} {
			x, err := interp.FieldReal(v, f)
			if err != nil {
				t.Fatal(err)
			}
			p[c] = x
		}
		out = append(out, p)
		next, err := interp.FieldPtr(v, "next")
		if err != nil {
			t.Fatal(err)
		}
		v = next
	}
	return out
}

// TestBHSequentialRun: the interpreted simulation runs and moves
// particles plausibly (finite positions, actually updated).
func TestBHSequentialRun(t *testing.T) {
	prog := parseBH(t)
	pos := runSim(t, prog, interp.Real, 32, 2)
	if len(pos) != 32 {
		t.Fatalf("expected 32 particles, got %d", len(pos))
	}
	for i, p := range pos {
		for _, c := range p {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("particle %d has non-finite position %v", i, p)
			}
		}
	}
}

// TestBHStripMinedMatchesSequential: the transformed program computes
// exactly the same particle trajectories (both loops strip-mined).
func TestBHStripMinedMatchesSequential(t *testing.T) {
	prog := parseBH(t)
	want := runSim(t, prog, interp.Real, 24, 2)

	// Strip-mine BHL1 then BHL2 (indices shift as loops are replaced by
	// while loops again — BHL2 remains while loop #1).
	r1, err := transform.StripMine(prog, TimestepFunc, BHL1, 4)
	if err != nil {
		t.Fatalf("strip-mine BHL1: %v", err)
	}
	r2, err := transform.StripMine(r1.Program, TimestepFunc, BHL2, 4)
	if err != nil {
		t.Fatalf("strip-mine BHL2: %v", err)
	}

	// The real leg runs on a pool of 4 PEs, so -race sees the strips'
	// iterations execute concurrently; the simulated leg is serial.
	v, _, err := parexec.Run(r2.Program, parexec.Options{PEs: 4, Seed: 7}, "simulate", simArgs(24, 2)...)
	if err != nil {
		t.Fatalf("parexec: simulate: %v", err)
	}
	for name, got := range map[string][][3]float64{
		"4 PEs":     positions(t, v),
		"simulated": runSim(t, r2.Program, interp.Simulated, 24, 2),
	} {
		if len(got) != len(want) {
			t.Fatalf("%s: particle count %d vs %d", name, len(got), len(want))
		}
		for i := range want {
			for c := 0; c < 3; c++ {
				if math.Abs(got[i][c]-want[i][c]) > 1e-9 {
					t.Fatalf("%s: particle %d coord %d: %g vs %g", name, i, c, got[i][c], want[i][c])
				}
			}
		}
	}
}

// TestBHSimulatedSpeedup: the Sequent-style simulation shows sublinear
// speedup that grows with PEs — the shape of the paper's §4.4 table.
func TestBHSimulatedSpeedup(t *testing.T) {
	prog := parseBH(t)

	cycles := func(p *lang.Program, pes int) int64 {
		ip := interp.New(p, interp.Config{Seed: 7, Mode: interp.Simulated, PEs: pes})
		_, err := ip.Call("simulate", interp.IntVal(64), interp.IntVal(1),
			interp.RealVal(0.5), interp.RealVal(0.01))
		if err != nil {
			t.Fatal(err)
		}
		return ip.Stats().Cycles
	}

	seq := cycles(prog, 1)

	mk := func(pes int) *lang.Program {
		r1, err := transform.StripMine(prog, TimestepFunc, BHL1, pes)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := transform.StripMine(r1.Program, TimestepFunc, BHL2, pes)
		if err != nil {
			t.Fatal(err)
		}
		return r2.Program
	}
	par4 := cycles(mk(4), 4)
	par7 := cycles(mk(7), 7)

	s4 := float64(seq) / float64(par4)
	s7 := float64(seq) / float64(par7)
	t.Logf("seq=%d par4=%d par7=%d speedup4=%.2f speedup7=%.2f", seq, par4, par7, s4, s7)
	if s4 <= 1.3 {
		t.Errorf("par(4) speedup %.2f too small", s4)
	}
	if s7 <= s4 {
		t.Errorf("par(7) speedup %.2f should exceed par(4) %.2f", s7, s4)
	}
	if s4 >= 4.0 || s7 >= 7.0 {
		t.Errorf("speedups must be sublinear: s4=%.2f s7=%.2f", s4, s7)
	}
}
