// Benchmarks regenerating (at bench-friendly scale) every table and
// figure in the paper's evaluation. The experiment IDs follow
// DESIGN.md's index; full-scale regeneration is cmd/experiments.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/adds"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/parexec"
	"repro/internal/sequent"
	"repro/internal/structures/bignum"
	"repro/internal/structures/list"
	"repro/internal/structures/orthlist"
	"repro/internal/structures/poly"
	"repro/internal/structures/rangetree"
	"repro/internal/transform"
)

// ---------------------------------------------------------------------------
// T1/T2 — the §4.4 tables (simulated Sequent), reduced N for bench time.

func benchTable(b *testing.B, pes int) {
	cfg := sequent.DefaultTableConfig()
	cfg.Ns = []int{64}
	cfg.PEs = []int{pes}
	cfg.MeasureSteps = 1
	cfg.CalibrateSeconds = 0
	b.ResetTimer()
	var lastSpeedup float64
	for i := 0; i < b.N; i++ {
		t, err := sequent.BarnesHutTable(cfg)
		if err != nil {
			b.Fatal(err)
		}
		lastSpeedup = t.Rows[0].Speedup[pes]
	}
	b.ReportMetric(lastSpeedup, "speedup")
}

// BenchmarkTable1TimesPar4 regenerates a T1 cell (seq + par(4)).
func BenchmarkTable1TimesPar4(b *testing.B) { benchTable(b, 4) }

// BenchmarkTable2SpeedupsPar7 regenerates a T2 cell (seq + par(7)).
func BenchmarkTable2SpeedupsPar7(b *testing.B) { benchTable(b, 7) }

// Native Barnes-Hut: the real-hardware counterpart of T1.

func benchNative(b *testing.B, driver string, pes int) {
	s := nbody.NewUniform(512, 7, 0.5, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Run(driver, 1, pes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNativeBHSequential(b *testing.B) { benchNative(b, "seq", 0) }
func BenchmarkNativeBHParallel4(b *testing.B)  { benchNative(b, "par", 4) }
func BenchmarkNativeBHParallel7(b *testing.B)  { benchNative(b, "par", 7) }
func BenchmarkNativeBHPool4(b *testing.B)      { benchNative(b, "pool", 4) }
func BenchmarkNativeBHDirectN2(b *testing.B)   { benchNative(b, "direct", 0) }
func BenchmarkNativeBHPlummerSeq(b *testing.B) {
	s := nbody.NewPlummer(512, 7, 0.5, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Run("seq", 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// R1 — real goroutine-backed execution: the measured counterpart of
// T1/T2, interpreting the strip-mined §3.3.2 workload on the parexec
// worker pool instead of the simulated Sequent.

func BenchmarkR1RealPolySerial(b *testing.B) {
	c, err := core.Compile(parexec.PolyNormalizePSL)
	if err != nil {
		b.Fatal(err)
	}
	args := []interp.Value{interp.IntVal(512), interp.RealVal(1.001)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Run(core.RunConfig{}, "run", args...); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRealPoly runs PolyNormalize with normalize strip-mined at the
// given width on pes PEs.
func benchRealPoly(b *testing.B, eng interp.Engine, width, pes int) {
	c, err := core.Compile(parexec.PolyNormalizePSL)
	if err != nil {
		b.Fatal(err)
	}
	par, err := c.StripMine(parexec.NormalizeFunc, parexec.NormalizeLoop, width)
	if err != nil {
		b.Fatal(err)
	}
	args := []interp.Value{interp.IntVal(512), interp.RealVal(1.001)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := par.RunParallel(core.RunConfig{Engine: eng}, pes, "run", args...); err != nil {
			b.Fatal(err)
		}
	}
}

// The R1 rows run the paper's width = PEs split on the default engine.
func BenchmarkR1RealPolyParallel2(b *testing.B) { benchRealPoly(b, interp.EngineKernel, 2, 2) }
func BenchmarkR1RealPolyParallel4(b *testing.B) { benchRealPoly(b, interp.EngineKernel, 4, 4) }
func BenchmarkR1RealPolyParallel8(b *testing.B) { benchRealPoly(b, interp.EngineKernel, 8, 8) }

// ---------------------------------------------------------------------------
// R2 — the Barnes-Hut force loop on the parexec pool, one benchmark per
// scheduling policy (the measured counterpart of the X2 ablation; full
// scale is `go run ./cmd/experiments -real`).

func BenchmarkR2ForceSerial(b *testing.B) {
	c, err := core.Compile(nbody.BarnesHutForcePSL)
	if err != nil {
		b.Fatal(err)
	}
	args := []interp.Value{interp.IntVal(64), interp.RealVal(0.5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Run(core.RunConfig{Seed: 7}, nbody.ForceFunc, args...); err != nil {
			b.Fatal(err)
		}
	}
}

func benchR2Force(b *testing.B, pol parexec.Policy, pes int) {
	c, err := core.Compile(nbody.BarnesHutForcePSL)
	if err != nil {
		b.Fatal(err)
	}
	par, err := c.StripMine(nbody.ForceFunc, nbody.ForceLoop, 4*pes)
	if err != nil {
		b.Fatal(err)
	}
	args := []interp.Value{interp.IntVal(64), interp.RealVal(0.5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := par.RunParallel(core.RunConfig{Seed: 7, Sched: pol}, pes, nbody.ForceFunc, args...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkR2ForceBlock4(b *testing.B)   { benchR2Force(b, parexec.StaticBlock, 4) }
func BenchmarkR2ForceCyclic4(b *testing.B)  { benchR2Force(b, parexec.StaticCyclic, 4) }
func BenchmarkR2ForceDynamic4(b *testing.B) { benchR2Force(b, parexec.Dynamic(1), 4) }
func BenchmarkR2ForceDynamic8(b *testing.B) { benchR2Force(b, parexec.Dynamic(2), 8) }

// ---------------------------------------------------------------------------
// R3 — the execution-engine comparison: the same workloads under the
// tree-walking oracle (interp.EngineWalk); the bytecode VM's side of
// the table is R6 below. These are the CI guards behind the R3 table
// (`cmd/experiments -real`) and the checked-in BENCH_interp.json
// trajectory; TestBytecodeSpeedupFloor asserts the serial
// force-workload ratio (under -cost-gates).

func benchR3Serial(b *testing.B, eng interp.Engine, src, fn string, seed uint64, args ...interp.Value) {
	c, err := core.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Run(core.RunConfig{Seed: seed, Engine: eng}, fn, args...); err != nil {
			b.Fatal(err)
		}
	}
}

func r3PolyArgs() (string, string, uint64, []interp.Value) {
	return parexec.PolyNormalizePSL, "run", 0,
		[]interp.Value{interp.IntVal(512), interp.RealVal(1.001)}
}

func r3ForceArgs() (string, string, uint64, []interp.Value) {
	return nbody.BarnesHutForcePSL, nbody.ForceFunc, 7,
		[]interp.Value{interp.IntVal(64), interp.RealVal(0.5)}
}

func BenchmarkR3WalkPolySerial(b *testing.B) {
	src, fn, seed, args := r3PolyArgs()
	benchR3Serial(b, interp.EngineWalk, src, fn, seed, args...)
}

func BenchmarkR3WalkForceSerial(b *testing.B) {
	src, fn, seed, args := r3ForceArgs()
	benchR3Serial(b, interp.EngineWalk, src, fn, seed, args...)
}

func benchR3ForceParallel(b *testing.B, eng interp.Engine) {
	src, fn, seed, args := r3ForceArgs()
	c, err := core.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	par, err := c.StripMine(fn, nbody.ForceLoop, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := par.RunParallel(core.RunConfig{Seed: seed, Engine: eng, Sched: parexec.StaticCyclic},
			4, fn, args...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkR3WalkForceParallel4(b *testing.B) { benchR3ForceParallel(b, interp.EngineWalk) }

// ---------------------------------------------------------------------------
// R6 — the flat bytecode VM (interp.EngineBytecode) on the same R3
// workloads: the production engine's rows in BENCH_interp.json.
// TestBytecodeSpeedupFloor asserts the serial force-workload ratio
// over the walker; allocs/op is reported because the VM's
// selling point is an allocation-free hot loop over typed register
// banks (TestR6BytecodeSerialAllocs pins that).

func BenchmarkR6BytecodePolySerial(b *testing.B) {
	b.ReportAllocs()
	src, fn, seed, args := r3PolyArgs()
	benchR3Serial(b, interp.EngineBytecode, src, fn, seed, args...)
}

// BenchmarkR6BytecodePolyParallel2 is the planned form of
// BenchmarkR6BytecodePolySerial on two PEs: normalize strip-mined at
// the planner's default width (4×PEs), 64 scalar barriers of eight
// ≈5 µs iterations — the grain at which the barrier's cost, not the
// work, decides whether the planned program beats the serial one.
func BenchmarkR6BytecodePolyParallel2(b *testing.B) {
	b.ReportAllocs()
	benchRealPoly(b, interp.EngineBytecode, transform.DefaultWidth(2), 2)
}

func BenchmarkR6BytecodeForceSerial(b *testing.B) {
	b.ReportAllocs()
	src, fn, seed, args := r3ForceArgs()
	benchR3Serial(b, interp.EngineBytecode, src, fn, seed, args...)
}

func BenchmarkR6BytecodeForceParallel4(b *testing.B) {
	b.ReportAllocs()
	benchR3ForceParallel(b, interp.EngineBytecode)
}

// ---------------------------------------------------------------------------
// R8 — the SPMD kernel path (interp.EngineKernel) on the vectorizable
// force workload (nbody.VecForcePSL): the kernel rows in
// BENCH_interp.json. The bytecode baseline runs the unstripped serial
// program (the VM's honest serial form); the kernel engine runs the
// strip-mined program, whose strips execute inline on the vector path
// — the same pairing TestKernelSpeedupFloor gates.

func benchR8VecForce(b *testing.B, c *core.Compilation, eng interp.Engine) {
	b.ReportAllocs()
	args := []interp.Value{interp.IntVal(256), interp.IntVal(160), interp.RealVal(0.5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Run(core.RunConfig{Seed: 7, Engine: eng}, nbody.VecForceFunc, args...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkR8BytecodeVecForceSerial(b *testing.B) {
	c, err := core.Compile(nbody.VecForcePSL)
	if err != nil {
		b.Fatal(err)
	}
	benchR8VecForce(b, c, interp.EngineBytecode)
}

func BenchmarkR8KernelVecForceSerial(b *testing.B) {
	c, err := core.Compile(nbody.VecForcePSL)
	if err != nil {
		b.Fatal(err)
	}
	par, err := c.StripMine(nbody.VecForceFunc, nbody.VecForceLoop, 64)
	if err != nil {
		b.Fatal(err)
	}
	benchR8VecForce(b, par, interp.EngineKernel)
}

// TestR6BytecodeSerialAllocs pins the VM's allocation discipline: a
// hot serial run (arithmetic, comparisons, calls — no `new`, no
// print) must allocate only a small constant number of objects per
// Call (argument boxing; frames and register banks come from the
// pool after the warm-up run), independent of iteration count.
func TestR6BytecodeSerialAllocs(t *testing.T) {
	prog := lang.MustParse(`
function real inner(real x, int e) {
  var real v = 1.0;
  var int i = 0;
  while i < e {
    v = v * x;
    i = i + 1;
  }
  return v;
}
function real hot(int n) {
  var real s = 0.0;
  for k = 1 to n {
    s = s + inner(1.0001, 50) + sqrt(abs(s)) * 0.5;
    if s > 1000000.0 { s = s / 2.0; }
  }
  return s;
}`)
	ip := interp.New(prog, interp.Config{Engine: interp.EngineBytecode})
	args := []interp.Value{interp.IntVal(2000)}
	if _, err := ip.Call("hot", args...); err != nil { // warm the frame pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ip.Call("hot", args...); err != nil {
			t.Fatal(err)
		}
	})
	// 2000 outer iterations × (a user call + builtins) execute with
	// zero per-iteration allocations; the per-Call budget covers only
	// entry-side boxing.
	if allocs > 8 {
		t.Errorf("bytecode serial run allocates %.0f objects/run, want ≤ 8 (hot loop must not allocate)", allocs)
	}
}

// ---------------------------------------------------------------------------
// F1 — validation distinguishing the Figure 1 shapes.

func BenchmarkFig1ValidationVerdict(b *testing.B) {
	src := adds.OneWayListSrc + `
procedure close(OneWayList *a, OneWayList *x) {
  a->next = x;
  x->next = a;
}`
	prog := lang.MustParse(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := analysis.Analyze(prog, "close")
		if err != nil {
			b.Fatal(err)
		}
		if fr.Exit.Valid("OneWayList", "X") {
			b.Fatal("violation lost")
		}
	}
}

// F2 — one-way list traversal (scale loop), sequential vs strip-mined.

func BenchmarkFig2ListScaleSequential(b *testing.B) {
	p := poly.New()
	for i := 0; i < 4096; i++ {
		p = p.Add(poly.New(poly.Term{Coef: int64(i + 1), Exp: i}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Scale(3)
	}
}

func BenchmarkFig2ListScaleParallel4(b *testing.B) {
	p := poly.New()
	for i := 0; i < 4096; i++ {
		p = p.Add(poly.New(poly.Term{Coef: int64(i + 1), Exp: i}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ScaleParallel(4, 3)
	}
}

func BenchmarkFig2Bignum100Factorial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if bignum.Factorial(100).Limbs() == 0 {
			b.Fatal("empty")
		}
	}
}

// F3 — orthogonal-list sparse matrix operations.

func makeSparse(n int) *orthlist.Matrix {
	m := orthlist.New(n, n)
	r := rand.New(rand.NewSource(4))
	for k := 0; k < n*8; k++ {
		m.Set(r.Intn(n), r.Intn(n), r.Float64()+0.1)
	}
	return m
}

func BenchmarkFig3SparseMulVec(b *testing.B) {
	m := makeSparse(256)
	x := make([]float64, 256)
	for i := range x {
		x[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x)
	}
}

func BenchmarkFig3SparseTranspose(b *testing.B) {
	m := makeSparse(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transpose()
	}
}

func BenchmarkFig3SparseRowScaleParallel(b *testing.B) {
	m := makeSparse(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScaleRowsParallel(4, func(int) float64 { return 1.0 })
	}
}

// F4 — range-tree construction and queries.

func BenchmarkFig4RangeTreeBuild(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	pts := make([]rangetree.Point, 2048)
	for i := range pts {
		pts[i] = rangetree.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000, ID: i}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rangetree.Build(pts)
	}
}

func BenchmarkFig4RangeTreeRectQuery(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	pts := make([]rangetree.Point, 2048)
	for i := range pts {
		pts[i] = rangetree.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000, ID: i}
	}
	t := rangetree.Build(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.QueryRect(100, 100, 300, 300)
	}
}

// F5 — octree construction (the Barnes-Hut build).

func BenchmarkFig5OctreeBuild(b *testing.B) {
	s := nbody.NewUniform(1024, 7, 0.5, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BuildTree()
	}
}

// ---------------------------------------------------------------------------
// PM1/PM2 — analysis speed on the paper's two programs.

func BenchmarkPM1PolyLoopAnalysis(b *testing.B) {
	prog := lang.MustParse(adds.OneWayListSrc + `
procedure scale(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data * c;
    p = p->next;
  }
}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Analyze(prog, "scale"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPM2BarnesHutAnalysis(b *testing.B) {
	prog := lang.MustParse(nbody.BarnesHutPSL)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.New(prog).AnalyzeAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPM2StripMineBothLoops(b *testing.B) {
	prog := lang.MustParse(nbody.BarnesHutPSL)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1, err := transform.StripMine(prog, nbody.TimestepFunc, nbody.BHL1, 4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := transform.StripMine(r1.Program, nbody.TimestepFunc, nbody.BHL2, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// X1 — precision comparison run.

func BenchmarkXPrecisionComparison(b *testing.B) {
	c, err := core.Compile(nbody.BarnesHutPSL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := c.CompareBaselines(nbody.TimestepFunc, nbody.BHL1)
		if err != nil {
			b.Fatal(err)
		}
		if !v.ADDS || v.KLimited {
			b.Fatal("unexpected verdicts")
		}
	}
}

// X2 — scheduling/sync ablation cell.

func BenchmarkXAblationFastSync(b *testing.B) {
	cfg := sequent.DefaultTableConfig()
	cfg.Ns = []int{64}
	cfg.PEs = []int{4}
	cfg.MeasureSteps = 1
	cfg.CalibrateSeconds = 0
	costs := interp.DefaultCosts()
	costs.Barrier = 100
	cfg.Costs = costs
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		t, err := sequent.BarnesHutTable(cfg)
		if err != nil {
			b.Fatal(err)
		}
		speedup = t.Rows[0].Speedup[4]
	}
	b.ReportMetric(speedup, "speedup")
}

// ---------------------------------------------------------------------------
// Interpreter and front-end throughput.

func BenchmarkInterpBHL1Step(b *testing.B) {
	code := interp.CompileProgram(lang.MustParse(nbody.BarnesHutPSL))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip := interp.NewCompiled(code, interp.Config{Seed: 7})
		if _, err := ip.Call("simulate", interp.IntVal(32), interp.IntVal(1),
			interp.RealVal(0.5), interp.RealVal(0.01)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseBarnesHut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := lang.Parse(nbody.BarnesHutPSL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkListParallelEach(b *testing.B) {
	l := list.New[int]()
	for i := 0; i < 2048; i++ {
		l.Append(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.ParallelEach(4, func(n *list.Node[int]) { n.Data++ })
	}
}

// X3 — the theta accuracy/work sweep (one cell).
func BenchmarkXThetaSweepCell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := nbody.ThetaSweep(256, 7, []float64{0.5})
		if rows[0].Interactions == 0 {
			b.Fatal("no work counted")
		}
	}
}
