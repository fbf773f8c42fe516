// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index):
//
//	-t        T1/T2: the §4.4 TIMES and SPEEDUP tables (simulated Sequent)
//	-fig N    F1..F5: the data-structure figures (ADDS declarations and
//	          what the validation proves about them)
//	-pm N     PM1: §3.3.2 polynomial-loop matrices; PM2: §4.3.2 BHL1
//	          matrix; PM3 (= V2): octree build validation
//	-x N      X1: analysis precision comparison; X2: scheduling/sync
//	          ablation; X3: theta accuracy/work sweep
//	-real     R1, R2, R3, R5, R8: measured wall-clock speedups on real
//	          goroutines (parexec) next to the simulated Sequent
//	          prediction — R1 on the §3.3.2 polynomial, R2 on the
//	          Barnes-Hut force loop, per scheduling policy (RX2),
//	          R3 the bytecode-VM vs tree-walker comparison on both
//	          workloads, R5 the auto-parallelization planner vs
//	          the hand-tuned StripMine calls (with the plan report),
//	          and R8 the SPMD kernel path vs the bytecode VM on the
//	          vectorizable force workload (with per-loop vector
//	          verdicts)
//	-plancost R7: the auto-parallelization planner's cost scaling on
//	          generated many-loop programs (the BENCH_plan.json workload)
//	-pes, -sched, -chunk
//	          pool sizes and R2 scheduling policy for -real
//	-all      everything (the default when no flag is given)
//	-measure  time steps simulated per T1 cell (default 1)
//
// The flag set itself — authoritative names, defaults, and usage
// strings — lives in internal/expflags, so the doc-drift test can
// check documented commands against it; run with -h for the details.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/adds"
	"repro/internal/core"
	"repro/internal/expflags"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/parexec"
	"repro/internal/sequent"
	"repro/internal/tablefmt"
	"repro/internal/transform"
)

func main() {
	f := expflags.Register(flag.CommandLine)
	flag.Parse()

	if !f.Tables && f.Fig == 0 && f.PM == 0 && f.X == 0 && !f.Real && !f.PlanCost {
		f.All = true
	}
	if f.All || f.Tables {
		runTables(f.Measure)
	}
	if f.All || f.Real {
		peList, err := f.PEList()
		if err != nil {
			fatal(err)
		}
		policies, err := f.Policies()
		if err != nil {
			fatal(err)
		}
		runR1(peList)
		runR2(peList, policies)
		runR3(peList)
		runR5(peList)
		runR8(peList)
	}
	if f.All || f.PlanCost {
		runR7()
	}
	for n := 1; n <= 5; n++ {
		if f.All || f.Fig == n {
			runFigure(n)
		}
	}
	for p := 1; p <= 3; p++ {
		if f.All || f.PM == p {
			runPM(p)
		}
	}
	for e := 1; e <= 3; e++ {
		if f.All || f.X == e {
			runX(e, f.Measure)
		}
	}
}

// defaultEngine is the engine an empty RunConfig runs — what R1, R2 and
// R5 measure and name in their headers.
var defaultEngine = core.RunConfig{}.Engine

func header(s string) { fmt.Printf("\n===== %s =====\n\n", s) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// ---------------------------------------------------------------------------
// T1/T2

func runTables(measure int) {
	header("T1/T2 — §4.4 TIMES and SPEEDUP (simulated Sequent)")
	cfg := sequent.DefaultTableConfig()
	cfg.MeasureSteps = measure
	t, err := sequent.BarnesHutTable(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Println(t.FormatTimes())
	fmt.Println(t.FormatSpeedups())
	fmt.Println("paper: seq 188/1496/3768 s; par(4) speedups 2.5/2.7/2.8; par(7) 3.3/4.1/4.3")
}

// ---------------------------------------------------------------------------
// R1/R2 — measured wall-clock speedup on real goroutines

// warnOversubscribed flags pool sizes beyond the host's CPUs: those
// cells still verify the bit-identical checksum property, but their
// SPEEDUP entries measure oversubscription, not parallel capacity.
// (The default -pes 2,4,8 keeps the determinism sweep complete on any
// host; trim it to taste for timing-only runs.)
func warnOversubscribed(peList []int) {
	maxPEs := 0
	for _, p := range peList {
		if p > maxPEs {
			maxPEs = p
		}
	}
	if maxPEs > runtime.NumCPU() {
		fmt.Printf("note: pool sizes above NumCPU=%d are oversubscribed — those SPEEDUP\n", runtime.NumCPU())
		fmt.Println("rows check determinism, not parallel capacity.")
	}
}

// timeRun reports the best wall-clock of three executions.
func timeRun(run func() error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := run(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// realTable accumulates one measured experiment's TIMES/SPEEDUP grids
// plus the simulated Sequent's prediction, sharing the measurement
// conventions between R1 and R2 (DESIGN.md: best of 3 runs per cell,
// speedups relative to the serial interpreter on the same host,
// checksum equality with the serial run asserted on every parallel
// cell).
type realTable struct {
	c         *core.Compilation
	fn        string
	seed      uint64
	ns        []int
	argsFor   func(n int) []interp.Value
	times     *tablefmt.Table
	speedups  *tablefmt.Table
	simulated *tablefmt.Table
	seqMs     []float64
	seqCycles []float64
	checksums []float64
	cells     int
}

// newRealTable times the serial interpreter (and the 1-PE simulated
// machine) on every N, filling the seq rows and the reference
// checksums every parallel cell is compared against.
func newRealTable(c *core.Compilation, fn string, seed uint64, ns []int, argsFor func(n int) []interp.Value) *realTable {
	rt := &realTable{
		c: c, fn: fn, seed: seed, ns: ns, argsFor: argsFor,
		times:     tablefmt.New("TIMES ms", ns...),
		speedups:  tablefmt.New("SPEEDUP", ns...),
		simulated: tablefmt.New("SEQUENT", ns...),
		seqMs:     make([]float64, len(ns)),
		seqCycles: make([]float64, len(ns)),
		checksums: make([]float64, len(ns)),
	}
	ones := make([]float64, len(ns))
	for i, n := range ns {
		args := argsFor(n)
		d, err := timeRun(func() error {
			v, _, err := c.Run(core.RunConfig{Seed: seed}, fn, args...)
			rt.checksums[i] = v.F
			return err
		})
		if err != nil {
			fatal(err)
		}
		rt.seqMs[i] = float64(d.Microseconds()) / 1000
		m := sequent.NewMachine(1)
		m.Seed = seed
		res, err := m.Run(c.Program, fn, args...)
		if err != nil {
			fatal(err)
		}
		rt.seqCycles[i] = float64(res.Cycles)
		ones[i] = 1
	}
	rt.times.AddRow("seq", rt.seqMs...)
	rt.speedups.AddRow("seq", ones...)
	rt.simulated.AddRow("seq", ones...)
	return rt
}

// addMeasuredRow times one parallel configuration (best of 3 per N),
// asserting each cell's checksum against the serial run, and appends
// it to the TIMES and SPEEDUP grids.
func (rt *realTable) addMeasuredRow(label string, par *core.Compilation, pes int, pol parexec.Policy) {
	parMs := make([]float64, len(rt.ns))
	parSpeed := make([]float64, len(rt.ns))
	for i, n := range rt.ns {
		args := rt.argsFor(n)
		d, err := timeRun(func() error {
			v, _, err := par.RunParallel(core.RunConfig{Seed: rt.seed, Sched: pol}, pes, rt.fn, args...)
			if err == nil && v.F != rt.checksums[i] {
				return fmt.Errorf("%s N=%d: checksum %g != serial %g", label, n, v.F, rt.checksums[i])
			}
			return err
		})
		if err != nil {
			fatal(err)
		}
		parMs[i] = float64(d.Microseconds()) / 1000
		parSpeed[i] = rt.seqMs[i] / parMs[i]
		rt.cells++
	}
	rt.times.AddRow(label, parMs...)
	rt.speedups.AddRow(label, parSpeed...)
}

// addSimRow appends the simulated Sequent's speedup prediction for the
// same strip-mined program (the machine model only has the static
// cyclic/block mappings; predictions here use its default, cyclic).
func (rt *realTable) addSimRow(label string, par *core.Compilation, pes int) {
	simSpeed := make([]float64, len(rt.ns))
	for i, n := range rt.ns {
		m := sequent.NewMachine(pes)
		m.Seed = rt.seed
		res, err := m.Run(par.Program, rt.fn, rt.argsFor(n)...)
		if err != nil {
			fatal(err)
		}
		simSpeed[i] = rt.seqCycles[i] / float64(res.Cycles)
	}
	rt.simulated.AddRow(label, simSpeed...)
}

// print renders the three grids.
func (rt *realTable) print() {
	fmt.Println(rt.times.Format(1))
	fmt.Println(rt.speedups.Format(2))
	fmt.Println("Simulated Sequent speedup prediction for the same strip-mined")
	fmt.Println("program (static cyclic mapping — the model's scheduling):")
	fmt.Println()
	fmt.Println(rt.simulated.Format(2))
}

// runR1 measures the paper's own strip-mining configuration: width =
// PEs, one iteration per PE per barrier, under the paper's static
// cyclic mapping (enforced, not assumed — the engine default dynamic
// policy could let one PE claim two iterations on a loaded host). At
// that width the -sched/-chunk knobs could only de-parallelize the
// strip, so they shape the R2 tables instead.
func runR1(peList []int) {
	header("R1 — measured wall-clock speedup (goroutine-backed parexec)")
	fmt.Printf("host: GOMAXPROCS=%d, NumCPU=%d; workload: §3.3.2 polynomial;\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("engine: %s\n", defaultEngine)
	fmt.Println("normalize (O(exp) work per node); strip width = PEs, static cyclic")
	fmt.Println("(the paper's §4.3.3 split); best of 3 runs per cell.")
	warnOversubscribed(peList)
	fmt.Println()

	c, err := core.Compile(parexec.PolyNormalizePSL)
	if err != nil {
		fatal(err)
	}
	rt := newRealTable(c, "run", 0, []int{500, 2000}, func(n int) []interp.Value {
		return []interp.Value{interp.IntVal(int64(n)), interp.RealVal(1.001)}
	})
	for _, pes := range peList {
		par, err := c.StripMine(parexec.NormalizeFunc, parexec.NormalizeLoop, pes)
		if err != nil {
			fatal(err)
		}
		label := fmt.Sprintf("par(%d)", pes)
		rt.addMeasuredRow(label, par, pes, parexec.StaticCyclic)
		rt.addSimRow(label, par, pes)
	}
	rt.print()
	fmt.Println("Parallel checksums matched the serial run bit-for-bit.")
}

// polLabel abbreviates a policy name for table rows: blk(4), cyc(4),
// dyn(4).
func polLabel(pol parexec.Policy, pes int) string {
	short := map[string]string{"block": "blk", "cyclic": "cyc", "dynamic": "dyn"}
	s, ok := short[pol.Name()]
	if !ok {
		s = pol.Name()
	}
	return fmt.Sprintf("%s(%d)", s, pes)
}

// runR2 measures the paper's headline workload on real goroutines: the
// Barnes-Hut force-computation loop (nbody.BarnesHutForcePSL), strip-
// mined at width 4×PEs so the scheduling policy owns the iteration→PE
// map, one row per policy × pool size, next to the simulated Sequent's
// prediction for the same strip-mined program (the T1/T2 model).
func runR2(peList []int, policies []parexec.Policy) {
	header("R2 — Barnes-Hut measured wall-clock (goroutine-backed parexec)")
	fmt.Printf("host: GOMAXPROCS=%d, NumCPU=%d; workload: Barnes-Hut force loop;\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("engine: %s\n", defaultEngine)
	fmt.Println("(run_forces: serial octree build, parallel FCL — the BHL1 shape);")
	fmt.Println("strip width 4×PEs; best of 3 runs per cell; every parallel cell's")
	fmt.Println("checksum is asserted bit-identical to the serial interpreter.")
	warnOversubscribed(peList)
	fmt.Println()

	c, err := core.Compile(nbody.BarnesHutForcePSL)
	if err != nil {
		fatal(err)
	}
	rt := newRealTable(c, nbody.ForceFunc, 7, []int{64, 128}, func(n int) []interp.Value {
		return []interp.Value{interp.IntVal(int64(n)), interp.RealVal(0.5)}
	})
	for _, pes := range peList {
		par, err := c.StripMine(nbody.ForceFunc, nbody.ForceLoop, 4*pes)
		if err != nil {
			fatal(err)
		}
		for _, pol := range policies {
			rt.addMeasuredRow(polLabel(pol, pes), par, pes, pol)
		}
		rt.addSimRow(fmt.Sprintf("cyc(%d)", pes), par, pes)
	}
	rt.print()
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.Name()
	}
	fmt.Printf("All %d parallel cells (policies: %s; PEs: %v) matched the serial\n",
		rt.cells, strings.Join(names, ", "), peList)
	fmt.Println("checksum bit-for-bit.")
	runR2Efficiency(c, peList)
}

// runR2Efficiency closes R2's loop from plan to silicon: the planner's
// verdict on the force loop (approved, width 4×PEs) next to what the
// worker pool achieved — per-PE busy/wait shares and the imbalance
// ratio from the parexec forall profiler, joined to the plan by source
// line. A near-100% busy share says the strip width kept every PE fed;
// a high wait share or imbalance says the planned decomposition left
// PEs idling at the barrier.
func runR2Efficiency(c *core.Compilation, peList []int) {
	fmt.Println("\nplanned vs achieved (auto-parallelized force run, profiler attached):")
	fmt.Printf("%-10s %-24s %8s %6s %6s %6s %9s  %s\n",
		"config", "planned site", "tasks", "busy%", "wait%", "imbal", "wall ms", "vector")
	for _, pes := range peList {
		auto, err := c.AutoParallel(4 * pes)
		if err != nil {
			fatal(err)
		}
		byLine := make(map[int]string)
		for _, lp := range auto.Plan.Loops {
			if lp.Parallelized {
				byLine[lp.Pos.Line] = fmt.Sprintf("%s#%d width=%d", lp.Func, lp.Index, lp.Width)
			}
		}
		prof := obs.NewForallProfiler()
		_, _, err = auto.RunParallel(
			core.RunConfig{Seed: 7, Sched: parexec.StaticCyclic, Profiler: prof},
			pes, nbody.ForceFunc, interp.IntVal(128), interp.RealVal(0.5))
		if err != nil {
			fatal(err)
		}
		for _, site := range prof.Report() {
			planned, ok := byLine[site.Line]
			if !ok {
				planned = fmt.Sprintf("line %d (unplanned)", site.Line)
			}
			fmt.Printf("%-10s %-24s %8d %5.1f%% %5.1f%% %6.2f %9.2f  %s\n",
				fmt.Sprintf("auto(%d)", pes), planned, site.Tasks, site.BusyPct, site.WaitPct,
				site.Imbalance, float64(site.WallUS)/1000, vectorCell(site))
		}
	}
	fmt.Println("busy% = mean per-PE share of barrier wall time spent in iterations;")
	fmt.Println("wait% = share spent idle at the barrier after draining the queue;")
	fmt.Println("imbal = busiest PE busy time / mean PE busy time (1.00 = level);")
	fmt.Println("vector = strips that ran the SPMD kernel path, with the serial")
	fmt.Println("gather/scatter slab phases' wall time (— = scalar per-task strips).")
}

// vectorCell renders a site's vector-path column: the kernel mark plus
// the serial slab phases' time for vectorized strips, a dash for the
// scalar per-task path — so the planned-vs-achieved table stays
// truthful when a planned loop ran whole-slab (its per-task busy/wait
// shares measure chunks, not queue draining).
func vectorCell(site obs.SiteReport) string {
	if !site.Kernel {
		return "—"
	}
	return fmt.Sprintf("kernel g=%dus s=%dus", site.GatherUS, site.ScatterUS)
}

// runR3 measures the execution-engine comparison: the same programs
// under the tree-walking oracle and the flat bytecode VM (R6), serial
// and strip-mined parallel, with checksums asserted identical across
// every engine × mode cell. It exists because R1/R2 speedups are only
// as honest as their serial baseline: the bytecode VM is that baseline
// made fast (no scope-map lookups, no field-name hashing, typed
// register banks copied per frame fork instead of map rebuilds, no
// interface values in the hot loop).
func runR3(peList []int) {
	header("R3 — execution engines compared (same results, fewer cycles of ours)")
	fmt.Printf("host: GOMAXPROCS=%d, NumCPU=%d; best of 3 runs per cell;\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Println("par rows: strip width 4×PEs, static cyclic, parexec pool.")
	fmt.Println()

	maxPE := 0
	for _, p := range peList {
		if p > maxPE {
			maxPE = p
		}
	}
	type workload struct {
		label  string
		src    string
		fn     string // strip-mining target
		loop   int
		driver string // entry point to time
		seed   uint64
		args   []interp.Value
	}
	workloads := []workload{
		{"poly N=2000", parexec.PolyNormalizePSL, parexec.NormalizeFunc, parexec.NormalizeLoop, "run", 0,
			[]interp.Value{interp.IntVal(2000), interp.RealVal(1.001)}},
		{"force N=128", nbody.BarnesHutForcePSL, nbody.ForceFunc, nbody.ForceLoop, nbody.ForceFunc, 7,
			[]interp.Value{interp.IntVal(128), interp.RealVal(0.5)}},
	}
	fmt.Printf("%-14s %-9s %10s %12s %14s\n",
		"workload", "config", "walk ms", "bytecode ms", "walk/bytecode")
	for _, w := range workloads {
		c, err := core.Compile(w.src)
		if err != nil {
			fatal(err)
		}
		driver := w.driver
		par, err := c.StripMine(w.fn, w.loop, 4*maxPE)
		if err != nil {
			fatal(err)
		}
		var ref float64
		haveRef := false
		cell := func(eng interp.Engine, parallel bool) float64 {
			d, err := timeRun(func() error {
				var v interp.Value
				var err error
				if parallel {
					v, _, err = par.RunParallel(core.RunConfig{Seed: w.seed, Sched: parexec.StaticCyclic, Engine: eng},
						maxPE, driver, w.args...)
				} else {
					v, _, err = c.Run(core.RunConfig{Seed: w.seed, Engine: eng}, driver, w.args...)
				}
				if err != nil {
					return err
				}
				if haveRef && v.F != ref {
					return fmt.Errorf("%s: engine %s checksum %g != reference %g", w.label, eng, v.F, ref)
				}
				ref, haveRef = v.F, true
				return nil
			})
			if err != nil {
				fatal(err)
			}
			return float64(d.Microseconds()) / 1000
		}
		for _, parallel := range []bool{false, true} {
			cfgLabel := "seq"
			if parallel {
				cfgLabel = fmt.Sprintf("par(%d)", maxPE)
			}
			wms := cell(interp.EngineWalk, parallel)
			bms := cell(interp.EngineBytecode, parallel)
			fmt.Printf("%-14s %-9s %10.1f %12.1f %13.1fx\n",
				w.label, cfgLabel, wms, bms, wms/bms)
		}
	}
	fmt.Println("\nEvery engine × mode cell reproduced the same checksum bit-for-bit;")
	fmt.Println("TestBytecodeSpeedupFloor pins the serial force-workload ratio in CI.")
}

// runR5 measures the auto-parallelization planner against the
// hand-tuned StripMine calls that R1 and R2 are built on. The planner
// (transform.AutoParallelize, via core.AutoParallel) is handed the
// whole program and no hints — it runs the dependence test on every
// while loop and strip-mines the approved ones — so this table is the
// paper's pitch made executable: the annotations license the
// *compiler*, not the caller. For each workload it prints the full
// plan (approvals, rejections with reasons, absorbed loops), then one
// row pair per pool size: hand(p) is today's hand-wired call, auto(p)
// the planner's program, every cell checksum-asserted against the
// serial run.
func runR5(peList []int) {
	header("R5 — auto-parallelization planner vs hand-tuned StripMine")
	fmt.Printf("host: GOMAXPROCS=%d, NumCPU=%d; engine: %s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), defaultEngine)
	fmt.Println("core.AutoParallel plans whole programs (no function names, no loop")
	fmt.Println("indices); widths match the hand-tuned conventions (R1 width = PEs,")
	fmt.Println("R2 width = 4×PEs); static cyclic; best of 3 runs per cell.")
	warnOversubscribed(peList)

	type workload struct {
		label    string
		src      string
		fn       string // hand-tuned strip-mining target
		loop     int
		driver   string // entry point to time
		seed     uint64
		args     []interp.Value
		widthFor func(pes int) int
	}
	workloads := []workload{
		{"poly N=2000", parexec.PolyNormalizePSL, parexec.NormalizeFunc, parexec.NormalizeLoop, "run", 0,
			[]interp.Value{interp.IntVal(2000), interp.RealVal(1.001)},
			func(pes int) int { return pes }},
		{"force N=128", nbody.BarnesHutForcePSL, nbody.ForceFunc, nbody.ForceLoop, nbody.ForceFunc, 7,
			[]interp.Value{interp.IntVal(128), interp.RealVal(0.5)},
			func(pes int) int { return 4 * pes }},
	}
	for _, w := range workloads {
		c, err := core.Compile(w.src)
		if err != nil {
			fatal(err)
		}
		plan0, err := c.AutoParallel(w.widthFor(peList[0]))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%s — %s\n", w.label, plan0.Plan.Summary())
		for _, lp := range plan0.Plan.Loops {
			fmt.Printf("  %s\n", lp)
		}

		var checksum float64
		haveRef := false
		serial, err := timeRun(func() error {
			v, _, err := c.Run(core.RunConfig{Seed: w.seed}, w.driver, w.args...)
			checksum, haveRef = v.F, true
			return err
		})
		if err != nil {
			fatal(err)
		}
		serialMs := float64(serial.Microseconds()) / 1000
		cell := func(par *core.Compilation, pes int, kind string) float64 {
			d, err := timeRun(func() error {
				v, _, err := par.RunParallel(core.RunConfig{Seed: w.seed, Sched: parexec.StaticCyclic},
					pes, w.driver, w.args...)
				if err == nil && haveRef && v.F != checksum {
					return fmt.Errorf("%s %s(%d): checksum %g != serial %g", w.label, kind, pes, v.F, checksum)
				}
				return err
			})
			if err != nil {
				fatal(err)
			}
			return float64(d.Microseconds()) / 1000
		}
		fmt.Printf("\n%-10s %10s %10s %9s %9s\n", "config", "hand ms", "auto ms", "hand spd", "auto spd")
		fmt.Printf("%-10s %10.1f %10s %9.2f %9s\n", "seq", serialMs, "—", 1.0, "—")
		sameText := true
		for _, pes := range peList {
			width := w.widthFor(pes)
			hand, err := c.StripMine(w.fn, w.loop, width)
			if err != nil {
				fatal(err)
			}
			auto, err := c.AutoParallel(width)
			if err != nil {
				fatal(err)
			}
			if auto.Source() != hand.Source() {
				sameText = false
			}
			handMs := cell(hand, pes, "hand")
			autoMs := cell(auto.Compilation, pes, "auto")
			fmt.Printf("%-10s %10.1f %10.1f %9.2f %9.2f\n",
				fmt.Sprintf("par(%d)", pes), handMs, autoMs, serialMs/handMs, serialMs/autoMs)
		}
		if sameText {
			fmt.Println("auto emitted byte-identical programs to the hand-wired calls.")
		} else {
			fmt.Println("auto additionally parallelized loops the hand-wired call ignores")
			fmt.Println("(unreached from this driver); outputs stay bit-identical.")
		}
	}
	fmt.Println("\nEvery hand and auto cell reproduced the serial checksum bit-for-bit;")
	fmt.Println("TestAutoMatchesHandTuned pins the equivalence in CI.")
}

// runR8 measures the fourth execution path: planner-approved strips
// whose bodies the kernel classifier proves straight-line arithmetic
// over element fields run as batched struct-of-arrays kernels
// (gather → whole-slab masked compute → scatter) instead of per-lane
// scalar interpretation. The workload is nbody.VecForcePSL's pairwise
// force driver — the force arithmetic of R2 with the pointer-walking
// accumulation rewritten into a vectorizable shape. The serial
// baseline is the bytecode VM on the unstripped program (its honest
// serial form); kernel rows run the auto-parallelized program, serial
// strips inline on the vector path and pooled runs through parexec's
// strip scheduler, which runs each strip in place as one barrier. The
// plan print shows the per-loop vector
// verdict — which approved loops got the kernel and the classifier's
// concrete why-not for the rest.
func runR8(peList []int) {
	header("R8 — SPMD vectorized strips vs the bytecode VM")
	fmt.Printf("host: GOMAXPROCS=%d, NumCPU=%d; workload: pairwise vector force\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Println("(nbody.VecForcePSL, N=256, 160 steps); strip width 64; best of 3")
	fmt.Println("runs per cell; every cell's checksum asserted against the serial")
	fmt.Println("bytecode run. TestKernelSpeedupFloor gates the seq ratio in CI.")
	fmt.Println()

	c, err := core.Compile(nbody.VecForcePSL)
	if err != nil {
		fatal(err)
	}
	auto, err := c.AutoParallel(64)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("plan for %s — %s\n", nbody.VecForceFunc, auto.Plan.Summary())
	for _, lp := range auto.Plan.Loops {
		if lp.Func == nbody.VecForceFunc {
			fmt.Printf("  %s\n", lp)
		}
	}

	args := []interp.Value{interp.IntVal(256), interp.IntVal(160), interp.RealVal(0.5)}
	var checksum float64
	haveRef := false
	serial, err := timeRun(func() error {
		v, _, err := c.Run(core.RunConfig{Seed: 7, Engine: interp.EngineBytecode}, nbody.VecForceFunc, args...)
		checksum, haveRef = v.F, true
		return err
	})
	if err != nil {
		fatal(err)
	}
	serialMs := float64(serial.Microseconds()) / 1000
	cell := func(eng interp.Engine, pes int) float64 {
		d, err := timeRun(func() error {
			v, _, err := auto.RunParallel(core.RunConfig{Seed: 7, Sched: parexec.StaticCyclic, Engine: eng},
				pes, nbody.VecForceFunc, args...)
			if err == nil && haveRef && v.F != checksum {
				return fmt.Errorf("%s(%d): checksum %g != serial %g", eng, pes, v.F, checksum)
			}
			return err
		})
		if err != nil {
			fatal(err)
		}
		return float64(d.Microseconds()) / 1000
	}
	fmt.Printf("\n%-12s %12s %12s %9s %9s\n", "config", "bytecode ms", "kernel ms", "bc spd", "kern spd")
	fmt.Printf("%-12s %12.1f %12s %9.2f %9s\n", "seq", serialMs, "—", 1.0, "—")
	for _, pes := range peList {
		bcMs := cell(interp.EngineBytecode, pes)
		kernMs := cell(interp.EngineKernel, pes)
		fmt.Printf("%-12s %12.1f %12.1f %9.2f %9.2f\n",
			fmt.Sprintf("strips(%d)", pes), bcMs, kernMs, serialMs/bcMs, serialMs/kernMs)
	}

	fmt.Println("\nplanned vs achieved (kernel engine, profiler attached):")
	prof := obs.NewForallProfiler()
	if _, _, err := auto.RunParallel(
		core.RunConfig{Seed: 7, Sched: parexec.StaticCyclic, Engine: interp.EngineKernel, Profiler: prof},
		peList[0], nbody.VecForceFunc, args...); err != nil {
		fatal(err)
	}
	for _, site := range prof.Report() {
		fmt.Printf("  line %-5d tasks=%-6d imbal=%-5.2f wall=%.2fms  %s\n",
			site.Line, site.Tasks, site.Imbalance, float64(site.WallUS)/1000, vectorCell(site))
	}
	fmt.Println("\nThe bytecode rows pay one goroutine task per lane walking Node")
	fmt.Println("pointers; the kernel rows gather touched fields into flat slabs")
	fmt.Println("once per strip and run the body as whole-slab masked sweeps.")
}

// runR7 measures the auto-parallelization planner's own cost: wall
// time of transform.AutoParallelize on generated many-loop programs
// (transform.ManyLoopProgramPSL — N worker procedures × M approvable
// pointer-chasing loops, every one approved and strip-mined). The
// planner analyzes the input program once, tests every loop against
// that analysis and rewrites the approved ones in one pass, so
// per-loop cost should stay flat as programs grow; BENCH_plan.json
// records the same rows, and TestPlanCostSubquadratic gates this
// table's scaling in CI (its wall-clock half runs under -cost-gates).
func runR7() {
	header("R7 — auto-parallelization planner cost (one analysis, one batch of tests, one rewrite pass)")
	fmt.Printf("host: GOMAXPROCS=%d, NumCPU=%d; best of 3 runs per cell.\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Println("workload: ManyLoopProgramPSL(N, M) — every loop approved, so each")
	fmt.Println("cell pays one analysis, N·M dependence tests and N·M rewrites.")
	fmt.Println()
	fmt.Printf("%-12s %8s %12s %14s\n", "program", "loops", "plan ms", "ms per loop")
	type size struct{ n, m int }
	for _, s := range []size{{5, 5}, {10, 5}, {20, 5}, {20, 10}} {
		src := transform.ManyLoopProgramPSL(s.n, s.m)
		prog, err := lang.Parse(src)
		if err != nil {
			fatal(err)
		}
		loops := s.n * s.m
		d, err := timeRun(func() error {
			plan, err := transform.AutoParallelize(prog, 4)
			if err == nil && plan.Parallelized != loops {
				return fmt.Errorf("planned %d of %d loops", plan.Parallelized, loops)
			}
			return err
		})
		if err != nil {
			fatal(err)
		}
		ms := float64(d.Microseconds()) / 1000
		fmt.Printf("%-12s %8d %12.1f %14.3f\n",
			fmt.Sprintf("%dx%d", s.n, s.m), loops, ms, ms/float64(loops))
	}
	fmt.Println("\nFlat ms-per-loop across rows is the point: nothing is re-analyzed")
	fmt.Println("after a rewrite. BENCH_plan.json records the 25/100/200-loop rows;")
	fmt.Println("TestPlanCostSubquadratic re-measures the ratio under -cost-gates.")
}

// ---------------------------------------------------------------------------
// Figures

func runFigure(n int) {
	switch n {
	case 1:
		header("F1 — Figure 1: other structures buildable from ListNode")
		fmt.Println("With the unannotated ListNode declaration, a cyclic list and a")
		fmt.Println("shared (\"tournament\") list are legal; ADDS makes the difference")
		fmt.Println("visible to the compiler:")
		fmt.Println()
		// Cycle under OneWayList: flagged. Under ListNode: silent.
		cyclic := `
procedure close(%s *a, %s *b) {
  a->next = b;
  b->next = a;
}`
		for _, typ := range []struct{ name, src string }{
			{"ListNode (unannotated)", adds.ListNodeSrc},
			{"OneWayList (uniquely forward)", adds.OneWayListSrc},
		} {
			name := "ListNode"
			if typ.src == adds.OneWayListSrc {
				name = "OneWayList"
			}
			c, err := core.Compile(typ.src + fmt.Sprintf(cyclic, name, name))
			if err != nil {
				fatal(err)
			}
			keys, err := c.ExitViolations("close")
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  building a 2-cycle with %-30s -> %d violation(s) %v\n",
				typ.name+":", len(keys), keys)
		}
		fmt.Println("\n  (the unannotated type promises nothing, so nothing is violated;")
		fmt.Println("   the ADDS type detects the broken forward-along-X promise)")

	case 2:
		header("F2 — Figure 2: the one-way linked list")
		d := lang.MustParse(adds.OneWayListSrc).Universe.Decl("OneWayList")
		fmt.Println(d)
		fmt.Printf("\n  acyclic along next: %v\n", d.Acyclic("next"))
		fmt.Printf("  unique along X:     %v\n", d.UniqueAlong("X"))
		fmt.Printf("  traversal never revisits: %v\n", d.PathNeverRevisits("next"))

	case 3:
		header("F3 — Figure 3: the orthogonal list (sparse matrix)")
		d := lang.MustParse(adds.OrthListSrc).Universe.Decl("OrthList")
		fmt.Println(d)
		fmt.Printf("\n  X and Y dependent (default): %v\n", !d.Independent("X", "Y"))
		fmt.Printf("  forward along X never revisits: %v\n", d.PathNeverRevisits("across"))
		fmt.Printf("  forward along Y never revisits: %v\n", d.PathNeverRevisits("down"))

	case 4:
		header("F4 — Figure 4: the two-dimensional range tree")
		d := lang.MustParse(adds.TwoDRangeTreeSrc).Universe.Decl("TwoDRangeTree")
		fmt.Println(d)
		fmt.Printf("\n  sub independent of down:   %v\n", d.Independent("sub", "down"))
		fmt.Printf("  sub independent of leaves: %v\n", d.Independent("sub", "leaves"))
		fmt.Printf("  down/leaves dependent:     %v\n", !d.Independent("down", "leaves"))
		fmt.Printf("  left/right disjoint:       %v\n", d.DisjointSiblings("left", "right"))

	case 5:
		header("F5 — Figure 5: the Barnes-Hut octree")
		c, err := core.Compile(nbody.BarnesHutPSL)
		if err != nil {
			fatal(err)
		}
		d := c.Program.Universe.Decl("Octree")
		fmt.Println(d)
		fmt.Printf("\n  subtrees disjoint along down: %v\n", d.DisjointSiblings("subtrees"))
		fmt.Printf("  leaves traversal never revisits: %v\n", d.PathNeverRevisits("next"))
		fmt.Printf("  down and leaves dependent: %v\n", !d.Independent("down", "leaves"))
	}
}

// ---------------------------------------------------------------------------
// Path-matrix experiments

const polyScaleSrc = `
type OneWayList [X]
{ int coef, exp;
  OneWayList *next is uniquely forward along X;
};

procedure scale(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->coef = p->coef * c;
    p = p->next;
  }
}`

const polyScaleNoADDS = `
type ListNode
{ int coef, exp;
  ListNode *next;
};

procedure scale(ListNode *head, int c) {
  var ListNode *p = head;
  while p != NULL {
    p->coef = p->coef * c;
    p = p->next;
  }
}`

func runPM(n int) {
	switch n {
	case 1:
		header("PM1 — §3.3.2: path matrices for the polynomial-scaling loop")
		fmt.Println("Without ADDS (conservative, every entry =?):")
		c0, err := core.Compile(polyScaleNoADDS)
		if err != nil {
			fatal(err)
		}
		m0, err := c0.MatrixAfter("scale", "p = p->next;")
		if err != nil {
			fatal(err)
		}
		fmt.Println(m0)
		c, err := core.Compile(polyScaleSrc)
		if err != nil {
			fatal(err)
		}
		fmt.Println("With the OneWayList ADDS declaration, just before the loop:")
		before, err := c.MatrixBeforeLoop("scale", 0)
		if err != nil {
			fatal(err)
		}
		fmt.Println(before)
		fmt.Println("At the fixed point, after p = p->next (paper: head, p, p' never alias):")
		m, err := c.MatrixAfter("scale", "p = p->next;")
		if err != nil {
			fatal(err)
		}
		fmt.Println(m)

	case 2:
		header("PM2 — §4.3.2: the BHL1 path matrix")
		c, err := core.Compile(nbody.BarnesHutPSL)
		if err != nil {
			fatal(err)
		}
		m, err := c.MatrixAfter("timestep", "p = p->next;")
		if err != nil {
			fatal(err)
		}
		fmt.Println("After BHL1's advance (root/particles omitted entries are =?,")
		fmt.Println("p and p' provably distinct — the §4.3.2 conclusion):")
		fmt.Println(m)
		reps, err := c.LoopReports("timestep")
		if err != nil {
			fatal(err)
		}
		for _, r := range reps {
			fmt.Println(r)
			fmt.Println()
		}

	case 3:
		header("PM3/V2 — §4.3.2: validating build_tree / insert_particle")
		c, err := core.Compile(nbody.BarnesHutPSL)
		if err != nil {
			fatal(err)
		}
		for _, fn := range []string{"expand_box", "insert_particle", "build_tree", "timestep"} {
			keys, err := c.ExitViolations(fn)
			if err != nil {
				fatal(err)
			}
			status := "valid at exit"
			if len(keys) > 0 {
				status = fmt.Sprintf("violations: %v", keys)
			}
			fmt.Printf("  %-18s %s\n", fn, status)
		}
		fmt.Println("\n  insert_particle temporarily shares the competitor between the")
		fmt.Println("  old and new subtree; the final store repairs the abstraction")
		fmt.Println("  (verified statement-by-statement in internal/nbody tests).")
	}
}

// ---------------------------------------------------------------------------
// Supplementary experiments

func runX(n, measure int) {
	switch n {
	case 1:
		header("X1 — analysis precision: conservative vs k-limited vs ADDS+GPM")
		type target struct {
			src  string
			fn   string
			loop int
		}
		bh := nbody.BarnesHutPSL
		targets := []target{
			{polyScaleSrc, "scale", 0},
			{polyScaleNoADDS, "scale", 0},
			{bh, "timestep", 0},
			{bh, "timestep", 1},
			{bh, "build_tree", 0},
		}
		var rows []*core.BaselineVerdicts
		for _, tg := range targets {
			c, err := core.Compile(tg.src)
			if err != nil {
				fatal(err)
			}
			v, err := c.CompareBaselines(tg.fn, tg.loop)
			if err != nil {
				fatal(err)
			}
			if tg.src == polyScaleNoADDS {
				v.Func = "scale (no ADDS)"
			}
			if tg.src == bh && tg.fn == "timestep" {
				v.Func = fmt.Sprintf("timestep BHL%d", tg.loop+1)
			}
			rows = append(rows, v)
		}
		fmt.Println(core.FormatVerdictTable(rows))
		fmt.Println("ADDS+GPM parallelizes exactly the loops the paper says it should;")
		fmt.Println("both baselines reject everything (k-limited summarization folds")
		fmt.Println("lists into spurious cycles — the paper's §2.1 criticism).")

	case 2:
		header("X2 — ablation: strip width, scheduling policy, synchronization cost")
		fmt.Println("The paper's sublinearity sources: (1) simple static scheduling,")
		fmt.Println("(3) slow synchronization, (4) untuned granularity. Each variant")
		fmt.Println("changes one lever on N=256, 4 PEs.")
		fmt.Println()

		const n = 256
		type variant struct {
			name    string
			width   int // forall iterations per trip (strip width)
			sched   interp.Scheduling
			barrier int64
		}
		variants := []variant{
			{"width=PEs, cyclic, slow sync (paper)", 4, interp.Cyclic, 0},
			{"width=4xPEs, cyclic, slow sync", 16, interp.Cyclic, 0},
			{"width=4xPEs, block,  slow sync", 16, interp.Block, 0},
			{"width=PEs, cyclic, fast sync", 4, interp.Cyclic, 100},
			{"width=4xPEs, cyclic, fast sync", 16, interp.Cyclic, 100},
		}

		runOne := func(v variant) (float64, error) {
			costs := interp.DefaultCosts()
			if v.barrier > 0 {
				costs.Barrier = v.barrier
			}
			m := sequent.Machine{PEs: 1, ClockHz: sequent.DefaultClockHz, Costs: costs, Seed: 7}
			c, err := core.Compile(nbody.BarnesHutPSL)
			if err != nil {
				return 0, err
			}
			args := []interp.Value{
				interp.IntVal(n), interp.IntVal(int64(measure)),
				interp.RealVal(0.5), interp.RealVal(0.01),
			}
			seq, err := m.Run(c.Program, "simulate", args...)
			if err != nil {
				return 0, err
			}
			p1, err := c.StripMine(nbody.TimestepFunc, nbody.BHL1, v.width)
			if err != nil {
				return 0, err
			}
			p2, err := p1.StripMine(nbody.TimestepFunc, nbody.BHL2, v.width)
			if err != nil {
				return 0, err
			}
			pm := sequent.Machine{PEs: 4, ClockHz: sequent.DefaultClockHz, Costs: costs, Sched: v.sched, Seed: 7}
			par, err := pm.Run(p2.Program, "simulate", args...)
			if err != nil {
				return 0, err
			}
			return float64(seq.Cycles) / float64(par.Cycles), nil
		}
		fmt.Printf("%-40s %10s\n", "variant (N=256, 4 PEs)", "speedup")
		for _, v := range variants {
			s, err := runOne(v)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-40s %10.2f\n", v.name, s)
		}
		fmt.Println("\nWider strips amortize barriers over more work (fewer trips of the")
		fmt.Println("outer loop) but pay quadratic skip-ahead (FOR2) and load imbalance;")
		fmt.Println("cheap synchronization lifts every configuration toward linear —")
		fmt.Println("the paper's point (3) that Sequent synchronization was a limiter.")

	case 3:
		header("X3 — ablation: the well-separated threshold (accuracy vs work)")
		fmt.Println("Barnes-Hut's O(N log N) comes from treating well-separated cells")
		fmt.Println("as point masses (§4.1). Sweeping theta on N=1024 (native Go):")
		fmt.Println()
		rows := nbody.ThetaSweep(1024, 7, []float64{0.2, 0.3, 0.5, 0.8, 1.2})
		fmt.Printf("%8s %14s %16s %12s\n", "theta", "mean rel err", "interactions", "vs direct")
		for _, r := range rows {
			fmt.Printf("%8.2f %13.3f%% %16d %11.1fx\n",
				r.Theta, 100*r.MeanRelErr, r.Interactions,
				float64(r.DirectPairs)/float64(r.Interactions))
		}
		fmt.Println("\nLarger theta trades accuracy for work — the knob the tree-code")
		fmt.Println("literature ([App85], [BH86]) tunes.")
	}
}
