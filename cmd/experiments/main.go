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
//	-all      everything (the default when no flag is given)
//	-measure  time steps simulated per T1 cell (default 1)
//
// Every table here is computed, not timed: simulated cycles, analysis
// verdicts and native-Go accuracy sweeps, which is why each mode has a
// golden snapshot. Measured wall-clock numbers live elsewhere: the
// BENCH_*.json rows the root package's and internal/transform's tests
// write, and the per-layer ledger of `go run ./benchmark`.
//
// The flag set itself — authoritative names, defaults, and usage
// strings — lives in internal/expflags, so the doc-drift test can
// check documented commands against it; run with -h for the details.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/adds"
	"repro/internal/core"
	"repro/internal/expflags"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/sequent"
)

func main() {
	f := expflags.Register(flag.CommandLine)
	flag.Parse()

	if !f.Tables && f.Fig == 0 && f.PM == 0 && f.X == 0 {
		f.All = true
	}
	if f.All || f.Tables {
		runTables(f.Measure)
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
