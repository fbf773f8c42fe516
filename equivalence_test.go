// Engine equivalence: the differential suite behind the "one VM, one
// oracle" contract (DESIGN.md). The tree-walking interpreter is the
// semantic reference; the flat bytecode VM (R6), lowered from the
// slot-resolved IR onto typed register banks, is the fast path that
// R1/R2/R3 measure; the kernel engine is that VM plus the vector
// strips. This file pins all three together: for every
// corpus program, serial real and goroutine-parallel at PEs
// {2, 4, 8}, results, printed output, and
// execution statistics must be bit-identical across the full engine
// matrix, compared pairwise against the walker. Simulated mode is not
// an engine cell — the machine model runs on the walker alone
// (interp.TestSimulatedRunsOnTheWalker) — so its leg runs once per
// configuration, both static schedules at two PE counts, against the
// Real-mode reference. The parallel and simulated cells
// run both the hand-strip-mined program and the auto-parallelization
// planner's whole-program transformation (core.AutoParallel), so the
// planner's output carries the same armor as the hand-wired calls.
// CI runs this under -race, so the fast engines' parallel frame
// handling is also exercised for data races.
package repro

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/adds"
	"repro/internal/bytecode"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/parexec"
	"repro/internal/transform"
)

// eqEngines is the full engine matrix. The walker (first entry) is
// the oracle every other engine is compared against. The kernel engine
// is the bytecode VM plus the SPMD vector path for classified strips,
// so its cells additionally pin the slab gather/compute/scatter
// machinery (and its fallbacks) to the scalar semantics.
var eqEngines = []interp.Engine{interp.EngineWalk, interp.EngineBytecode, interp.EngineKernel}

// eqProgram is one corpus entry: a program, the driver to execute,
// and (when a loop is provably parallel) the strip-mining target that
// produces the forall version for the parallel cells.
type eqProgram struct {
	name string
	src  string
	fn   string
	args []interp.Value
	seed uint64
	// stripFn/stripLoop select the loop for the parallel cells
	// (stripFn == "" keeps the program serial-only).
	stripFn   string
	stripLoop int
}

func equivalenceCorpus(t *testing.T) []eqProgram {
	t.Helper()
	read := func(name string) string {
		src, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	return []eqProgram{
		{name: "polyscale.psl", src: read("polyscale.psl"), fn: "main",
			stripFn: "scale", stripLoop: 0},
		{name: "violations.psl", src: read("violations.psl"), fn: "main"},
		{name: "orthlist.psl", src: read("orthlist.psl"), fn: "main",
			stripFn: "scale_row", stripLoop: 0},
		{name: "poly-normalize", src: parexec.PolyNormalizePSL, fn: "run",
			args:    []interp.Value{interp.IntVal(400), interp.RealVal(1.001)},
			stripFn: parexec.NormalizeFunc, stripLoop: parexec.NormalizeLoop},
		{name: "barnes-hut-force", src: nbody.BarnesHutForcePSL, fn: nbody.ForceFunc,
			args: []interp.Value{interp.IntVal(48), interp.RealVal(0.5)}, seed: 7,
			stripFn: nbody.ForceFunc, stripLoop: nbody.ForceLoop},
		// The vector-kernel workload: its strip classifies as
		// vectorizable, so the kernel engine's parallel cells execute
		// the batched slab path while every other engine (and every
		// other cell) runs scalar — the grid proves them bit-identical,
		// Stats included.
		{name: "vec-force", src: nbody.VecForcePSL, fn: nbody.VecForceFunc,
			args: []interp.Value{interp.IntVal(48), interp.IntVal(3), interp.RealVal(0.5)}, seed: 7,
			stripFn: nbody.VecForceFunc, stripLoop: nbody.VecForceLoop},
		// The paper's whole program: tree rebuilt every step, BHL1's
		// recursive descent and BHL2's integration both planned.
		{name: "barnes-hut-sim", src: nbody.BarnesHutPSL + simChecksumDriver, fn: "sim_checksum",
			args: []interp.Value{interp.IntVal(24), interp.IntVal(2), interp.RealVal(0.5), interp.RealVal(0.01)}, seed: 7,
			stripFn: nbody.TimestepFunc, stripLoop: nbody.BHL1},
		// The R7 planner-cost program: fifty approved loops, five to a
		// procedure, all over one list.
		{name: "many-loop-10x5", src: transform.ManyLoopProgramPSL(10, 5) + manyLoopDriver, fn: "run_many",
			args:    []interp.Value{interp.IntVal(40)},
			stripFn: "work0", stripLoop: 0},
		// A strip whose body reads the outer c and declares its own c in
		// a nested block: the helper must take the outer one.
		{name: "shadowed-scale", src: adds.OneWayListSrc + shadowedScalePSL, fn: "scale_checksum",
			args:    []interp.Value{interp.IntVal(40), interp.IntVal(3)},
			stripFn: "scale", stripLoop: 0},
		// Every field kind at its edge values, stored and read serially
		// and through a vectorized strip that masks half its lanes off.
		{name: "field-words", src: fieldWordsPSL, fn: "field_words",
			args:    []interp.Value{interp.IntVal(40)},
			stripFn: "sweep", stripLoop: 0},
	}
}

// fieldWordsPSL stores the edge values of each field kind — MinInt64,
// MaxInt64 and -1; -0.0, ±Inf, NaN and the least subnormal; both bools
// — into a list, one combination a node, and reads them back. sweep's
// loop vectorizes, and its branch masks off every odd tag, so half the
// lanes write back exactly the words they were gathered with while the
// other half compute on them (wrapping, sign and NaN arithmetic).
// field_words prints every field and returns an int checksum, which
// classifies each real by comparisons: a NaN result would never equal
// itself.
const fieldWordsPSL = `
type Word [X]
{ int i, tag;
  real r;
  bool b;
  Word *next is uniquely forward along X;
};

function int edge_int(int k) {
  if k % 3 == 0 { return -9223372036854775807 - 1; }
  if k % 3 == 1 { return 9223372036854775807; }
  return -1;
}

function real edge_real(int k) {
  if k % 5 == 0 { return -0.0; }
  if k % 5 == 1 { return 1.0 / 0.0; }
  if k % 5 == 2 { return -1.0 / 0.0; }
  if k % 5 == 3 { return sqrt(-1.0); }
  return 4.9e-324;
}

procedure sweep(Word *head) {
  var Word *p = head;
  while p != NULL {
    if p->tag % 2 == 0 {
      p->i = p->i - 1;
      p->r = p->r * -2.0;
      p->b = !p->b;
    }
    p = p->next;
  }
}

function int field_words(int n) {
  var Word *head = NULL;
  var int k = 0;
  while k < n {
    var Word *t = new Word;
    t->tag = k;
    t->i = edge_int(k);
    t->r = edge_real(k);
    t->b = k % 4 < 2;
    t->next = head;
    head = t;
    k = k + 1;
  }
  sweep(head);
  var int s = 0;
  var Word *p = head;
  while p != NULL {
    print(p->tag, p->i, p->r, p->b);
    s = s * 31 + p->i;
    if p->r != p->r { s = s + 1; }
    if p->r > 1.0 { s = s + 2; }
    if p->r < -1.0 { s = s + 3; }
    if p->r > 0.0 && p->r < 1.0 { s = s + 5; }
    if p->r == 0.0 && 1.0 / p->r < 0.0 { s = s + 7; }
    if p->b { s = s + 11; }
    p = p->next;
  }
  return s;
}
`

// shadowedScalePSL scales a list, clamping large products with an inner
// c that shadows the factor, and returns a position-weighted checksum.
const shadowedScalePSL = `
procedure scale(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data * c;
    if p->data > 50 {
      var int c = 2;
      p->data = p->data - c;
    }
    p = p->next;
  }
}

function int scale_checksum(int n, int c) {
  var OneWayList *head = NULL;
  var int i = 0;
  while i < n {
    var OneWayList *t = new OneWayList;
    t->data = i;
    t->next = head;
    head = t;
    i = i + 1;
  }
  scale(head, c);
  var int s = 0;
  var OneWayList *p = head;
  while p != NULL {
    i = i + 1;
    s = s + i * p->data;
    p = p->next;
  }
  return s;
}
`

// simChecksumDriver gives nbody.BarnesHutPSL an entry point that
// returns a number: simulate, then fold the positions in list order.
const simChecksumDriver = `
function real sim_checksum(int n, int steps, real theta, real dt) {
  var Octree *p = simulate(n, steps, theta, dt);
  var real s = 0.0;
  while p != NULL {
    s = s + p->posx + p->posy + p->posz;
    p = p->next;
  }
  return s;
}
`

// manyLoopDriver gives the generated many-loop program an entry point
// that takes a number: build an n-node list, run every worker over it,
// fold the data fields weighted by position.
const manyLoopDriver = `
function int run_many(int n) {
  var OneWayList *head = NULL;
  var int i = 0;
  while i < n {
    var OneWayList *t = new OneWayList;
    t->data = i;
    t->next = head;
    head = t;
    i = i + 1;
  }
  main(head);
  var int s = 0;
  var OneWayList *p = head;
  while p != NULL {
    i = i + 1;
    s = s + i * p->data;
    p = p->next;
  }
  return s;
}
`

// runEngine executes one configuration and returns value, stats, and
// captured output.
func runEngine(t *testing.T, prog *lang.Program, cfg interp.Config, fn string, args []interp.Value) (interp.Value, interp.Stats, string) {
	t.Helper()
	var out bytes.Buffer
	cfg.Output = &out
	v, st, err := interp.Run(prog, cfg, fn, args...)
	if err != nil {
		t.Fatalf("%s [engine %s]: %v", fn, cfg.Engine, err)
	}
	return v, st, out.String()
}

// TestEngineEquivalence is the corpus × engines × modes grid.
func TestEngineEquivalence(t *testing.T) {
	for _, p := range equivalenceCorpus(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			c, err := core.Compile(p.src)
			if err != nil {
				t.Fatal(err)
			}

			// Serial real mode: the reference cell. Each fast engine
			// is compared against the walker.
			wv, wst, wout := runEngine(t, c.Program,
				interp.Config{Engine: interp.EngineWalk, Seed: p.seed}, p.fn, p.args)
			for _, eng := range eqEngines[1:] {
				ev, est, eout := runEngine(t, c.Program,
					interp.Config{Engine: eng, Seed: p.seed}, p.fn, p.args)
				if wv.String() != ev.String() || wout != eout || wst != est {
					t.Fatalf("serial real divergence:\nwalk %s %+v %q\n%s %s %+v %q",
						wv, wst, wout, eng, ev, est, eout)
				}
			}

			// Simulated mode: counting cycles changes no answer. Across
			// PE counts and both static schedules — for the serial
			// program, the hand-stripped one, and the planner's
			// whole-program transformation — the machine model
			// reproduces the Real-mode reference's value, output and
			// allocations, and the serial program's steps.
			programs := []*lang.Program{c.Program}
			if p.stripFn != "" {
				par, err := c.StripMine(p.stripFn, p.stripLoop, 8)
				if err != nil {
					t.Fatal(err)
				}
				programs = append(programs, par.Program)
			}
			auto, err := c.AutoParallel(8)
			if err != nil {
				t.Fatal(err)
			}
			if auto.Plan.Parallelized > 0 {
				programs = append(programs, auto.Program)
			}
			for pi, prog := range programs {
				for _, pes := range []int{1, 4} {
					for _, sched := range []interp.Scheduling{interp.Cyclic, interp.Block} {
						sv, sst, sout := runEngine(t, prog,
							interp.Config{Mode: interp.Simulated, PEs: pes, Sched: sched, Seed: p.seed}, p.fn, p.args)
						if sv.String() != wv.String() || sout != wout || sst.Allocations != wst.Allocations ||
							(pi == 0 && sst.Steps != wst.Steps) || sst.Cycles <= 0 || sst.WorkCycles < sst.Cycles {
							t.Fatalf("simulated divergence (variant=%d pes=%d sched=%d):\nreal %s %+v %q\nsim  %s %+v %q",
								pi, pes, sched, wv, wst, wout, sv, sst, sout)
						}
					}
				}
			}

			// Goroutine-parallel mode: PEs {2,4,8} × all three engines
			// must reproduce the serial walk reference (value, output,
			// and the shared counters) — for the hand-stripped program
			// and the auto-planned one.
			variants := map[string]*lang.Program{}
			if p.stripFn != "" {
				par, err := c.StripMine(p.stripFn, p.stripLoop, 8)
				if err != nil {
					t.Fatal(err)
				}
				variants["hand"] = par.Program
			}
			if auto.Plan.Parallelized > 0 {
				variants["auto"] = auto.Program
			}
			for vname, prog := range variants {
				for _, pes := range []int{2, 4, 8} {
					stats := map[interp.Engine]interp.Stats{}
					for _, eng := range eqEngines {
						var out bytes.Buffer
						v, st, err := parexec.Run(prog, parexec.Options{
							Interp: eng, PEs: pes, Seed: p.seed, Output: &out,
						}, p.fn, p.args...)
						if err != nil {
							t.Fatalf("%s/%s pes=%d engine=%s: %v", p.name, vname, pes, eng, err)
						}
						// Value and output reproduce the serial run of
						// the *untransformed* program bit-for-bit.
						if v.String() != wv.String() {
							t.Errorf("%s/%s pes=%d engine=%s: value %s != serial %s",
								p.name, vname, pes, eng, v, wv)
						}
						if out.String() != wout {
							t.Errorf("%s/%s pes=%d engine=%s: output diverged from serial run",
								p.name, vname, pes, eng)
						}
						stats[eng] = st
					}
					// The strip-mined program executes more statements
					// than the original (forall machinery), so counters
					// are compared engine-vs-engine per cell, pairwise
					// against the walker.
					for _, eng := range eqEngines[1:] {
						if stats[interp.EngineWalk] != stats[eng] {
							t.Errorf("%s/%s pes=%d: stats diverged: walk %+v, %s %+v",
								p.name, vname, pes, stats[interp.EngineWalk], eng, stats[eng])
						}
					}
				}
			}

			// Budgets: a run that exhausts MaxSteps fails on the same
			// statement, with the same output and Stats, on every
			// engine, serially and on a pool of one PE, which runs
			// iterations in order.
			variants["serial"] = c.Program
			for vname, prog := range variants {
				_, full, _ := runEngine(t, prog, interp.Config{Engine: interp.EngineWalk, Seed: p.seed}, p.fn, p.args)
				for _, limit := range []int64{full.Steps / 3, full.Steps / 2, full.Steps - 1} {
					ref := budgetRun(prog, interp.EngineWalk, 0, limit, p.seed, p.fn, p.args)
					if !strings.Contains(ref.err, "step limit exceeded") {
						t.Fatalf("%s/%s MaxSteps %d: walker %+v, want the step limit", p.name, vname, limit, ref)
					}
					for _, eng := range eqEngines {
						for _, pes := range []int{0, 1} {
							if got := budgetRun(prog, eng, pes, limit, p.seed, p.fn, p.args); got != ref {
								t.Errorf("%s/%s MaxSteps %d, %s pes=%d:\n got %+v\nwant %+v (serial walker)",
									p.name, vname, limit, eng, pes, got, ref)
							}
						}
					}
				}
			}
		})
	}
}

// budgetOutcome is everything a caller observes of a run that may fail.
type budgetOutcome struct {
	value, out, err string
	st              interp.Stats
}

// budgetRun runs fn under MaxSteps limit on eng: in place with pes 0,
// else on a parexec pool of pes PEs.
func budgetRun(prog *lang.Program, eng interp.Engine, pes int, limit int64, seed uint64, fn string, args []interp.Value) budgetOutcome {
	var out bytes.Buffer
	var v interp.Value
	var st interp.Stats
	var err error
	if pes == 0 {
		v, st, err = interp.Run(prog, interp.Config{Engine: eng, MaxSteps: limit, Seed: seed, Output: &out}, fn, args...)
	} else {
		v, st, err = parexec.Run(prog, parexec.Options{Interp: eng, PEs: pes, MaxSteps: limit, Seed: seed, Output: &out}, fn, args...)
	}
	r := budgetOutcome{value: v.String(), out: out.String(), st: st}
	if err != nil {
		r.value, r.err = "", err.Error()
	}
	return r
}

// TestFieldWordsStripVectorizes holds the field-words entry to its
// purpose: the planner vectorizes sweep's loop, and on the kernel engine
// every strip of it completes on the vector path, so the edge values
// really pass through gather and scatter.
func TestFieldWordsStripVectorizes(t *testing.T) {
	var p eqProgram
	for _, q := range equivalenceCorpus(t) {
		if q.name == "field-words" {
			p = q
		}
	}
	c, err := core.Compile(p.src)
	if err != nil {
		t.Fatal(err)
	}
	const width = 8
	auto, err := c.AutoParallel(width)
	if err != nil {
		t.Fatal(err)
	}
	if plan := auto.Plan.String(); !strings.Contains(plan, "PARALLELIZED sweep#0") || !strings.Contains(plan, "vectorized: kernel") {
		t.Fatalf("sweep's loop is not vectorized:\n%s", plan)
	}
	prof := obs.NewForallProfiler()
	if _, _, err := interp.Run(auto.Program, interp.Config{Engine: interp.EngineKernel, Profiler: prof, Output: io.Discard}, p.fn, p.args...); err != nil {
		t.Fatal(err)
	}
	strips := (p.args[0].I + width - 1) / width
	if rep := prof.Report(); len(rep) != 1 || !rep[0].Kernel || rep[0].Barriers != strips || rep[0].Tasks != strips {
		t.Fatalf("profile %+v, want all %d strips on the vector path", rep, strips)
	}
}

// TestDefaultEngine is the grid's default column: a caller who sets no
// engine — zero RunConfig, zero Config, zero Options, and every POST
// /run, which has no engine key — gets the kernel engine, and over the
// whole corpus, serial and goroutine-parallel, that run is
// indistinguishable from an explicit kernel run and from the walking
// oracle's. It also pins the name table: Engine.String() has three
// names.
func TestDefaultEngine(t *testing.T) {
	var def interp.Engine
	if def != interp.EngineKernel || (interp.Config{}).Engine != def ||
		(core.RunConfig{}).Engine != def || (parexec.Options{}).Interp != def {
		t.Fatalf("defaults disagree: zero Engine=%s Config=%s RunConfig=%s Options=%s, want all kernel",
			def, (interp.Config{}).Engine, (core.RunConfig{}).Engine, (parexec.Options{}).Interp)
	}
	for eng, name := range map[interp.Engine]string{
		interp.EngineKernel: "kernel", interp.EngineBytecode: "bytecode", interp.EngineWalk: "walk",
	} {
		if eng.String() != name {
			t.Errorf("engine %d is named %q, want %q", eng, eng, name)
		}
	}

	type cell struct {
		v   string
		out string
		st  interp.Stats
	}
	for _, p := range equivalenceCorpus(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			c, err := core.Compile(p.src)
			if err != nil {
				t.Fatal(err)
			}
			auto, err := c.AutoParallel(8)
			if err != nil {
				t.Fatal(err)
			}
			modes := map[string]func(rc core.RunConfig) (interp.Value, interp.Stats, error){
				"serial": func(rc core.RunConfig) (interp.Value, interp.Stats, error) {
					return c.Run(rc, p.fn, p.args...)
				},
				"parallel": func(rc core.RunConfig) (interp.Value, interp.Stats, error) {
					return auto.RunParallel(rc, 2, p.fn, p.args...)
				},
			}
			for mode, run := range modes {
				cells := map[string]cell{}
				for name, rc := range map[string]core.RunConfig{
					"default": {}, "kernel": {Engine: interp.EngineKernel}, "walk": {Engine: interp.EngineWalk},
				} {
					var out bytes.Buffer
					rc.Seed, rc.Output = p.seed, &out
					v, st, err := run(rc)
					if err != nil {
						t.Fatalf("%s/%s: %v", mode, name, err)
					}
					cells[name] = cell{v.String(), out.String(), st}
				}
				if cells["default"] != cells["kernel"] || cells["default"] != cells["walk"] {
					t.Errorf("%s: default %+v\nkernel %+v\nwalk %+v", mode, cells["default"], cells["kernel"], cells["walk"])
				}
			}
		})
	}
}

// TestKernelStripAllocs pins the vector path's allocation discipline:
// the strip's slabs live in reusable per-Interp state, so a planned run
// on the kernel engine allocates no more Go
// objects than the bytecode engine's run of the same planned program
// (plus a constant for that state) — however many strips it executes.
// Foralls run in place on a fork, so the count repeats exactly.
func TestKernelStripAllocs(t *testing.T) {
	c, err := core.Compile(nbody.VecForcePSL)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := c.AutoParallel(8)
	if err != nil {
		t.Fatal(err)
	}
	cp := interp.CompileProgram(auto.Program)
	args := []interp.Value{interp.IntVal(256), interp.IntVal(40), interp.RealVal(0.5)} // 1280 strips
	allocs := func(eng interp.Engine) float64 {
		return testing.AllocsPerRun(5, func() {
			var worker *interp.Interp
			root := interp.NewCompiled(cp, interp.Config{Engine: eng, Seed: 7,
				Forall: func(_ lang.Pos, from, to int64, run func(w *interp.Interp, k int64) error) error {
					for k := from; k <= to; k++ {
						if err := run(worker, k); err != nil {
							return err
						}
					}
					return nil
				}})
			worker = root.Fork(nil)
			if _, err := root.Call(nbody.VecForceFunc, args...); err != nil {
				t.Fatal(err)
			}
		})
	}
	bc, kern := allocs(interp.EngineBytecode), allocs(interp.EngineKernel)
	if kern > bc+128 {
		t.Errorf("kernel engine allocates %.0f objects/run, bytecode %.0f: want at most bytecode + 128 (nothing per strip)", kern, bc)
	}
}

// TestVecForceKernelIsItsHelper pins what renaming makes of the
// vector workload's strip: run_pair_forces' kernel is its helper's 79
// guarded instructions with all 11 field loads renamed to their slabs
// and all 3 stores folded into the instructions computing their
// sources — 65 instructions, no load or store, no move added.
func TestVecForceKernelIsItsHelper(t *testing.T) {
	c, err := core.Compile(nbody.VecForcePSL)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := c.AutoParallel(8)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := compile.Compile(auto.Program)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := bytecode.Compile(cp)
	if err != nil {
		t.Fatal(err)
	}
	sites := bp.Func(nbody.VecForceFunc).Foralls
	if len(sites) != 1 || sites[0].Kernel == nil {
		t.Fatalf("%s: foralls %+v, want one vectorized strip", nbody.VecForceFunc, sites)
	}
	k := sites[0].Kernel
	moves := 0
	for _, in := range k.Code {
		switch s := in.Op.String(); {
		case strings.HasPrefix(s, "load.") || strings.HasPrefix(s, "store."):
			t.Errorf("kernel keeps %s", s)
		case strings.HasPrefix(s, "mov."):
			moves++
		}
	}
	if len(k.Code) != 65 || moves != 0 || len(k.Fields) != 7 {
		t.Errorf("kernel: %d instructions, %d moves, %d fields; want 65, 0, 7", len(k.Code), moves, len(k.Fields))
	}
}

// costGates opts in to the wall-clock halves of the two speedup-floor
// tests below. Tier-1 (`go test ./...`) runs them without it, where
// they assert only what repeats exactly — values and step counts; CI's
// cost-gate step passes -cost-gates.
var costGates = flag.Bool("cost-gates", false, "also assert the wall-clock speedup floors (timing gates; CI's cost-gate step)")

// floorConfig is one side of a speedup floor: a program and the engine
// that runs it serially. code is the program's code, built once by
// assertSpeedupFloor so the timed runs measure execution, not
// compilation.
type floorConfig struct {
	prog *lang.Program
	eng  interp.Engine
	code *interp.CompiledProgram
}

// assertSpeedupFloor runs slow and fast on fn(args), checks that they
// return the same value and — when they run the same program — the
// same statistics, and under -cost-gates that fast beats slow by floor
// (raceFloor under the race detector): best of 3 runs per side, up to 3
// attempts, so scheduler noise cannot flake the gate.
func assertSpeedupFloor(t *testing.T, slow, fast floorConfig, fn string, args []interp.Value, floor, raceFloor float64) {
	t.Helper()
	slow.code, fast.code = interp.CompileProgram(slow.prog), interp.CompileProgram(fast.prog)
	run := func(c floorConfig) (interp.Value, interp.Stats, time.Duration) {
		t0 := time.Now()
		v, st, err := interp.RunCompiled(c.code, interp.Config{Engine: c.eng, Seed: 7}, fn, args...)
		if err != nil {
			t.Fatalf("engine %s: %v", c.eng, err)
		}
		return v, st, time.Since(t0)
	}
	sv, sst, _ := run(slow)
	fv, fst, _ := run(fast)
	if sv.String() != fv.String() {
		t.Fatalf("%s returned %s, %s returned %s", slow.eng, sv, fast.eng, fv)
	}
	if slow.prog == fast.prog && sst != fst {
		t.Fatalf("stats diverged: %s %+v, %s %+v", slow.eng, sst, fast.eng, fst)
	}
	if !*costGates {
		return
	}
	if raceEnabled {
		floor = raceFloor
	}
	best := func(c floorConfig) time.Duration {
		b := time.Duration(0)
		for i := 0; i < 3; i++ {
			if _, _, d := run(c); b == 0 || d < b {
				b = d
			}
		}
		return b
	}
	var ratio float64
	for attempt := 0; attempt < 3; attempt++ {
		sd, fd := best(slow), best(fast)
		ratio = float64(sd) / float64(fd)
		t.Logf("attempt %d: %s %v, %s %v, ratio %.2f (floor %.1f)", attempt+1, slow.eng, sd, fast.eng, fd, ratio, floor)
		if ratio >= floor {
			return
		}
	}
	t.Errorf("%s only %.2f× faster than %s (floor %.1f)", fast.eng, ratio, slow.eng, floor)
}

// TestBytecodeSpeedupFloor pins the point of the R6 bytecode VM: on
// the R2 force workload, run serially, the flat instruction loop over
// typed register banks must be several times faster than the
// tree-walker, so R1/R2 are not "speedups of a slow interpreter". The
// walker is no strawman: it reads the checker's slots, offsets and
// callees, computes at the checker's static types without boxing, and
// allocates no more than the VM; what it still pays is a recursive call
// and an interface type switch per AST node, a slot check per variable
// and a boxed Value per store. The honest ratio on an idle host is
// recorded in BENCH_interp.json (≈ 5×; see also the ledger's
// interp.steps_per_s rows in `go run ./benchmark`). The floor is about
// 0.6 of it, and under the race detector, whose per-access
// instrumentation falls heaviest on the VM's tight switch loop, about
// half the ratio it reads there (≈ 2.3×).
func TestBytecodeSpeedupFloor(t *testing.T) {
	prog := lang.MustParse(nbody.BarnesHutForcePSL)
	args := []interp.Value{interp.IntVal(96), interp.RealVal(0.5)}
	assertSpeedupFloor(t, floorConfig{prog: prog, eng: interp.EngineWalk}, floorConfig{prog: prog, eng: interp.EngineBytecode},
		nbody.ForceFunc, args, 3.0, 1.2)
}

// TestKernelSpeedupFloor pins the point of the SPMD kernel path: on
// the vectorizable force workload, the batched struct-of-arrays strip
// execution must beat the bytecode VM's scalar interpretation of the
// same loop. The bytecode baseline runs the *unstripped* serial
// program (the VM's honest serial form — on the plain VM a stripped
// program pays the helper call and skip walk of every lane); the kernel
// engine runs the strip-mined program, whose strips execute inline on
// the vector path. The honest ratio on an idle host is in BENCH_interp.json
// (acceptance bar ≥2×); the CI floor is 1.5×, relaxed under the race
// detector, whose per-access instrumentation falls heaviest on the
// slab sweeps.
func TestKernelSpeedupFloor(t *testing.T) {
	c, err := core.Compile(nbody.VecForcePSL)
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.StripMine(nbody.VecForceFunc, nbody.VecForceLoop, 64)
	if err != nil {
		t.Fatal(err)
	}
	args := []interp.Value{interp.IntVal(256), interp.IntVal(160), interp.RealVal(0.5)}
	assertSpeedupFloor(t, floorConfig{prog: c.Program, eng: interp.EngineBytecode}, floorConfig{prog: par.Program, eng: interp.EngineKernel},
		nbody.VecForceFunc, args, 1.5, 0.7)
}
