package parexec_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/parexec"
	"repro/internal/transform"
)

// testdataPEs are the pool sizes the determinism tests sweep.
var testdataPEs = []int{2, 4, 8}

func compileTestdata(t *testing.T, name string) *core.Compilation {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(string(src))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return c
}

// TestPolyscaleDeterministic: the strip-mined §3.3.2 program returns
// the serial checksum for every pool size. The strip width is 4×PEs, so
// a PE may take several iterations of one barrier.
func TestPolyscaleDeterministic(t *testing.T) {
	c := compileTestdata(t, "polyscale.psl")
	want, _, err := c.Run(core.RunConfig{}, "main")
	if err != nil {
		t.Fatal(err)
	}
	for _, pes := range testdataPEs {
		par, err := c.StripMine("scale", 0, 4*pes)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := par.RunParallel(core.RunConfig{}, pes, "main")
		if err != nil {
			t.Fatal(err)
		}
		if got.I != want.I {
			t.Errorf("pes=%d: %d, want %d", pes, got.I, want.I)
		}
		if st.Barriers == 0 {
			t.Errorf("pes=%d: no barriers counted — did the pool run?", pes)
		}
	}
}

// TestForceWorkloadDeterministic: the R2 Barnes-Hut force loop
// (nbody.BarnesHutForcePSL) produces the serial checksum bit-for-bit at
// every pool size.
func TestForceWorkloadDeterministic(t *testing.T) {
	c, err := core.Compile(nbody.BarnesHutForcePSL)
	if err != nil {
		t.Fatal(err)
	}
	args := []interp.Value{interp.IntVal(48), interp.RealVal(0.5)}
	want, _, err := c.Run(core.RunConfig{Seed: 7}, nbody.ForceFunc, args...)
	if err != nil {
		t.Fatal(err)
	}
	if want.F == 0 {
		t.Fatal("serial checksum is zero — no forces computed?")
	}
	for _, pes := range testdataPEs {
		par, err := c.StripMine(nbody.ForceFunc, nbody.ForceLoop, 4*pes)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := par.RunParallel(core.RunConfig{Seed: 7}, pes, nbody.ForceFunc, args...)
		if err != nil {
			t.Fatal(err)
		}
		if got.F != want.F {
			t.Errorf("pes=%d: checksum %g, want %g", pes, got.F, want.F)
		}
	}
}

// TestTestdataProgramsUnderPool: every root testdata program (including
// the untransformed ones, which exercise the serial path through the
// engine) produces its serial result on the pool.
func TestTestdataProgramsUnderPool(t *testing.T) {
	for _, tc := range []struct {
		name string
		want int64
	}{
		{"polyscale.psl", 0}, {"violations.psl", 1234}, {"orthlist.psl", 385},
	} {
		c := compileTestdata(t, tc.name)
		want, _, err := c.Run(core.RunConfig{}, "main")
		if err != nil {
			t.Fatal(err)
		}
		if tc.want != 0 && want.I != tc.want {
			t.Fatalf("%s: serial main = %d, want %d", tc.name, want.I, tc.want)
		}
		for _, pes := range testdataPEs {
			got, _, err := c.RunParallel(core.RunConfig{}, pes, "main")
			if err != nil {
				t.Fatal(err)
			}
			if got.I != want.I {
				t.Errorf("%s pes=%d: %d, want %d", tc.name, pes, got.I, want.I)
			}
		}
	}
}

// unevenSrc prints from a forall whose iterations do wildly different
// amounts of work, so completion order differs from iteration order:
// the merged stream must still come out in iteration order.
const unevenSrc = `
type Cell [X]
{ int v;
  Cell *next is uniquely forward along X;
};

procedure work(int i) {
  var int spin = (17 - i) * 4000;
  var int j = 0;
  var int acc = 0;
  while j < spin {
    acc = acc + j;
    j = j + 1;
  }
  print(i, acc);
}

procedure main() {
  forall i = 0 to 17 {
    work(i);
  }
}
`

// TestOutputMergedInIterationOrder: parallel print() output is
// bit-identical to the serial stream.
func TestOutputMergedInIterationOrder(t *testing.T) {
	prog, err := lang.Parse(unevenSrc)
	if err != nil {
		t.Fatal(err)
	}
	// The serial reference is Simulated mode: it executes forall
	// iterations sequentially in iteration order (Real mode without a
	// scheduler interleaves goroutine output nondeterministically).
	var serial bytes.Buffer
	if _, _, err := interp.Run(prog, interp.Config{Mode: interp.Simulated, PEs: 1, Output: &serial}, "main"); err != nil {
		t.Fatal(err)
	}
	if serial.Len() == 0 {
		t.Fatal("serial run printed nothing")
	}
	for _, pes := range testdataPEs {
		var par bytes.Buffer
		_, st, err := parexec.Run(prog, parexec.Options{PEs: pes, Output: &par}, "main")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial.Bytes(), par.Bytes()) {
			t.Errorf("pes=%d: output diverged\nserial:\n%s\nparallel:\n%s",
				pes, serial.String(), par.String())
		}
		if st.Barriers != 1 {
			t.Errorf("pes=%d: barriers = %d, want 1", pes, st.Barriers)
		}
	}
}

// callingSrc is a forall whose iterations call functions — recursion,
// a builtin, a print — and write disjoint nodes, so each iteration's
// frames come from its worker's frame stack.
const callingSrc = `
type Cell [X]
{ int v;
  Cell *next is uniquely forward along X;
};

function int fib(int n) {
  if n < 2 { return n; }
  return fib(n - 1) + fib(n - 2);
}

procedure visit(int i, Cell *c) {
  var int f = fib(i % 12);
  var real r = sqrt(f);
  c->v = f;
  print(i, f, r);
}

function int main(int n) {
  var Cell *head = NULL;
  var int k = 0;
  while k < n {
    var Cell *t = new Cell;
    t->next = head;
    head = t;
    k = k + 1;
  }
  forall i = 0 to n - 1 {
    var Cell *c = head;
    var int j = 0;
    while j < i {
      c = c->next;
      j = j + 1;
    }
    visit(i, c);
  }
  var int s = 0;
  var Cell *p = head;
  while p != NULL {
    s = s + p->v;
    p = p->next;
  }
  return s;
}
`

// TestWalkPoolCallsMatchSerial: on two PEs the walker's pool run of a
// forall whose iterations call functions is bit-identical to the
// serial walk — value, output and every counter. Each PE's iterations
// take their frames from that PE's own interpreter; the -race job runs
// this test to hold them to it.
func TestWalkPoolCallsMatchSerial(t *testing.T) {
	prog, err := lang.Parse(callingSrc)
	if err != nil {
		t.Fatal(err)
	}
	n := interp.IntVal(48)
	var serialOut bytes.Buffer
	want, wantSt, err := interp.Run(prog, interp.Config{Engine: interp.EngineWalk, Output: &serialOut}, "main", n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var out bytes.Buffer
		got, st, err := parexec.Run(prog, parexec.Options{Interp: interp.EngineWalk, PEs: 2, Output: &out}, "main", n)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || st != wantSt || !bytes.Equal(out.Bytes(), serialOut.Bytes()) {
			t.Fatalf("run %d: pool %s %+v, serial %s %+v; outputs equal: %v",
				i, got, st, want, wantSt, bytes.Equal(out.Bytes(), serialOut.Bytes()))
		}
	}
}

// TestBarnesHutParallelMatchesSerial: the full §4.3 pipeline — both BH
// loops strip-mined — integrates to the same trajectories on the pool.
func TestBarnesHutParallelMatchesSerial(t *testing.T) {
	c, err := core.Compile(nbody.BarnesHutPSL)
	if err != nil {
		t.Fatal(err)
	}
	args := []interp.Value{
		interp.IntVal(24), interp.IntVal(2), interp.RealVal(0.5), interp.RealVal(0.01),
	}
	want, _, err := c.Run(core.RunConfig{Seed: 7}, "simulate", args...)
	if err != nil {
		t.Fatal(err)
	}
	for _, pes := range testdataPEs {
		p1, err := c.StripMine(nbody.TimestepFunc, nbody.BHL1, pes)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := p1.StripMine(nbody.TimestepFunc, nbody.BHL2, pes)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := p2.RunParallel(core.RunConfig{Seed: 7}, pes, "simulate", args...)
		if err != nil {
			t.Fatal(err)
		}
		wn, gn := want.N, got.N
		for wn != nil {
			if gn == nil {
				t.Fatalf("pes=%d: parallel particle list too short", pes)
			}
			for _, f := range []string{"posx", "posy", "posz", "velx"} {
				wv, err := interp.Field(interp.PtrVal(wn), f)
				if err != nil {
					t.Fatal(err)
				}
				gv, err := interp.Field(interp.PtrVal(gn), f)
				if err != nil {
					t.Fatal(err)
				}
				if wv.F != gv.F {
					t.Fatalf("pes=%d: %s diverged: %g vs %g", pes, f, wv.F, gv.F)
				}
			}
			wnext, err := interp.FieldPtr(interp.PtrVal(wn), "next")
			if err != nil {
				t.Fatal(err)
			}
			gnext, err := interp.FieldPtr(interp.PtrVal(gn), "next")
			if err != nil {
				t.Fatal(err)
			}
			wn, gn = wnext.N, gnext.N
		}
		if gn != nil {
			t.Fatalf("pes=%d: parallel particle list too long", pes)
		}
		// Two strip-mined loops × two timesteps = 4 barriers minimum
		// (the outer while trips several times per step).
		if st.Barriers < 4 {
			t.Errorf("pes=%d: barriers = %d, want >= 4", pes, st.Barriers)
		}
	}
}

// costGates opts in to the package's one wall-clock assertion, the way
// the root package's and internal/transform's flag of the same name
// does: `go test ./...` asserts only what repeats exactly; CI's
// cost-gate step passes -cost-gates.
var costGates = flag.Bool("cost-gates", false, "also assert that a planned run is no slower than the serial one (timing gate; CI's cost-gate step)")

// TestMeasuredSpeedup: the planned program must not lose to the serial
// one. PolyNormalize at the planner's default width is 128 barriers of
// eight ≈5 µs iterations — the grain at which the barrier's own cost
// decides — and on two PEs its best run is no slower than the serial
// program's best run on any host with two processors to run them on.
func TestMeasuredSpeedup(t *testing.T) {
	if !*costGates {
		t.Skip("wall-clock gate: run with -cost-gates")
	}
	if runtime.NumCPU() < 2 {
		t.Skipf("need >= 2 CPUs to run two PEs side by side, have %d", runtime.NumCPU())
	}
	c, err := core.Compile(parexec.PolyNormalizePSL)
	if err != nil {
		t.Fatal(err)
	}
	const pes = 2
	par, err := c.AutoParallel(transform.DefaultWidth(pes))
	if err != nil {
		t.Fatal(err)
	}
	args := []interp.Value{interp.IntVal(1024), interp.RealVal(1.001)}
	best := func(run func() error) time.Duration {
		var b time.Duration
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			if err := run(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); b == 0 || d < b {
				b = d
			}
		}
		return b
	}
	serial := best(func() error {
		_, _, err := c.Run(core.RunConfig{}, "run", args...)
		return err
	})
	parallel := best(func() error {
		_, _, err := par.RunParallel(core.RunConfig{}, pes, "run", args...)
		return err
	})
	t.Logf("serial %v, planned on %d PEs %v: %.2fx", serial, pes, parallel, float64(serial)/float64(parallel))
	if parallel > serial {
		t.Errorf("planned run on %d PEs took %v, the serial program %v: the tool made the program slower", pes, parallel, serial)
	}
}

// TestErrorPropagates: a failing iteration surfaces as the run's error.
func TestErrorPropagates(t *testing.T) {
	const src = `
procedure main(int d) {
  forall i = 0 to 7 {
    var int x = 10 / (i - d);
    print(x);
  }
}
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, _, err = parexec.Run(prog, parexec.Options{PEs: 4, Output: &out}, "main", interp.IntVal(3))
	if err == nil {
		t.Fatal("division by zero in iteration 3 must fail the run")
	}
	// Output mirrors the serial stream: iterations before the failing
	// one printed, nothing after.
	if got, want := out.String(), "-3\n-5\n-10\n"; got != want {
		t.Errorf("output on error path = %q, want %q", got, want)
	}
}

// TestReturnInsideForallRejected: the scheduler path reports the same
// error Simulated mode does instead of silently dropping the return.
func TestReturnInsideForallRejected(t *testing.T) {
	const src = `
function int main() {
  forall i = 0 to 3 {
    return i;
  }
  return -1;
}
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = parexec.Run(prog, parexec.Options{PEs: 2}, "main")
	if err == nil {
		t.Fatal("return inside forall must be an error")
	}
}

// TestEngineReuse: one program, many runs, each on a pool of its own,
// stable results.
func TestEngineReuse(t *testing.T) {
	c := compileTestdata(t, "polyscale.psl")
	par, err := c.StripMine("scale", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	var first int64
	for i := 0; i < 3; i++ {
		v, _, err := parexec.Run(par.Program, parexec.Options{PEs: 4}, "main")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = v.I
		} else if v.I != first {
			t.Fatalf("run %d: %d, want %d", i, v.I, first)
		}
	}
}

// TestForallProfilerRecordsSite: a profiled parallel run reports one
// site, keyed to the line of the source while loop that strip-mining
// replaced (line 30 of polyscale.psl), with task and barrier counts
// matching the engine's own accounting. The bytecode engine keeps the
// strip on the scalar dispatch path this test is about (the default
// engine would vectorize it: one task per strip, not one per lane).
func TestForallProfilerRecordsSite(t *testing.T) {
	c := compileTestdata(t, "polyscale.psl")
	const width = 8
	par, err := c.StripMine("scale", 0, width)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := c.Run(core.RunConfig{}, "main")
	if err != nil {
		t.Fatal(err)
	}
	eng := interp.EngineBytecode
	t.Run(eng.String(), func(t *testing.T) {
		prof := obs.NewForallProfiler()
		got, st, err := par.RunParallel(core.RunConfig{Engine: eng, Profiler: prof}, 2, "main")
		if err != nil {
			t.Fatal(err)
		}
		if got.I != want.I {
			t.Fatalf("profiled run changed the result: %d, want %d", got.I, want.I)
		}
		rep := prof.Report()
		if len(rep) != 1 {
			t.Fatalf("%d sites, want 1: %+v", len(rep), rep)
		}
		r := rep[0]
		if r.Line != 30 {
			t.Errorf("site line %d, want 30 (the source while loop)", r.Line)
		}
		if r.PEs != 2 {
			t.Errorf("PEs %d, want 2", r.PEs)
		}
		if r.Barriers != st.Barriers {
			t.Errorf("barriers %d, engine counted %d", r.Barriers, st.Barriers)
		}
		if r.Tasks != st.Barriers*width {
			t.Errorf("tasks %d, want %d (barriers × strip width)", r.Tasks, st.Barriers*width)
		}
		if r.BusyPct <= 0 || r.BusyPct > 100 {
			t.Errorf("busy %.2f%%, want in (0, 100]", r.BusyPct)
		}
		if r.Imbalance < 1 {
			t.Errorf("imbalance %.3f, want >= 1", r.Imbalance)
		}
		if len(r.PerPE) != 2 {
			t.Fatalf("per-PE rows: %+v", r.PerPE)
		}
		var tasks int64
		for _, pe := range r.PerPE {
			tasks += pe.Tasks
		}
		if tasks != r.Tasks {
			t.Errorf("per-PE tasks sum %d, site total %d", tasks, r.Tasks)
		}
	})
}

// goroutineProbe is a context the interpreter polls (at Call entry and
// every few hundred statements, on whichever goroutine is executing)
// that records the most goroutines it ever saw alive.
type goroutineProbe struct {
	context.Context
	max atomic.Int64
}

func (p *goroutineProbe) Err() error {
	if n := int64(runtime.NumGoroutine()); n > p.max.Load() {
		p.max.Store(n)
	}
	return nil
}

// TestPoolOfOneRunsInPlace: PEs == 1 runs every barrier on the
// interpreting goroutine — no worker goroutine exists while the program
// runs — with the same result, output, counters and profiler accounting
// (all on PE 0) as a real pool.
func TestPoolOfOneRunsInPlace(t *testing.T) {
	c := compileTestdata(t, "orthlist.psl")
	par, err := c.StripMine("scale_row", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []interp.Engine{interp.EngineKernel, interp.EngineBytecode, interp.EngineWalk} {
		var wantOut bytes.Buffer
		want, wantSt, err := par.RunParallel(core.RunConfig{Engine: eng, Output: &wantOut}, 2, "main")
		if err != nil {
			t.Fatal(err)
		}
		before := int64(runtime.NumGoroutine())
		probe := &goroutineProbe{Context: context.Background()}
		var out bytes.Buffer
		prof := obs.NewForallProfiler()
		got, st, err := par.RunParallel(core.RunConfig{Engine: eng, Output: &out, Profiler: prof, Ctx: probe}, 1, "main")
		if err != nil {
			t.Fatal(err)
		}
		if seen := probe.max.Load(); seen == 0 || seen > before {
			t.Errorf("%s: %d goroutines alive during a pool-of-one run, %d before it", eng, seen, before)
		}
		if got.String() != want.String() || out.String() != wantOut.String() || st != wantSt {
			t.Errorf("%s: pool of one diverged: %s %+v %q, want %s %+v %q", eng, got, st, out.String(), want, wantSt, wantOut.String())
		}
		var barriers int64
		for _, r := range prof.Report() {
			barriers += r.Barriers
			if r.PEs != 1 || len(r.PerPE) != 1 || r.PerPE[0].Tasks != r.Tasks {
				t.Errorf("%s: site %+v, want every task on PE 0 of 1", eng, r)
			}
		}
		if barriers != st.Barriers {
			t.Errorf("%s: profiler saw %d barriers, engine counted %d", eng, barriers, st.Barriers)
		}
	}
}

// TestStripGrain: a vectorized strip runs gather, compute and scatter
// on the interpreting goroutine whatever its width and the pool's size.
// Narrow strips (8 lanes) and wide ones (4096) give the value, steps
// and barriers of the scalar engine on 1, 2 and 4 PEs, and the profiler
// sees one compute task per strip, on PE 0.
func TestStripGrain(t *testing.T) {
	c, err := core.Compile(nbody.VecForcePSL)
	if err != nil {
		t.Fatal(err)
	}
	args := []interp.Value{interp.IntVal(4096), interp.IntVal(1), interp.RealVal(0.5)}
	want, _, err := c.Run(core.RunConfig{Seed: 7}, nbody.VecForceFunc, args...)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{8, 4096} {
		par, err := c.StripMine(nbody.VecForceFunc, nbody.VecForceLoop, width)
		if err != nil {
			t.Fatal(err)
		}
		_, scalar, err := par.RunParallel(core.RunConfig{Seed: 7, Engine: interp.EngineBytecode}, 2, nbody.VecForceFunc, args...)
		if err != nil {
			t.Fatal(err)
		}
		for _, pes := range []int{1, 2, 4} {
			var out bytes.Buffer
			prof := obs.NewForallProfiler()
			got, st, err := par.RunParallel(core.RunConfig{Seed: 7, Output: &out, Profiler: prof}, pes, nbody.VecForceFunc, args...)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() || out.Len() != 0 {
				t.Errorf("width %d pes %d: %s %q, want %s and no output", width, pes, got, out.String(), want)
			}
			if st.Steps != scalar.Steps || st.Barriers != scalar.Barriers {
				t.Errorf("width %d pes %d: steps %d barriers %d, scalar engine %d / %d",
					width, pes, st.Steps, st.Barriers, scalar.Steps, scalar.Barriers)
			}
			rep := prof.Report()
			if len(rep) != 1 || !rep[0].Kernel || rep[0].Barriers != st.Barriers {
				t.Fatalf("width %d pes %d: profile %+v, want one kernel site of %d barriers", width, pes, rep, st.Barriers)
			}
			if rep[0].Tasks != st.Barriers || rep[0].PerPE[0].Tasks != st.Barriers {
				t.Errorf("width %d pes %d: %d compute tasks (%+v), want one a strip on PE 0",
					width, pes, rep[0].Tasks, rep[0].PerPE)
			}
		}
	}
}

// TestStripFaultFallsBack: a zero divisor in one lane faults the
// strip's compute phase before the heap is written; the scalar path
// then re-executes the strip and raises the scalar engines' error, text
// and all.
func TestStripFaultFallsBack(t *testing.T) {
	c, err := core.Compile(`
type Cell [L]
{ int v;
  int d;
  int q;
  Cell *next is uniquely forward along L;
};

function Cell * build(int n, int bad) {
  var Cell *head = NULL;
  var int i = 0;
  while i < n {
    var Cell *t = new Cell;
    t->v = 100 + i;
    t->d = 1;
    if i == bad {
      t->d = 0;
    }
    t->q = 0 - 1;
    t->next = head;
    head = t;
    i = i + 1;
  }
  return head;
}

procedure divide(Cell *head) {
  var Cell *p = head;
  while p != NULL {
    p->q = p->v / p->d;
    p = p->next;
  }
}

function int main(int n, int bad) {
  var Cell *head = build(n, bad);
  divide(head);
  return head->q;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	const n = 512
	for _, width := range []int{8, n} {
		par, err := c.StripMine("divide", 0, width)
		if err != nil {
			t.Fatal(err)
		}
		clean := []interp.Value{interp.IntVal(n), interp.IntVal(-1)}
		prof := obs.NewForallProfiler()
		if _, _, err := par.RunParallel(core.RunConfig{Profiler: prof}, 2, "main", clean...); err != nil {
			t.Fatal(err)
		}
		if rep := prof.Report(); len(rep) != 1 || !rep[0].Kernel {
			t.Fatalf("width %d: profile %+v, want one kernel site (the loop must vectorize)", width, rep)
		}

		// The bad cell is built mid-list, so it faults mid-strip.
		faulty := []interp.Value{interp.IntVal(n), interp.IntVal(n / 2)}
		_, wantSt, wantErr := par.RunParallel(core.RunConfig{Engine: interp.EngineBytecode}, 2, "main", faulty...)
		if wantErr == nil || !strings.Contains(wantErr.Error(), "integer division by zero") {
			t.Fatalf("width %d: scalar engine returned %v, want a division fault", width, wantErr)
		}
		_, st, err := par.RunParallel(core.RunConfig{}, 2, "main", faulty...)
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("width %d: kernel engine returned %v, want %v", width, err, wantErr)
		}
		if st.Barriers != wantSt.Barriers {
			t.Errorf("width %d: %d barriers, scalar engine %d", width, st.Barriers, wantSt.Barriers)
		}
	}
}
