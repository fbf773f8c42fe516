// Package parexec executes transformed PSL programs with real
// goroutine parallelism: it is the hardware counterpart of the
// simulated Sequent in package sequent.
//
// Run executes a program on a root interpreter whose parallel
// forall loops — the regions transform.StripMine emits — are handed to
// a fixed pool of worker goroutines (one per PE, default GOMAXPROCS;
// a pool of one runs on the interpreting goroutine instead). Each
// worker executes iterations on an interpreter forked from the root:
// the program is shared and immutable, step/allocation counters
// and the deterministic RNG are shared atomics, and heap writes are
// partitioned by construction — the dependence test only licenses
// loops whose iterations write disjoint nodes (and at field
// granularity, disjoint fields), so no locking of the heap is needed.
//
// Which PE runs which iteration is decided by a pluggable Policy
// (§4.3.3 / experiment X2): StaticBlock, StaticCyclic (the paper's
// "simple static scheduling"), or Dynamic self-scheduling with a
// configurable chunk size. The policy affects only load balance and
// scheduling overhead, never the result — see Policy.
//
// Strips the kernel classifier vectorized (the default engine,
// interp.EngineKernel) do not go through the iteration scheduler at
// all: the interpreter hands the strip's gather/compute/scatter phases
// to runState.strip, which runs them in place on the interpreting
// goroutine — one barrier, no dispatch.
//
// Every forall is a barrier, mirroring the paper's FOR1/FOR2 structure
// (§4.3.3): the pool finishes all PE iteration procedures (FOR2 bodies)
// before the serial outer loop advances the induction pointer (FOR1).
// print() output from iterations is captured in per-iteration buffers
// and flushed in iteration order at the barrier, so a parallel run's
// output stream — and its result, since the heap writes are disjoint —
// is bit-identical to the serial run's under every scheduling policy.
//
// One caveat, for hand-written forall only: the rand() builtin draws
// from a single shared stream in completion order, so a forall body
// that calls rand() receives scheduling-dependent draws and loses the
// bit-identical guarantee. The planner never produces such a region —
// effects models rand() as a write to a region all iterations share,
// and depend rejects any loop whose body reaches it, naming the call
// path — so only source that spells forall itself must keep rand() out
// of it.
package parexec

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/obs"
)

// Options configures a Run.
type Options struct {
	// Interp selects the interpreter engine the pool runs on (default
	// interp.EngineKernel: the bytecode VM, with vectorized strips run
	// as batched kernels; interp.EngineBytecode is the VM without them,
	// interp.EngineCompiled the closure engine, interp.EngineWalk the
	// tree-walking oracle). Results are bit-identical across all four —
	// the engines differ only in speed.
	Interp interp.Engine
	// Compiled, if non-nil, is the program's code (interp.CompileProgram),
	// built by a caller that runs the program more than once — the
	// serving layer's guarantee that cached programs never recompile,
	// core.Compilation's one build per compilation. Nil builds the code
	// for this run. Must have been built from the same program Run is
	// given.
	Compiled *interp.CompiledProgram
	// PEs is the number of PEs (0 = GOMAXPROCS). Two or more get one
	// worker goroutine each; a pool of one runs its PE's streams on the
	// interpreting goroutine itself.
	PEs int
	// Sched maps forall iterations to PEs (nil = Dynamic(1),
	// self-scheduling one iteration at a time — the behavior of the
	// original task-queue pool).
	Sched Policy
	// Seed for the deterministic rand() builtin.
	Seed uint64
	// Output receives the merged print() stream (nil discards).
	// Concurrent runs must not share a writer: each would interleave
	// unsynchronized writes into it.
	Output io.Writer
	// MaxSteps bounds execution (0 = interpreter default).
	MaxSteps int64
	// Ctx, if non-nil, cancels the run (deadline or explicit cancel);
	// root and workers all poll it. See interp.Config.Ctx.
	Ctx context.Context
	// MaxAllocs bounds `new` allocations across the run (0 = unlimited).
	MaxAllocs int64
	// MaxOutputBytes bounds total print() bytes (0 = unlimited). The
	// budget is charged when an iteration prints into its buffer, so it
	// also caps memory held by the deterministic output merge.
	MaxOutputBytes int64
	// Profiler, if non-nil, receives per-barrier parallel-efficiency
	// measurements (per-PE busy time, barrier wait, task counts) keyed
	// by the forall's source line. Nil disables measurement entirely:
	// the worker loop takes no clock readings and allocates nothing
	// extra per barrier.
	Profiler *obs.ForallProfiler
}

// Run executes fn of a checked, normalized program on a pool of
// opt.PEs PEs, built for this call and torn down when it returns, and
// returns the result with Stats whose Barriers field counts the
// parallel regions joined. Value, output, steps, allocations and error
// are those of the serial interp.Run, whatever the pool size and
// policy.
func Run(prog *lang.Program, opt Options, fn string, args ...interp.Value) (interp.Value, interp.Stats, error) {
	out := opt.Output
	if out == nil {
		out = io.Discard
	}
	pes := opt.PEs
	if pes <= 0 {
		pes = runtime.GOMAXPROCS(0)
	}
	sched := opt.Sched
	if sched == nil {
		sched = Dynamic(1)
	}
	rs := &runState{out: out, pes: pes, sched: sched, prof: opt.Profiler}
	icfg := interp.Config{
		Engine:         opt.Interp,
		Mode:           interp.Real,
		Seed:           opt.Seed,
		Output:         out,
		MaxSteps:       opt.MaxSteps,
		Ctx:            opt.Ctx,
		MaxAllocs:      opt.MaxAllocs,
		MaxOutputBytes: opt.MaxOutputBytes,
		Forall:         rs.forall,
		Strip:          rs.strip,
	}
	var root *interp.Interp
	if opt.Compiled != nil {
		root = interp.NewCompiled(opt.Compiled, icfg)
	} else {
		root = interp.New(prog, icfg)
	}

	var workers sync.WaitGroup
	if pes == 1 {
		// A pool of one has nobody to run beside: PE 0's streams run on
		// the interpreting goroutine's own fork, and a barrier costs no
		// goroutine round trip (≈12 µs each when it did — three times
		// the run on a program of small foralls).
		rs.self = root.Fork(io.Discard)
	} else {
		// One channel per worker, so PE p's assignment stream always
		// runs on worker p: two streams can never collapse onto one
		// goroutine (which would serialize a static policy's chunks and
		// distort the measured schedule).
		rs.tasks = make([]chan task, pes)
		for i := range rs.tasks {
			rs.tasks[i] = make(chan task)
			workers.Add(1)
			w := root.Fork(io.Discard)
			go func(ch <-chan task) {
				defer workers.Done()
				for t := range ch {
					t.drain(w)
					t.wg.Done()
				}
			}(rs.tasks[i])
		}
	}
	v, err := root.Call(fn, args...)
	for _, ch := range rs.tasks {
		close(ch)
	}
	workers.Wait()

	st := root.Stats()
	st.Barriers = rs.barriers
	return v, st, err
}

// ---------------------------------------------------------------------------
// Pool internals

// task is one PE's share of one forall: the worker drains its
// Assignment stream, writing iteration k's output into bufs[k-from]
// and its error into errs[k-from] (each slot owned by exactly one
// iteration, so no locking).
type task struct {
	pe   int
	asn  Assignment
	from int64
	bufs []*bytes.Buffer
	errs []error
	run  func(w *interp.Interp, k int64) error
	wg   *sync.WaitGroup

	// Profiling slots (nil when no profiler is installed — the nil
	// check is the only per-iteration cost of having the hooks in
	// place). Each slice index is owned by exactly one PE, so the
	// workers write without locks; start anchors the done offsets.
	busy   []int64
	done   []int64
	ntasks []int64
	start  time.Time
}

// drain runs PE t.pe's share of a forall on the worker interpreter w:
// every iteration the assignment hands this PE, each into its own
// output buffer and error slot.
func (t *task) drain(w *interp.Interp) {
	for {
		k, ok := t.asn.Next(t.pe)
		if !ok {
			break
		}
		i := k - t.from
		w.SetOutput(t.bufs[i])
		if t.busy != nil {
			t0 := time.Now()
			t.errs[i] = t.run(w, k)
			t.busy[t.pe] += int64(time.Since(t0))
			t.ntasks[t.pe]++
		} else {
			t.errs[i] = t.run(w, k)
		}
		w.SetOutput(nil)
	}
	if t.done != nil {
		// Offset from dispatch at which this PE's stream drained: the
		// gap to the barrier is its wait time.
		t.done[t.pe] = int64(time.Since(t.start))
	}
}

// runState is the per-Run scheduler the root interpreter calls for
// every parallel forall. It lives on the interpreting goroutine; only
// the per-worker task channels cross into the workers.
type runState struct {
	tasks []chan task // tasks[pe] feeds worker pe; nil in a pool of one
	// self, in a pool of one, is the fork that runs PE 0's streams on
	// the interpreting goroutine (nil otherwise).
	self     *interp.Interp
	out      io.Writer
	pes      int
	sched    Policy
	barriers int64
	// bufs are the per-iteration output buffers, kept from one forall
	// to the next (forall runs on the interpreting goroutine only).
	bufs []*bytes.Buffer
	prof *obs.ForallProfiler
}

// strip runs one vectorized strip (interp.StripScheduler) on the
// interpreting goroutine: gather, compute over every lane, scatter —
// one barrier, and on the profiler one task on PE 0. Any phase error
// aborts the strip before the heap is written and before the barrier
// or profiler see it: the interpreter then falls back to the scalar
// path, whose barrier rs.forall counts instead — so a strip never
// double-counts.
//
// The compute phase is not split across the pool, because on the one
// host measured it never repaid the dispatch (2-vCPU sandbox, go1.24,
// PEs 2; nbody.VecForcePSL strip-mined at widths 8 to 8192, a
// 67-instruction kernel; µs per strip, lower quartile of 9–15 runs,
// three sweeps). In place, compute costs ≈0.75 ns per lane-instruction;
// split, a strip pays a channel send, a goroutine wake-up and a
// WaitGroup wait per PE, ≈4 µs at width 8:
//
//	lanes × 67 instrs   split ÷ in-place, whole strip
//	    536 … 4 288     2.1 – 4.2
//	  8 576 … 68 608    1.4 – 2.0
//	137 216, 205 824    1.25 – 1.5
//	274 432 … 548 864   0.94 – 1.29
//
// The planner and the server hand out strips of 4×PEs lanes capped at
// 256 (≈17 000 on that scale), far inside the region where splitting
// loses. Bringing a split back needs a workload of wider strips in the
// benchmark first, measured on a host whose PEs are independent cores.
func (rs *runState) strip(pos lang.Pos, lanes int, s interp.KernelStrip) error {
	var busy, ntasks []int64
	var start, t0 time.Time
	var gatherNS, scatterNS int64
	if rs.prof != nil {
		busy = make([]int64, rs.pes)
		ntasks = make([]int64, rs.pes)
		start = time.Now()
	}
	if err := s.Gather(); err != nil {
		return err
	}
	if rs.prof != nil {
		t0 = time.Now()
		gatherNS = int64(t0.Sub(start))
	}
	if err := s.Compute(0, lanes); err != nil {
		return err
	}
	if rs.prof != nil {
		busy[0] = int64(time.Since(t0))
		ntasks[0] = 1
		t0 = time.Now()
	}
	if err := s.Scatter(); err != nil {
		return err
	}
	rs.barriers++
	if rs.prof != nil {
		scatterNS = int64(time.Since(t0))
		rs.prof.RecordKernel(pos.Line, int64(time.Since(start)), gatherNS, scatterNS, busy, ntasks)
	}
	return nil
}

// forall asks the scheduling policy for an iteration→PE assignment,
// hands each PE its stream, and blocks until all complete — the
// per-step barrier. Iteration output is then flushed in index order
// and the first failing iteration (in index order, matching where a
// serial run would have stopped) decides the error: what it printed
// before it failed is the last output flushed. The interpreter
// hands a wide loop over a window at a time (at most a few thousand
// iterations a call), so the per-iteration buffers and error slots
// held here are bounded by that window, not by the loop's range.
func (rs *runState) forall(pos lang.Pos, from, to int64, run func(w *interp.Interp, k int64) error) error {
	n := int(to - from + 1)
	for len(rs.bufs) < n {
		rs.bufs = append(rs.bufs, new(bytes.Buffer))
	}
	bufs := rs.bufs[:n]
	errs := make([]error, n)
	asn := rs.sched.Assign(from, to, rs.pes)
	t := task{asn: asn, from: from, bufs: bufs, errs: errs, run: run}
	if rs.prof != nil {
		t.busy = make([]int64, rs.pes)
		t.done = make([]int64, rs.pes)
		t.ntasks = make([]int64, rs.pes)
		t.start = time.Now()
	}
	if rs.self != nil {
		t.drain(rs.self)
	} else {
		var wg sync.WaitGroup
		wg.Add(rs.pes)
		t.wg = &wg
		for pe := 0; pe < rs.pes; pe++ {
			t.pe = pe
			rs.tasks[pe] <- t
		}
		wg.Wait()
	}
	rs.barriers++
	if rs.prof != nil {
		rs.prof.Record(pos.Line, int64(time.Since(t.start)), t.busy, t.done, t.ntasks)
	}

	// First failing iteration, in index order: a serial run would have
	// stopped there, so output is flushed up to and including what that
	// iteration printed before it failed, and nothing of later ones.
	failed := -1
	for i, err := range errs {
		if err != nil {
			failed = i
			break
		}
	}
	var writeErr error
	for i, b := range bufs {
		if (failed < 0 || i <= failed) && b.Len() > 0 && writeErr == nil {
			if _, err := rs.out.Write(b.Bytes()); err != nil {
				writeErr = fmt.Errorf("parexec: merging output: %w", err)
			}
		}
		b.Reset()
	}
	if failed >= 0 {
		return errs[failed]
	}
	return writeErr
}
