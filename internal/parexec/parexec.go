// Package parexec executes transformed PSL programs with real
// goroutine parallelism: it is the hardware counterpart of the
// simulated Sequent in package sequent.
//
// Run executes a program on a root interpreter whose parallel
// forall loops — the regions transform.StripMine emits — are shared
// out over a fixed pool of PEs (default GOMAXPROCS). The interpreting
// goroutine is PE 0 and each further PE is one worker goroutine, so a
// pool of P PEs starts P−1 goroutines and a pool of one starts none.
// Each PE executes iterations on an interpreter forked from the root:
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
// The barrier never costs more than running the window in place: the
// interpreting goroutine drains PE 0's assignment stream, then adopts
// every stream no worker has claimed yet, and waits only for streams a
// worker is inside (see runState.forall). An idle worker polls for the
// next forall for a bounded time before it parks (spinPolls).
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
	"sync/atomic"
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
	// interp.EngineWalk the tree-walking oracle). Results are
	// bit-identical across all three — the engines differ only in speed.
	Interp interp.Engine
	// Compiled, if non-nil, is the program's code (interp.CompileProgram),
	// built by a caller that runs the program more than once — the
	// serving layer's guarantee that cached programs never recompile,
	// core.Compilation's one build per compilation. Nil builds the code
	// for this run. Must have been built from the same program Run is
	// given.
	Compiled *interp.CompiledProgram
	// PEs is the number of PEs (0 = GOMAXPROCS). The interpreting
	// goroutine is PE 0; every further PE gets one worker goroutine.
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
	// by the forall's source line, indexed by the assignment stream's PE
	// whichever goroutine drained it. Nil disables measurement entirely:
	// no PE takes a clock reading and nothing extra is allocated per
	// barrier.
	Profiler *obs.ForallProfiler
}

// Run executes fn of a checked, normalized program on a pool of
// opt.PEs PEs — the calling goroutine and opt.PEs−1 workers, started
// for this call and stopped and joined before it returns, however it
// returns — and returns the result with Stats whose Barriers field
// counts the parallel regions joined. Value, output, steps, allocations
// and error are those of the serial interp.Run, whatever the pool size
// and policy.
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
	rs.start(root)
	defer rs.stop()

	v, err := root.Call(fn, args...)
	st := root.Stats()
	st.Barriers = rs.barriers
	return v, st, err
}

// ---------------------------------------------------------------------------
// Pool internals

// task is the forall the pool is running: whoever claims PE pe's
// Assignment stream drains it, writing iteration k's output into
// bufs[k-from] and its error into errs[k-from] (each slot owned by
// exactly one iteration, so no locking).
type task struct {
	asn  Assignment
	from int64
	bufs []*bytes.Buffer
	errs []error
	run  func(w *interp.Interp, k int64) error

	// Profiling slots (nil when no profiler is installed — the nil
	// check is the only per-iteration cost of having the hooks in
	// place). Each slice index is owned by exactly one stream, so its
	// drainer writes without locks; start anchors the done offsets.
	busy   []int64
	done   []int64
	ntasks []int64
	start  time.Time
}

// drain runs PE pe's share of a forall on the interpreter w: every
// iteration the assignment hands that PE, each into its own output
// buffer and error slot. The caller has claimed the stream; w is the
// claimant's own fork, not necessarily worker pe's.
func (t *task) drain(w *interp.Interp, pe int) {
	for {
		k, ok := t.asn.Next(pe)
		if !ok {
			break
		}
		i := k - t.from
		w.SetOutput(t.bufs[i])
		if t.busy != nil {
			t0 := time.Now()
			t.errs[i] = t.run(w, k)
			t.busy[pe] += int64(time.Since(t0))
			t.ntasks[pe]++
		} else {
			t.errs[i] = t.run(w, k)
		}
		w.SetOutput(nil)
	}
	if t.done != nil {
		// Offset from dispatch at which this PE's stream drained: the
		// gap to the barrier is its wait time.
		t.done[pe] = int64(time.Since(t.start))
	}
}

// spinPolls is how many times an idle worker reads the epoch before it
// parks, and spinYield how many reads it makes between two
// runtime.Gosched calls, so the polling never holds a processor another
// goroutine could use: beside a busy server a poller is mostly off the
// processor. A worker still polling when the next forall is published
// joins it at once; a parked one costs the publisher a channel send and
// joins a scheduler wake-up later, by which time the interpreting
// goroutine has run most of a small window by itself. 2000 polls are
// ≈14 µs of an otherwise idle processor, long enough to bridge the
// serial step between two barriers of a strip-mined loop and short
// enough that a pool nobody gives a scalar forall (every strip
// vectorized) is parked almost as soon as it starts.
//
// Chosen on the one host measured (2-vCPU sandbox, go1.24, PEs 2;
// PolyNormalize run(1024, 1.001) planned at width 8: 128 barriers of 8
// iterations, ≈5 µs each; lower quartile of 300 runs, nine such samples
// a setting, interleaved; the serial program read 4.0–4.9 ms, and a
// pool that sent each PE its task down a channel and slept on a
// WaitGroup 6.8–7.3 ms):
//
//	polls / yield every   planned run, ms
//	     0 (park at once)   4.8 – 8.0
//	   200 / 16             4.0 – 6.1
//	  2000 /  4             3.1 – 4.6
//	  2000 / 16             3.1 – 4.6
//	  2000 / 64             3.3 – 4.8
//	 20000 / 16             3.4 – 4.5
const (
	spinPolls = 2000
	spinYield = 16
)

// poolClosed is the epoch that tells the workers to exit.
const poolClosed = ^uint64(0)

// worker is what the pool keeps for one worker goroutine and its PE.
type worker struct {
	// claim is the last epoch whose stream for this PE was claimed — by
	// this worker or by the interpreting goroutine, whichever swapped it
	// from the previous epoch first. Every stream of every epoch is
	// claimed before the barrier opens, so at publication it holds the
	// previous epoch.
	claim atomic.Uint64
	// parked is set by the worker before it blocks on wake and cleared
	// by whoever takes responsibility for its waking up: the publisher
	// (which then sends on wake) or the worker itself, if it sees the
	// new epoch after all.
	parked atomic.Bool
	// wake has one slot and at most one token in flight (a token is
	// sent only by the goroutine that cleared parked), so the publisher
	// never blocks on it.
	wake chan struct{}
}

// runState is the per-Run scheduler the root interpreter calls for
// every parallel forall. Everything but the barrier protocol's atomics
// and the published task belongs to the interpreting goroutine.
type runState struct {
	// self is the fork that runs PE 0's stream, and any stream the
	// interpreting goroutine adopts, on that goroutine.
	self     *interp.Interp
	out      io.Writer
	pes      int
	sched    Policy
	barriers int64
	// bufs and errs are the per-iteration output buffers and error
	// slots, kept from one forall to the next.
	bufs []*bytes.Buffer
	errs []error
	prof *obs.ForallProfiler

	// The barrier protocol. t is written only by the interpreting
	// goroutine and only between barriers; storing the next epoch
	// publishes it. A PE may read t once it has claimed a stream of the
	// current epoch, and the epoch does not advance while a claimed
	// stream is being drained.
	t       task
	epoch   atomic.Uint64 // foralls published so far, or poolClosed
	done    atomic.Int32  // streams of this epoch that workers have finished
	workers []worker      // workers[pe-1] is PE pe's
	joined  sync.WaitGroup
}

// start forks PE 0's interpreter and starts the pool's workers.
func (rs *runState) start(root *interp.Interp) {
	rs.self = root.Fork(io.Discard)
	rs.workers = make([]worker, rs.pes-1)
	rs.joined.Add(len(rs.workers))
	for i := range rs.workers {
		rs.workers[i].wake = make(chan struct{}, 1)
		go rs.work(i+1, root.Fork(io.Discard))
	}
}

// stop tells the workers to exit and waits until they have.
func (rs *runState) stop() {
	rs.publish(poolClosed)
	rs.joined.Wait()
}

// publish makes epoch e visible and wakes the workers that had parked.
func (rs *runState) publish(e uint64) {
	rs.epoch.Store(e)
	for i := range rs.workers {
		w := &rs.workers[i]
		if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
			w.wake <- struct{}{}
		}
	}
}

// work is worker pe's goroutine: for every epoch it sees, it drains
// stream pe on its own fork w if it is first to claim it. A worker that
// turns up late — parked, descheduled — finds the stream claimed (or the
// epoch gone) and goes back to waiting; it never holds a barrier up.
func (rs *runState) work(pe int, w *interp.Interp) {
	defer rs.joined.Done()
	me := &rs.workers[pe-1]
	seen := uint64(0)
	for {
		e := rs.await(me, seen)
		if e == poolClosed {
			return
		}
		seen = e
		if me.claim.CompareAndSwap(e-1, e) {
			rs.t.drain(w, pe)
			rs.done.Add(1)
		}
	}
}

// await returns the first epoch other than seen: it polls spinPolls
// times, then parks between polls until the publisher wakes it.
func (rs *runState) await(me *worker, seen uint64) uint64 {
	for polls := 1; ; polls++ {
		if e := rs.epoch.Load(); e != seen {
			return e
		}
		if polls <= spinPolls {
			if polls%spinYield == 0 {
				runtime.Gosched()
			}
			continue
		}
		// Either the publisher sees parked after its epoch store, or
		// this goroutine sees the new epoch after its parked store: a
		// wake-up is never lost. Losing the swap means a token is on
		// its way and must be consumed.
		me.parked.Store(true)
		if rs.epoch.Load() == seen || !me.parked.CompareAndSwap(true, false) {
			<-me.wake
		}
	}
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
// publishes it, and returns when every PE's stream has been drained —
// the per-step barrier. The interpreting goroutine is PE 0: it drains
// stream 0 on its own fork, then claims and drains every stream whose
// worker has not turned up yet, and finally waits for the streams
// workers did claim. So a stream runs exactly once, on its own worker
// whenever that worker is in time, and a barrier whose workers never
// wake costs what running the window in place costs (under Dynamic a
// late stream finds the shared cursor drained and is empty).
//
// Iteration output is then flushed in index order and the first
// failing iteration (in index order, matching where a serial run would
// have stopped) decides the error: what it printed before it failed is
// the last output flushed. The interpreter hands a wide loop over a
// window at a time (at most a few thousand iterations a call), so the
// per-iteration buffers and error slots held here are bounded by that
// window, not by the loop's range.
func (rs *runState) forall(pos lang.Pos, from, to int64, run func(w *interp.Interp, k int64) error) error {
	n := int(to - from + 1)
	for len(rs.bufs) < n {
		rs.bufs = append(rs.bufs, new(bytes.Buffer))
	}
	if cap(rs.errs) < n {
		rs.errs = make([]error, n)
	}
	bufs, errs := rs.bufs[:n], rs.errs[:n]
	clear(errs)
	t := &rs.t
	*t = task{asn: rs.sched.Assign(from, to, rs.pes), from: from, bufs: bufs, errs: errs, run: run}
	if rs.prof != nil {
		t.busy = make([]int64, rs.pes)
		t.done = make([]int64, rs.pes)
		t.ntasks = make([]int64, rs.pes)
		t.start = time.Now()
	}
	rs.done.Store(0)
	e := rs.epoch.Load() + 1
	rs.publish(e)
	t.drain(rs.self, 0)
	claimed := int32(0) // streams a worker got to first
	for i := range rs.workers {
		if rs.workers[i].claim.CompareAndSwap(e-1, e) {
			t.drain(rs.self, i+1)
		} else {
			claimed++
		}
	}
	for rs.done.Load() != claimed {
		runtime.Gosched()
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
