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
// Every PE takes a forall's iterations one at a time from one shared
// cursor (sched.Cursor, the schedule sched.ForEach runs too), so a PE
// that finishes early takes more and the schedule adapts to uneven
// iteration costs at the price of one atomic add per iteration. Which
// PE ran which iteration never shows in the result — see below. (The
// paper's "simple static scheduling" of §4.3.3 is a property of the
// simulated machine, interp.Scheduling, not of this pool.)
//
// Strips the kernel classifier vectorized (the default engine,
// interp.EngineKernel) never reach the pool: the interpreter runs a
// strip's gather, compute and scatter in place on the interpreting
// goroutine, as one barrier.
//
// Every forall is a barrier, mirroring the paper's FOR1/FOR2 structure
// (§4.3.3): the pool finishes all PE iteration procedures (FOR2 bodies)
// before the serial outer loop advances the induction pointer (FOR1).
// The barrier never costs more than running the window in place: the
// interpreting goroutine takes iterations until the cursor is drained,
// then closes the share of every worker that has not turned up yet, and
// waits only for workers already inside the forall (see
// runState.forall). An idle worker polls for the next forall for a
// bounded time before it parks (spinPolls).
//
// The pool only runs iterations. What a forall leaves is the
// interpreter's to decide (interp.ForallScheduler): it buffers each
// iteration's print() output and flushes it in iteration order, picks
// the first failing iteration's error and counts the barriers, so a
// parallel run's output stream, counters and result — the heap writes
// being disjoint — are bit-identical to the serial run's whichever PE
// ran which iteration.
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
	"context"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/sched"
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
	// by the forall's source line and indexed by PE; the interpreter adds
	// one kernel record per vectorized strip (interp.Config.Profiler). Nil
	// disables measurement entirely: no PE takes a clock reading and
	// nothing extra is allocated per barrier.
	Profiler *obs.ForallProfiler
}

// Run executes fn of a checked, normalized program on a pool of
// opt.PEs PEs — the calling goroutine and opt.PEs−1 workers, started
// for this call and stopped and joined before it returns, however it
// returns. The pool only runs forall iterations; the interpreter keeps
// the result, so value, output, error and every Stats counter are those
// of the serial interp.Run, whatever the pool size.
func Run(prog *lang.Program, opt Options, fn string, args ...interp.Value) (interp.Value, interp.Stats, error) {
	pes := opt.PEs
	if pes <= 0 {
		pes = runtime.GOMAXPROCS(0)
	}
	rs := &runState{pes: pes, prof: opt.Profiler}
	if rs.prof != nil {
		rs.t.busy = make([]int64, pes)
		rs.t.done = make([]int64, pes)
		rs.t.ntasks = make([]int64, pes)
	}
	icfg := interp.Config{
		Engine:         opt.Interp,
		Mode:           interp.Real,
		PEs:            pes,
		Seed:           opt.Seed,
		Output:         opt.Output,
		MaxSteps:       opt.MaxSteps,
		Ctx:            opt.Ctx,
		MaxAllocs:      opt.MaxAllocs,
		MaxOutputBytes: opt.MaxOutputBytes,
		Forall:         rs.forall,
		Profiler:       opt.Profiler,
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
	return v, root.Stats(), err
}

// ---------------------------------------------------------------------------
// Pool internals

// task is the forall the pool is running. It lives in the runState and
// is reset, not rebuilt, for every forall, so a barrier allocates
// nothing of the pool's.
type task struct {
	sched.Cursor
	run func(w *interp.Interp, k int64) error

	// Profiling slots (nil when no profiler is installed — the nil
	// check is the only per-iteration cost of having the hooks in
	// place). Slot pe is written only by whoever holds PE pe's claim,
	// so without locks; start anchors the done offsets.
	busy   []int64
	done   []int64
	ntasks []int64
	start  time.Time
}

// drain runs iterations from the cursor on the interpreter w, charging
// them to PE pe, until the range is drained. An iteration's error is the
// interpreter's to act on, not the pool's. The caller holds PE pe's
// claim; w is the caller's own fork, not necessarily worker pe's.
func (t *task) drain(w *interp.Interp, pe int) {
	for {
		k, ok := t.Take()
		if !ok {
			break
		}
		if t.busy != nil {
			t0 := time.Now()
			_ = t.run(w, k)
			t.busy[pe] += int64(time.Since(t0))
			t.ntasks[pe]++
		} else {
			_ = t.run(w, k)
		}
	}
	if t.done != nil {
		// Offset from dispatch at which this PE found the cursor
		// drained: the gap to the barrier is its wait time.
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
// PolyNormalize run(1024, 1.001) planned at width 8, then the planner's
// default of 4×PEs: 128 barriers of 8 iterations, ≈5 µs each — at
// today's default of 16×PEs the run has a quarter as many barriers,
// each four times wider; lower quartile of 300 runs, nine such samples
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
	// claim is the last epoch in which this PE was claimed — by this
	// worker, which then takes iterations, or by the interpreting
	// goroutine, which closes the late worker's share; whichever swapped
	// it from the previous epoch first. Every PE of every epoch is
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
	// self is the fork that runs PE 0's iterations on the interpreting
	// goroutine.
	self *interp.Interp
	pes  int
	prof *obs.ForallProfiler

	// The barrier protocol. t is written only by the interpreting
	// goroutine and only between barriers; storing the next epoch
	// publishes it. A worker may read t once it has claimed its PE for
	// the current epoch, and the epoch does not advance while a claimed
	// PE is taking iterations.
	t       task
	epoch   atomic.Uint64 // foralls published so far, or poolClosed
	done    atomic.Int32  // workers that have found this epoch's cursor drained
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

// work is worker pe's goroutine: for every epoch it sees, it takes
// iterations on its own fork w if it is first to claim PE pe. A worker
// that turns up late — parked, descheduled — finds its PE claimed (or
// the epoch gone) and goes back to waiting; it never holds a barrier up.
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

// forall resets the cursor to the window, publishes it, and returns
// when every PE has found the cursor drained — the per-step barrier.
// The interpreting goroutine is PE 0: it takes iterations on its own
// fork until none is left, then claims every PE whose worker has not
// turned up yet, closing that PE's (empty) share, and finally waits for
// the workers that did claim theirs. So every iteration runs exactly
// once, on whichever PE took it, and a barrier whose workers never wake
// costs what running the window in place costs. The pool cannot fail,
// so forall always returns nil: the interpreter decides the forall's
// output and error (interp.ForallScheduler).
func (rs *runState) forall(pos lang.Pos, from, to int64, run func(w *interp.Interp, k int64) error) error {
	t := &rs.t
	t.Reset(from, to)
	t.run = run
	if rs.prof != nil {
		clear(t.busy)
		clear(t.done)
		clear(t.ntasks)
		t.start = time.Now()
	}
	rs.done.Store(0)
	e := rs.epoch.Load() + 1
	rs.publish(e)
	t.drain(rs.self, 0)
	claimed := int32(0) // PEs a worker got to first
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
	if rs.prof != nil {
		rs.prof.Record(pos.Line, int64(time.Since(t.start)), t.busy, t.done, t.ntasks)
	}
	return nil
}
