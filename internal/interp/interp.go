// Package interp executes checked, normalized PSL programs. It is the
// semantic reference for the whole reproduction, and it is serial: an
// interpreter runs on the goroutine that calls it and starts no other.
// Parallelism lives in package parexec, which installs the Forall hook
// and runs forall iterations on its pool of PEs; without the hook a
// forall's iterations run in place, in index order. Package sequent
// replays runs on the 1992 machine model through Simulated mode.
//
// Whoever runs the iterations, this package owns a forall's result:
// with a hook installed, each iteration prints into a buffer of its
// own, the buffers are flushed in index order up to the first failing
// iteration, that iteration's error is the forall's, and what later
// iterations charged to the step and allocation counters is taken back
// — so a pooled run leaves exactly what the in-place loop leaves. The
// barrier count is the interpreter's too: every executed forall window
// and every vector strip is one barrier (Stats.Barriers), serial or
// pooled.
//
// Execution has three engines behind Config.Engine. The default (the
// zero value) is the kernel VM: flat bytecode over typed register
// banks (bcvm.go) plus batched struct-of-arrays kernels for the forall
// strips the classifier vectorizes (kernel.go). The plain bytecode VM
// (the kernel engine's scalar path and fallback) and the tree-walking
// oracle in this file are explicit opt-ins. All three are bit-identical
// in results, output, steps and allocations — the equivalence suite and
// the two differential fuzzers enforce it — and differ only in speed.
// The machine model has one implementation: a Simulated run executes on
// the walker whatever Config.Engine says, so cycle counts are the
// walker's and the VM carries no cost accounting.
//
// Paper provenance: speculative traversability — loading a pointer
// field through NULL yields NULL — is §3.2 (the transformed code's
// unguarded FOR1/FOR2 advances rely on it); runtime shape checks
// against ADDS declarations are §2.2;
// Simulated mode's cost accounting (max-over-PEs per forall plus a
// barrier, CostModel cycles) implements the §4.4 measurement setup,
// with Scheduling choosing the §4.3.3 static iteration→PE mapping.
package interp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/adds"
	"repro/internal/bytecode"
	"repro/internal/lang"
	"repro/internal/obs"
)

// Engine selects the execution engine behind Run and Interp.Call.
type Engine int

// Execution engines. EngineKernel is the zero value, so it is what
// every empty Config, RunConfig and parexec.Options resolves to, and
// what every POST /run runs; the other two are explicit opt-ins of Go
// callers.
const (
	// EngineKernel is the bytecode VM plus the SPMD vector path: strips
	// the classifier proved vectorizable (ForallSite.Kernel != nil)
	// execute as batched struct-of-arrays kernels — fields gathered
	// into flat slabs, the body run as fused whole-slab operations with
	// execution masks, results scattered back at the barrier.
	// Everything else (and every fallback: faults, step-budget
	// pressure) executes on the bytecode VM, so results, output,
	// accounting, and error text stay bit-identical to the other
	// engines.
	EngineKernel Engine = iota
	// EngineBytecode executes flat bytecode (internal/bytecode) over
	// typed per-function register banks — slot-resolved variables,
	// field offsets instead of field-name hashing, pre-resolved calls,
	// no boxed intermediates — with every forall on the scalar path:
	// the kernel engine minus the vector strips.
	EngineBytecode
	// EngineWalk executes the AST directly — the original tree-walking
	// interpreter, kept as the differential-testing oracle.
	EngineWalk
)

// EngineCompiled is the bytecode VM under the name the deleted closure
// engine had.
//
// Deprecated: use EngineBytecode.
const EngineCompiled = EngineBytecode

// String names the engine ("kernel", "bytecode", "walk").
func (e Engine) String() string {
	switch e {
	case EngineWalk:
		return "walk"
	case EngineBytecode:
		return "bytecode"
	}
	return "kernel"
}

// Mode selects how forall loops execute.
type Mode int

// Execution modes.
const (
	// Real executes the program as written. Forall iterations go to the
	// Config.Forall scheduler when one is installed (parexec's PEs) and
	// otherwise run in place, in index order.
	Real Mode = iota
	// Simulated runs everything sequentially, charging cycles from the
	// cost model; forall charges max-over-PEs plus a barrier. It always
	// executes on the tree walker, the one implementation of the cost
	// model: Config.Engine is ignored and no code is built.
	Simulated
)

// Scheduling selects how a simulated forall assigns iterations to PEs.
type Scheduling int

// Scheduling policies for Simulated mode.
const (
	// Cyclic assigns iteration k to PE k mod PEs (the paper's "simple
	// static scheduling").
	Cyclic Scheduling = iota
	// Block assigns contiguous chunks of iterations to PEs.
	Block
)

// CostModel assigns cycle costs to operations (Simulated mode).
type CostModel struct {
	VarAccess  int64 // read/write a local
	FieldLoad  int64 // p->f read
	FieldStore int64 // p->f write
	IntOp      int64 // integer ALU op
	RealOp     int64 // floating op
	Sqrt       int64
	Branch     int64
	CallOver   int64 // call/return overhead
	Alloc      int64
	Barrier    int64 // forall join cost (Sequent sync is slow)
}

// DefaultCosts approximates a bus-based 1980s multiprocessor: memory
// operations dominate, synchronization is expensive.
func DefaultCosts() CostModel {
	return CostModel{
		VarAccess:  1,
		FieldLoad:  6,
		FieldStore: 6,
		IntOp:      1,
		RealOp:     4,
		Sqrt:       40,
		Branch:     2,
		CallOver:   20,
		Alloc:      40,
		Barrier:    6000,
	}
}

// Config configures an interpreter.
type Config struct {
	// Engine selects the execution engine (default EngineKernel, the
	// bytecode VM with vectorized strips; the plain bytecode VM and the
	// tree-walking oracle are opt-ins). It applies to Real mode only.
	Engine Engine
	// Mode is Real (the default) or Simulated; a Simulated run is an
	// EngineWalk run.
	Mode  Mode
	Sched Scheduling
	// PEs is the run's PE count: the simulated machine's in Simulated
	// mode (0: one PE per iteration), the pool's in Real mode (parexec
	// sets it), where it sizes the per-PE rows of the strip profiles
	// Profiler receives and, above one, says iterations run at once.
	PEs    int
	Costs  CostModel
	Output io.Writer
	Seed   uint64
	// MaxSteps bounds executed statements (0 = default guard). A serial
	// for pays one step per trip; a forall pays its whole trip count at
	// entry, so a range larger than the remaining budget fails before
	// anything runs or is allocated.
	MaxSteps int64
	MaxDepth int // 0 = default (4096)
	// Ctx, if non-nil, cancels the run: a deadline or explicit cancel
	// makes Call return an error. Every engine polls it wherever it
	// publishes its step count (publish), at least every stepFlushChunk
	// statements, so a runaway loop is cut within a few hundred
	// statements. The sandbox budgets below plus Ctx are what the
	// serving layer (internal/serve) relies on to run untrusted
	// programs.
	Ctx context.Context
	// MaxAllocs bounds `new` node allocations across the run and all
	// its forks (0 = unlimited). Shared, like the allocation counter,
	// so parallel iterations draw from one budget.
	MaxAllocs int64
	// MaxOutputBytes bounds the total bytes print() may emit across
	// the run and all its forks (0 = unlimited). Enforced before the
	// write, so the cap also bounds buffered parallel output.
	MaxOutputBytes int64
	// ShapeChecks enables runtime validation of ADDS shape promises on
	// every pointer store (the paper's §2.2 debugging checks).
	ShapeChecks bool
	// ShapeChecksFatal turns a detected violation into an execution
	// error instead of a log entry.
	ShapeChecksFatal bool
	// Forall, if non-nil and Mode == Real, schedules every parallel
	// forall instead of running its iterations in place. It receives the
	// inclusive iteration bounds and a run function that executes one
	// iteration on the given worker interpreter (obtain workers with
	// Fork). Forks clear this hook, so a forall nested inside a
	// scheduled iteration runs in place on that iteration's worker
	// rather than re-entering the scheduler.
	Forall ForallScheduler
	// Profiler, if non-nil, receives one kernel record per vectorized
	// strip (gather, compute and scatter times, the compute as one task
	// on PE 0 of PEs), keyed by the forall's source line. Forks clear it
	// along with Forall.
	Profiler *obs.ForallProfiler
}

// ForallScheduler executes the iterations [from, to] of a parallel
// loop, calling run(w, k) exactly once per k, in any order, on a worker
// interpreter w. run is safe to call from multiple goroutines
// concurrently as long as each call gets its own worker. The scheduler
// must not return before every iteration has completed (it is the
// loop's barrier). run's error is for the scheduler's information only:
// the interpreter keeps each iteration's error and output itself and
// decides the forall's result, so the scheduler returns non-nil only
// when it fails itself. pos is the source position of the forall — for
// loops generated by strip-mining it is the original loop's position —
// so profilers can key measurements to the planner's loop table. The
// range is never empty and its trip count has been charged to the step
// budget, so to - from + 1 fits an int64 and is at most MaxSteps.
type ForallScheduler func(pos lang.Pos, from, to int64, run func(w *Interp, k int64) error) error

// Stats reports execution counters.
type Stats struct {
	Cycles      int64 // elapsed simulated cycles (Simulated mode)
	WorkCycles  int64 // total work including all PEs
	Steps       int64
	Allocations int64
	// Barriers counts the run's barriers, its forks' included: one per
	// simulated forall in Simulated mode; in Real mode one per executed
	// forall window and per vector strip, whether the window ran in
	// place or on a scheduler.
	Barriers int64
}

// Interp executes one program.
type Interp struct {
	prog  *lang.Program
	cfg   Config
	out   io.Writer
	outMu *sync.Mutex

	// sh is shared between an interpreter and all its forks so that
	// step accounting, allocation ids, the deterministic RNG, and the
	// shape-check log stay global across parallel workers.
	sh *state

	// cycles is the current accounting bucket (Simulated mode, so the
	// walker, only; single-threaded there).
	cycles int64
	work   int64

	maxSteps  int64
	maxDepth  int
	maxAllocs int64
	maxOutput int64
	// ctx is the optional cancellation signal (Config.Ctx), polled on
	// every publish of the step count.
	ctx context.Context

	// bc is the flat program when cfg.Engine is EngineKernel or
	// EngineBytecode; bcErr records why lowering failed (surfaced at
	// Call).
	bc    *bytecode.Program
	bcErr error
	// bcPool recycles bytecode register files. Frames never escape
	// their call — parallel iterations copy, never retain — so a
	// per-Interp free list is safe and keeps the recursive hot path
	// (compute_force) off the allocator.
	bcPool []*bcFrame
	// kern is the kernel engine's reusable strip state (kernel.go):
	// slab storage, lazily built on the first vectorized strip.
	kern *kernState
	// lanes holds the element of every lane of the strips in flight on
	// this interpreter, innermost last (stripWalk); stripHops counts the
	// links those walks followed.
	lanes     []*Node
	stripHops int64
	// stepsLocal is the step count this interpreter has not yet
	// published; the statement that takes it to stepMark publishes it.
	// Every engine, root or fork, keeps this one ledger, on one goroutine
	// at a time, so it needs no synchronization.
	stepsLocal, stepMark int64
	// trace, a test hook (export_test.go), has every statement publish
	// and sees each charge: a statement's position with trips 0, a forall
	// entry's with its trips.
	trace func(pos lang.Pos, trips int64)
	// ownSteps and ownAllocs are what this interpreter itself — not its
	// parent or sibling forks — has added to the shared step and
	// allocation counters: the difference across one forall iteration
	// is what that iteration cost (see scheduledWindow).
	ownSteps, ownAllocs int64
	// costs and bufs are scheduledWindow's per-iteration ledger and
	// output buffers, reused from one window to the next.
	costs []iterCost
	bufs  []*bytes.Buffer
	// cdepth is the bytecode VM's live call depth.
	cdepth int
	// walkPool is the walker's frame stack: every private []Value it
	// makes — a call's slot frame, a builtin's argument list, a Real-mode
	// forall iteration's snapshot — is popped here and pushed back when
	// that call or iteration ends, so frames are taken and returned LIFO
	// and after warm-up nothing allocates. Like bcPool it is per-Interp
	// and bounded; Fork builds a fresh Interp, so forks never share it.
	walkPool [][]Value
}

// state holds the counters an interpreter shares with its forks.
type state struct {
	rngState uint64

	steps    atomic.Int64
	allocs   atomic.Int64
	barriers atomic.Int64
	nextID   atomic.Int64
	outBytes atomic.Int64

	shapeMu  sync.Mutex // guards shapeLog and shape
	shapeLog []ShapeViolation
	shape    *shapeTable // the checker's table; nil unless Config.ShapeChecks
}

// New creates an interpreter for a checked, normalized program,
// building its code (nothing is built for a run on the walker: the walk
// engine, or Simulated mode). A caller that runs one program many times
// builds once with CompileProgram and uses NewCompiled.
func New(prog *lang.Program, cfg Config) *Interp {
	ip := newInterp(prog, cfg)
	if ip.cfg.Engine != EngineWalk {
		ip.attach(CompileProgram(prog))
	}
	return ip
}

// newInterp builds an interpreter without any code attached. It is the
// one place that decides a Simulated run executes on the walker.
func newInterp(prog *lang.Program, cfg Config) *Interp {
	if cfg.Mode == Simulated {
		cfg.Engine = EngineWalk
	}
	if cfg.Output == nil {
		cfg.Output = io.Discard
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 4_000_000_000
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 4096
	}
	if cfg.Costs == (CostModel{}) {
		cfg.Costs = DefaultCosts()
	}
	ip := &Interp{
		prog:      prog,
		cfg:       cfg,
		out:       cfg.Output,
		outMu:     &sync.Mutex{},
		sh:        &state{rngState: cfg.Seed*2862933555777941757 + 3037000493},
		maxSteps:  cfg.MaxSteps,
		maxDepth:  cfg.MaxDepth,
		maxAllocs: cfg.MaxAllocs,
		maxOutput: cfg.MaxOutputBytes,
		ctx:       cfg.Ctx,
	}
	if cfg.ShapeChecks {
		ip.sh.shape = newShapeTable(prog.Universe)
	}
	return ip
}

// Fork returns a worker interpreter over the same program, sharing the
// parent's counters, RNG, and shape-check log. If out is non-nil the
// fork prints there through its own mutex; with nil it shares the
// parent's writer and lock. Either way a scheduled iteration the fork
// runs prints into that iteration's buffer (see scheduledWindow). The
// fork drops the parent's Forall scheduler and Profiler, so a parallel
// loop nested inside the iteration a fork is running executes in place
// on that fork — in index order, on its worker — and cannot re-enter
// the pool that is running it. A fork must execute at most one call at
// a time.
func (ip *Interp) Fork(out io.Writer) *Interp {
	nf := &Interp{
		prog:      ip.prog,
		cfg:       ip.cfg,
		out:       ip.out,
		outMu:     ip.outMu,
		sh:        ip.sh,
		maxSteps:  ip.maxSteps,
		maxDepth:  ip.maxDepth,
		maxAllocs: ip.maxAllocs,
		maxOutput: ip.maxOutput,
		ctx:       ip.ctx,
		bc:        ip.bc,
		bcErr:     ip.bcErr,
	}
	nf.cfg.Forall = nil
	nf.cfg.Profiler = nil
	if out != nil {
		nf.out = out
		nf.outMu = &sync.Mutex{}
	}
	return nf
}

// Stats returns execution counters so far.
func (ip *Interp) Stats() Stats {
	return Stats{
		Cycles:      ip.cycles,
		WorkCycles:  ip.work,
		Steps:       ip.sh.steps.Load(),
		Allocations: ip.sh.allocs.Load(),
		Barriers:    ip.sh.barriers.Load(),
	}
}

// Call invokes the named function with the given arguments and returns
// its result (zero Value for procedures).
func (ip *Interp) Call(fn string, args ...Value) (Value, error) {
	f := ip.prog.Func(fn)
	if f == nil {
		return Value{}, fmt.Errorf("interp: no function %q", fn)
	}
	if len(args) != len(f.Params) {
		return Value{}, fmt.Errorf("interp: %s expects %d args, got %d", fn, len(f.Params), len(args))
	}
	// The argument boundary is the one place a Value's kind can differ
	// from its static type: an int passed for a real parameter widens
	// (each engine binds it so), and any other mismatch, or a node of
	// another declaration, fails here, before an engine reads a field of
	// the wrong kind or at the wrong offset.
	for i, a := range args {
		t := f.Params[i].Type
		elem, ptr := lang.IsPointer(t)
		if coerce(a, t).Kind == zeroValue(t).Kind && (!ptr || a.N == nil || a.N.decl == ip.prog.Universe.Decl(elem)) {
			continue
		}
		have := a.Kind.String()
		if a.N != nil {
			have = a.N.decl.Name + "*"
		}
		if a.N != nil && a.N.decl.Name == elem {
			have = "another program's " + have
		}
		return Value{}, fmt.Errorf("interp: %s: argument %d is %s, not %s", fn, i+1, have, t)
	}
	// A context that is already dead fails here, before any execution,
	// so every engine reports an identical error at an identical point.
	if ip.ctx != nil {
		if err := ip.ctx.Err(); err != nil {
			return Value{}, fmt.Errorf("interp: run cancelled: %v", err)
		}
	}
	switch ip.cfg.Engine {
	case EngineBytecode, EngineKernel:
		if ip.bcErr != nil {
			return Value{}, fmt.Errorf("interp: bytecode engine: %w", ip.bcErr)
		}
		v, err := ip.callBytecode(ip.bc.Func(fn), args)
		ip.flush()
		return v, err
	}
	// An int passed for a real parameter widens here, once, and the walk
	// below reads every slot at its type.
	vals := ip.getVals(max(len(args), len(f.Vars)))
	for i, a := range args {
		vals[i] = coerce(a, f.Params[i].Type)
	}
	v, err := ip.callFunc(f, vals, 0)
	ip.putVals(vals)
	ip.flush()
	return v, err
}

// Run is a convenience: interpret fn and return stats.
func Run(prog *lang.Program, cfg Config, fn string, args ...Value) (Value, Stats, error) {
	ip := New(prog, cfg)
	v, err := ip.Call(fn, args...)
	return v, ip.Stats(), err
}

// charge adds cycles in Simulated mode.
func (ip *Interp) charge(c int64) {
	if ip.cfg.Mode == Simulated {
		ip.cycles += c
		ip.work += c
	}
}

// addSteps charges n steps to the run's shared counter and returns the
// new total.
func (ip *Interp) addSteps(n int64) int64 {
	ip.ownSteps += n
	return ip.sh.steps.Add(n)
}

// stepFlushChunk bounds the statements between two publishes of an
// interpreter's step count (step, publish): batching keeps the hot loop
// off the shared cache line, and marking the statement past MaxSteps
// keeps a serial run failing on it, on every engine.
const stepFlushChunk = 256

// step charges the statement at pos.
func (ip *Interp) step(pos lang.Pos) error {
	if ip.stepsLocal++; ip.stepsLocal < ip.stepMark {
		return nil
	}
	if ip.trace != nil {
		ip.trace(pos, 0)
	}
	return ip.publish(pos)
}

// publish adds the local count to the shared total and sets the next
// mark; the statement at pos fails if the total is past MaxSteps or the
// run was cancelled. Every statement that fails on the budget fails
// here; a forall's trips are refused before any runs (forallTrips).
func (ip *Interp) publish(pos lang.Pos) error {
	if total := ip.flush(); total > ip.maxSteps {
		return fmt.Errorf("%s: interp: step limit exceeded (%d)", pos, ip.maxSteps)
	}
	if ip.ctx != nil {
		if err := ip.ctx.Err(); err != nil {
			return fmt.Errorf("%s: interp: run cancelled: %v", pos, err)
		}
	}
	return nil
}

// flush is publish without the checks, which Call's return needs not;
// it returns the new total.
func (ip *Interp) flush() int64 {
	total := ip.addSteps(ip.stepsLocal)
	ip.stepsLocal = 0
	ip.markSteps(total)
	return total
}

// markSteps sets stepMark, against total (this interpreter's count
// included), to the statement that takes the total to the next multiple
// of stepFlushChunk, or past MaxSteps if sooner.
func (ip *Interp) markSteps(total int64) {
	next := stepFlushChunk - total&(stepFlushChunk-1)
	if room := ip.maxSteps - total; room < next {
		next = room + 1
	}
	if ip.trace != nil {
		next = 1
	}
	ip.stepMark = ip.stepsLocal + next
}

// room is how many more steps the run may take before one fails.
func (ip *Interp) room() int64 {
	return ip.maxSteps - ip.sh.steps.Load() - ip.stepsLocal
}

// pay charges in one piece n steps a literal path would charge a
// statement at a time, unless one of those would fail (n is past the
// room left, or crosses the mark of a cancelled run): then it charges
// nothing and reports false, and the caller runs them literally.
func (ip *Interp) pay(n int64) bool {
	if n > ip.room() || ip.stepsLocal+n >= ip.stepMark && ip.ctx != nil && ip.ctx.Err() != nil {
		return false
	}
	ip.stepsLocal += n
	return true
}

// rand is a SplitMix64-style deterministic generator. It is safe for
// concurrent use (atomic state).
func (ip *Interp) rand() float64 {
	for {
		old := atomic.LoadUint64(&ip.sh.rngState)
		z := old + 0x9e3779b97f4a7c15
		if !atomic.CompareAndSwapUint64(&ip.sh.rngState, old, z) {
			continue
		}
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / float64(1<<53)
	}
}

// ---------------------------------------------------------------------------
// Frames

// frame is one call's variables, indexed by the checker's slots: vals[i]
// holds the declaration fn.Vars[i] names — the parameters at 0..n-1,
// then every var and loop variable of the body. Fields and callees are
// the checker's too: an access reads its record at FieldExpr.Off, a
// call runs Program.Funcs[CallExpr.Callee-1].
type frame struct {
	fn   *lang.FuncDecl
	vals []Value
}

// at returns the variable in slot s if fn.Vars says s holds the name id,
// as the bytecode builder checks of every use, and nil otherwise.
func (fr frame) at(id lang.ID, s int) *Value {
	if uint(s) < uint(len(fr.fn.Vars)) && fr.fn.Vars[s] == id {
		return &fr.vals[s]
	}
	return nil
}

// unresolved is the error for a use or declaration whose slot at
// rejects: the program was not checked, or not again after a rewrite.
func (fr frame) unresolved(pos lang.Pos, name string, s int) error {
	return fmt.Errorf("%s: interp: %s: variable %q does not resolve to slot %d (program not checked?)", pos, fr.fn.Name, name, s)
}

// getVals pops a zeroed frame of length n off the walker's frame stack,
// growing the top entry when it is too small; the stack is empty only
// on warm-up or deeper than walkPool's bound.
func (ip *Interp) getVals(n int) []Value {
	if l := len(ip.walkPool); l > 0 {
		vals := ip.walkPool[l-1]
		ip.walkPool = ip.walkPool[:l-1]
		return resize(vals, n)
	}
	return make([]Value, n)
}

// putVals zeroes vals and pushes it back, so a reused frame reads as a
// fresh one and the stack pins no dead node or string. Every entry is
// zero up to its capacity: it was made zeroed, and whatever a user
// wrote into it lies within the length cleared here.
func (ip *Interp) putVals(vals []Value) {
	clear(vals)
	if len(ip.walkPool) < 64 {
		ip.walkPool = append(ip.walkPool, vals)
	}
}

// snapshot returns a copy of the frame for one parallel iteration on w,
// so concurrent variable writes cannot race (heap writes are the
// program's responsibility — the dependence test guarantees transformed
// code is race-free). It is one slice copy, as the VM's register-bank
// fork is, into a frame from w's own stack: the caller gives it back
// with w.putVals when the iteration ends.
func (fr frame) snapshot(w *Interp) frame {
	vals := w.getVals(len(fr.vals))
	copy(vals, fr.vals)
	return frame{fn: fr.fn, vals: vals}
}

// ---------------------------------------------------------------------------
// Execution

type ctrl int

const (
	ctrlNext ctrl = iota
	ctrlReturn
)

// callFunc runs f on vals, its frame: at least len(f.Vars) long, with
// the call's arguments in the parameter slots (parameter i is slot i),
// each boxed at its parameter's type.
func (ip *Interp) callFunc(f *lang.FuncDecl, vals []Value, depth int) (Value, error) {
	if depth > ip.maxDepth {
		return Value{}, fmt.Errorf("interp: recursion depth exceeded in %s", f.Name)
	}
	if f.Vars == nil {
		return Value{}, fmt.Errorf("%s: interp: function %s is not checked", f.Pos(), f.Name)
	}
	ip.charge(ip.cfg.Costs.CallOver)
	c, rv, err := ip.execBlock(f.Body, frame{fn: f, vals: vals}, depth)
	if err != nil {
		return Value{}, err
	}
	if c == ctrlReturn {
		return rv, nil
	}
	if f.Result != nil {
		return Value{}, fmt.Errorf("interp: function %s fell off the end without returning", f.Name)
	}
	return Value{}, nil
}

func (ip *Interp) execBlock(b *lang.Block, fr frame, depth int) (ctrl, Value, error) {
	for _, s := range b.Stmts {
		c, rv, err := ip.execStmt(s, fr, depth)
		if err != nil {
			return ctrlNext, Value{}, err
		}
		if c == ctrlReturn {
			return c, rv, nil
		}
	}
	return ctrlNext, Value{}, nil
}

func (ip *Interp) execStmt(s lang.Stmt, fr frame, depth int) (ctrl, Value, error) {
	if err := ip.step(s.Pos()); err != nil {
		return ctrlNext, Value{}, err
	}
	switch s := s.(type) {
	case *lang.Block:
		return ip.execBlock(s, fr, depth)

	case *lang.VarStmt:
		v := zeroValue(s.DeclType)
		if s.Init != nil {
			var err error
			if v, err = ip.eval(s.Init, s.DeclType, fr, depth); err != nil {
				return ctrlNext, Value{}, err
			}
		}
		slot := fr.at(s.ID, s.Slot)
		if slot == nil {
			return ctrlNext, Value{}, fr.unresolved(s.Pos(), s.Name, s.Slot)
		}
		ip.charge(ip.cfg.Costs.VarAccess)
		*slot = v
		return ctrlNext, Value{}, nil

	case *lang.AssignStmt:
		return ctrlNext, Value{}, ip.execAssign(s, fr, depth)

	case *lang.WhileStmt:
		for {
			cond, err := ip.evalBool(s.Cond, fr, depth)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			ip.charge(ip.cfg.Costs.Branch)
			if !cond {
				return ctrlNext, Value{}, nil
			}
			c, rv, err := ip.execBlock(s.Body, fr, depth)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			if c == ctrlReturn {
				return c, rv, nil
			}
			if err := ip.step(s.Pos()); err != nil {
				return ctrlNext, Value{}, err
			}
		}

	case *lang.IfStmt:
		cond, err := ip.evalBool(s.Cond, fr, depth)
		if err != nil {
			return ctrlNext, Value{}, err
		}
		ip.charge(ip.cfg.Costs.Branch)
		if cond {
			return ip.execBlock(s.Then, fr, depth)
		}
		if s.Else != nil {
			return ip.execBlock(s.Else, fr, depth)
		}
		return ctrlNext, Value{}, nil

	case *lang.ReturnStmt:
		if s.Value == nil {
			return ctrlReturn, Value{}, nil
		}
		v, err := ip.eval(s.Value, fr.fn.Result, fr, depth)
		if err != nil {
			return ctrlNext, Value{}, err
		}
		return ctrlReturn, v, nil

	case *lang.CallStmt:
		_, err := ip.evalCall(s.Call, fr, depth)
		return ctrlNext, Value{}, err

	case *lang.ForStmt:
		return ip.execFor(s, fr, depth)
	}
	return ctrlNext, Value{}, fmt.Errorf("%s: interp: unknown statement %T", s.Pos(), s)
}

func (ip *Interp) execAssign(s *lang.AssignStmt, fr frame, depth int) error {
	rv, err := ip.eval(s.RHS, s.LHS.Type(), fr, depth)
	if err != nil {
		return err
	}
	switch lhs := s.LHS.(type) {
	case *lang.Ident:
		slot := fr.at(lhs.ID, lhs.Slot)
		if slot == nil {
			return fr.unresolved(s.Pos(), lhs.Name, lhs.Slot)
		}
		ip.charge(ip.cfg.Costs.VarAccess)
		*slot = rv
		return nil
	case *lang.FieldExpr:
		node, err := ip.evalPtr(lhs.X, fr, depth)
		if err != nil {
			return err
		}
		if node == nil {
			return fmt.Errorf("%s: interp: store through NULL pointer", s.Pos())
		}
		ip.charge(ip.cfg.Costs.FieldStore)
		if isPtr(lhs.Type()) {
			elem, err := ip.elem(s.Pos(), node, lhs, fr, depth)
			if err != nil {
				return err
			}
			old := *elem
			*elem = rv.N
			if ip.cfg.ShapeChecks {
				return ip.checkStore(s.Pos(), node, lhs.Off, old, rv.N)
			}
			return nil
		}
		if lhs.Type() == nil || uint(lhs.Off) >= uint(len(node.words)) {
			return fmt.Errorf("%s: interp: %s has no data field %q", s.Pos(), node.decl.Name, lhs.Field)
		}
		node.words[lhs.Off] = rv.word()
		return nil
	}
	return fmt.Errorf("%s: interp: bad assignment target %T", s.Pos(), s.LHS)
}

func (ip *Interp) execFor(s *lang.ForStmt, fr frame, depth int) (ctrl, Value, error) {
	from, err := ip.evalInt(s.From, fr, depth)
	if err != nil {
		return ctrlNext, Value{}, err
	}
	to, err := ip.evalInt(s.To, fr, depth)
	if err != nil {
		return ctrlNext, Value{}, err
	}
	iv := fr.at(s.ID, s.Slot)
	if iv == nil {
		return ctrlNext, Value{}, fr.unresolved(s.Pos(), s.Var, s.Slot)
	}

	if !s.Parallel {
		for k := from; k <= to; k++ {
			*iv = IntVal(k)
			c, rv, err := ip.execBlock(s.Body, fr, depth)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			if c == ctrlReturn {
				return c, rv, nil
			}
			ip.charge(ip.cfg.Costs.Branch + ip.cfg.Costs.IntOp)
			// One step per trip, like while: without it an empty loop
			// body evades the MaxSteps runaway guard entirely.
			if err := ip.step(s.Pos()); err != nil {
				return ctrlNext, Value{}, err
			}
		}
		return ctrlNext, Value{}, nil
	}

	// Parallel loop.
	if ok, err := ip.forallTrips(s.Pos(), from, to); !ok {
		return ctrlNext, Value{}, err
	}
	if ip.cfg.Mode == Simulated {
		return ctrlNext, Value{}, ip.simForall(from, to, s.Pos(), func(k int64) (ctrl, error) {
			*iv = IntVal(k)
			c, _, err := ip.execBlock(s.Body, fr, depth)
			return c, err
		})
	}
	// Each iteration gets a snapshot frame from its worker's stack.
	return ctrlNext, Value{}, ip.realForall(s.Pos(), from, to, func(w *Interp, k int64) (ctrl, error) {
		nf := fr.snapshot(w)
		nf.vals[s.Slot] = IntVal(k)
		c, _, err := w.execBlock(s.Body, nf, depth)
		w.putVals(nf.vals)
		return c, err
	})
}

// forallTrips charges a parallel loop over [from, to] its trip count:
// one step an iteration, what a serial for pays per trip, but in one
// piece and at entry — in both modes, on every engine, before anything
// sized by the range is allocated or scheduled. A range the room left
// cannot cover therefore fails at once, having run nothing. The charge
// is published, so a scheduler's forks mark against the true total. It
// reports whether there are iterations to run; false with a nil error
// is an empty range, which costs nothing and joins no barrier.
func (ip *Interp) forallTrips(pos lang.Pos, from, to int64) (bool, error) {
	if to < from {
		return false, nil
	}
	n := to - from + 1 // wraps to <= 0 on a range wider than an int64
	if n <= 0 || n > ip.room() {
		return false, fmt.Errorf("%s: interp: step limit exceeded (%d)", pos, ip.maxSteps)
	}
	if ip.trace != nil {
		ip.trace(pos, n)
	}
	ip.stepsLocal += n
	if err := ip.publish(pos); err != nil {
		return false, err
	}
	return true, nil
}

// forallWindow is the most iterations a Real-mode forall runs between
// two looks at the cancellation signal, and the most a ForallScheduler
// is handed in one call: scheduledWindow's per-iteration output buffers
// and ledger are bounded by it, not by the loop's range. Strips the
// planner emits are at most 128 wide (transform.DefaultWidth) and always
// fit one window.
const forallWindow = 4096

// realForall runs the Real-mode iterations [from, to] of a parallel
// loop, a window at a time, each window one barrier: through the
// installed scheduler, or — with none, which is every fork's case, so a
// nested forall stays on its worker — in place on this interpreter, in
// index order, stopping at the first failing iteration. body is the
// engine's iteration body — private frame, run on worker w — the same
// closure either way, which is what makes Run and parexec.Run the same
// program with and without a pool.
func (ip *Interp) realForall(pos lang.Pos, from, to int64, body func(w *Interp, k int64) (ctrl, error)) error {
	// run is one whole iteration on w: the body, the ban on returning
	// out of a forall, and the publish of what it left unpublished (so a
	// worker's charges are exact whenever an iteration ends).
	run := func(w *Interp, k int64) error {
		c, err := body(w, k)
		if err == nil && c == ctrlReturn {
			err = fmt.Errorf("%s: interp: return inside forall is not allowed", pos)
		}
		if w.stepsLocal > 0 {
			if perr := w.publish(pos); err == nil {
				err = perr
			}
		}
		return err
	}
	for lo := from; ; lo += forallWindow {
		hi := to
		if to-lo >= forallWindow {
			hi = lo + forallWindow - 1
		}
		ip.sh.barriers.Add(1)
		var err error
		if ip.cfg.Forall != nil {
			err = ip.scheduledWindow(pos, lo, hi, run)
		} else {
			// k == hi ends the loop, not k > hi: hi may be the largest int64.
			for k := lo; ; k++ {
				if err = run(ip, k); err != nil || k == hi {
					break
				}
			}
		}
		if err != nil || hi == to {
			return err
		}
		if ip.ctx != nil {
			if err := ip.ctx.Err(); err != nil {
				return fmt.Errorf("%s: interp: run cancelled: %v", pos, err)
			}
		}
	}
}

// iterCost is what one scheduled iteration charged to the shared
// counters, and how it ended.
type iterCost struct {
	steps, allocs int64
	err           error
}

// scheduledWindow hands one window to the scheduler and leaves what the
// in-place loop would have left. A scheduler runs the iterations in any
// order, concurrently, so iterations past the first failing index —
// which a serial run never reaches — may have executed before the
// failure was known. Each iteration prints into a buffer of its own and
// writes what it charged and its error into its slot of the ledger
// (each buffer and slot is written by the one worker that runs that
// iteration). At the barrier the buffers are flushed in index order up
// to and including the first failing iteration — what it printed before
// it failed is the last output flushed — the later iterations' steps
// and allocations are taken back out, and the failing iteration's error
// is the window's. Each iteration marks against the total as it starts
// (forallTrips published the root's), so one-at-a-time scheduling fails
// on the serial run's statement — except on a pool of several PEs,
// where siblings move the total unseen and such a mark would fail at a
// statement that depends on their timing: there an iteration starts a
// chunk of its own ahead, and one shorter than a chunk fails, if at
// all, at its end.
func (ip *Interp) scheduledWindow(pos lang.Pos, lo, hi int64, run func(w *Interp, k int64) error) error {
	n := int(hi - lo + 1)
	if cap(ip.costs) < n {
		ip.costs = make([]iterCost, n)
	}
	for len(ip.bufs) < n {
		ip.bufs = append(ip.bufs, new(bytes.Buffer))
	}
	costs, bufs := ip.costs[:n], ip.bufs[:n]
	clear(costs)
	beside := ip.cfg.PEs > 1
	serr := ip.cfg.Forall(pos, lo, hi, func(w *Interp, k int64) error {
		i := k - lo
		steps, allocs, out := w.ownSteps, w.ownAllocs, w.out
		w.out = bufs[i]
		if beside {
			w.stepMark = w.stepsLocal + stepFlushChunk
		} else {
			w.markSteps(w.sh.steps.Load())
		}
		err := run(w, k)
		w.out = out
		costs[i] = iterCost{w.ownSteps - steps, w.ownAllocs - allocs, err}
		return err
	})
	first := 0
	for first < n && costs[first].err == nil {
		first++
	}
	ran := min(first+1, n) // the iterations a serial run reaches
	var steps, allocs int64
	for _, c := range costs[ran:] {
		steps += c.steps
		allocs += c.allocs
	}
	ip.markSteps(ip.sh.steps.Add(-steps))
	ip.sh.allocs.Add(-allocs)
	ip.outMu.Lock()
	for _, b := range bufs[:ran] {
		if b.Len() > 0 {
			_, _ = ip.out.Write(b.Bytes()) // as in printLine, a writer error does not stop the run
		}
	}
	ip.outMu.Unlock()
	for _, b := range bufs {
		b.Reset()
	}
	if first < n {
		return costs[first].err
	}
	return serr
}

// simForall executes a simulated parallel loop's iterations
// sequentially, assigning them to PEs and charging elapsed =
// max(PE busy time) + barrier: the Sequent model's forall accounting
// (PE mapping, per-iteration cycle rewind, barrier charge). runIter is
// the walker's iteration body.
func (ip *Interp) simForall(from, to int64, pos lang.Pos, runIter func(k int64) (ctrl, error)) error {
	n := int(to - from + 1)
	pes := ip.cfg.PEs
	// With no PE count every iteration has a PE to itself, and the
	// busiest PE is the longest iteration: no per-PE table to allocate.
	var busy []int64
	if pes > 0 {
		busy = make([]int64, pes)
	} else {
		pes = n
	}
	maxBusy := int64(0)
	outerCycles := ip.cycles
	for k := from; ; k++ {
		var pe int
		switch ip.cfg.Sched {
		case Block:
			chunk := (n + pes - 1) / pes
			pe = int(k-from) / chunk
		default: // Cyclic
			pe = int(k-from) % pes
		}
		if pe >= pes {
			pe = pes - 1
		}
		// Run the iteration, measuring its cycle delta.
		start := ip.cycles
		c, err := runIter(k)
		if err != nil {
			return err
		}
		if c == ctrlReturn {
			return fmt.Errorf("%s: interp: return inside forall is not allowed", pos)
		}
		if d := ip.cycles - start; busy == nil {
			maxBusy = max(maxBusy, d)
		} else {
			busy[pe] += d
		}
		ip.cycles = start // rewind; we charge max at the end
		if k == to {      // not k <= to in the header: to may be the largest int64
			break
		}
	}
	for _, b := range busy {
		maxBusy = max(maxBusy, b)
	}
	ip.cycles = outerCycles + maxBusy + ip.cfg.Costs.Barrier
	ip.work += ip.cfg.Costs.Barrier // busy time was already added to work
	ip.sh.barriers.Add(1)
	return nil
}

// ---------------------------------------------------------------------------
// Expressions
//
// Every expression evaluates at the static type lang.Check recorded on
// it (e.Type()), as the VM's register banks do: evalInt, evalReal,
// evalBool and evalPtr return unboxed Go values, and an int operand of a
// real operation widens where it is consumed, in evalReal. A Value is
// built only where one is stored — a frame slot, a node field, a call
// argument, a return, a print argument — by eval, at the type of the
// place it goes.

// eval evaluates e and boxes it at t, the static type of the place its
// value is stored (an int widens to a real place).
func (ip *Interp) eval(e lang.Expr, t lang.Type, fr frame, depth int) (Value, error) {
	switch t := t.(type) {
	case *lang.Pointer:
		n, err := ip.evalPtr(e, fr, depth)
		return PtrVal(n), err
	case *lang.Scalar:
		switch t.Kind {
		case lang.KindInt:
			i, err := ip.evalInt(e, fr, depth)
			return IntVal(i), err
		case lang.KindReal:
			f, err := ip.evalReal(e, fr, depth)
			return RealVal(f), err
		case lang.KindBool:
			b, err := ip.evalBool(e, fr, depth)
			return BoolVal(b), err
		}
	}
	// A place of a type no value has takes e at its own type.
	if et := e.Type(); et != nil && !lang.TypeEq(et, t) {
		return ip.eval(e, et, fr, depth)
	}
	return Value{}, unknownExpr(e)
}

func unknownExpr(e lang.Expr) error {
	return fmt.Errorf("%s: interp: unknown expression %T", e.Pos(), e)
}

// is reports whether t is the scalar type of kind k.
func is(t lang.Type, k lang.ScalarKind) bool {
	s, ok := t.(*lang.Scalar)
	return ok && s.Kind == k
}

func isReal(t lang.Type) bool { return is(t, lang.KindReal) }

func isPtr(t lang.Type) bool {
	_, ok := t.(*lang.Pointer)
	return ok
}

// evalInt evaluates a statically-int e.
func (ip *Interp) evalInt(e lang.Expr, fr frame, depth int) (int64, error) {
	switch e := e.(type) {
	case *lang.IntLit:
		return e.Val, nil
	case *lang.Ident:
		v, err := ip.read(e, fr)
		if err != nil {
			return 0, err
		}
		return v.I, nil
	case *lang.FieldExpr:
		w, err := ip.data(e, fr, depth)
		return int64(w), err
	case *lang.BinExpr:
		return ip.intBin(e, fr, depth)
	case *lang.UnExpr:
		x, err := ip.evalInt(e.X, fr, depth)
		if err != nil {
			return 0, err
		}
		ip.charge(ip.cfg.Costs.IntOp)
		return -x, nil
	case *lang.CallExpr:
		v, err := ip.evalCall(e, fr, depth)
		return v.I, err
	}
	return 0, unknownExpr(e)
}

// evalReal evaluates a statically-real e, or widens a statically-int
// one: an int operand is computed as an int, then converted.
func (ip *Interp) evalReal(e lang.Expr, fr frame, depth int) (float64, error) {
	switch e := e.(type) {
	case *lang.RealLit:
		return e.Val, nil
	case *lang.IntLit:
		return float64(e.Val), nil
	case *lang.Ident:
		if isReal(e.Type()) {
			v, err := ip.read(e, fr)
			if err != nil {
				return 0, err
			}
			return v.F, nil
		}
	case *lang.FieldExpr:
		if isReal(e.Type()) {
			w, err := ip.data(e, fr, depth)
			return math.Float64frombits(w), err
		}
	case *lang.BinExpr:
		if isReal(e.Type()) {
			return ip.realBin(e, fr, depth)
		}
	case *lang.UnExpr:
		if isReal(e.Type()) {
			x, err := ip.evalReal(e.X, fr, depth)
			if err != nil {
				return 0, err
			}
			ip.charge(ip.cfg.Costs.RealOp)
			return -x, nil
		}
	case *lang.CallExpr:
		if ip.callee(e) == nil {
			return ip.builtin(e, fr, depth)
		}
		if isReal(e.Type()) {
			v, err := ip.evalCall(e, fr, depth)
			return v.F, err
		}
	}
	i, err := ip.evalInt(e, fr, depth)
	return float64(i), err
}

// evalBool evaluates a statically-bool e.
func (ip *Interp) evalBool(e lang.Expr, fr frame, depth int) (bool, error) {
	switch e := e.(type) {
	case *lang.BoolLit:
		return e.Val, nil
	case *lang.Ident:
		v, err := ip.read(e, fr)
		if err != nil {
			return false, err
		}
		return v.B, nil
	case *lang.FieldExpr:
		w, err := ip.data(e, fr, depth)
		return w != 0, err
	case *lang.BinExpr:
		return ip.boolBin(e, fr, depth)
	case *lang.UnExpr:
		x, err := ip.evalBool(e.X, fr, depth)
		if err != nil {
			return false, err
		}
		ip.charge(ip.cfg.Costs.IntOp)
		return !x, nil
	case *lang.CallExpr:
		v, err := ip.evalCall(e, fr, depth)
		return v.B, err
	}
	return false, unknownExpr(e)
}

// evalPtr evaluates a statically-pointer e.
func (ip *Interp) evalPtr(e lang.Expr, fr frame, depth int) (*Node, error) {
	switch e := e.(type) {
	case *lang.Ident:
		v, err := ip.read(e, fr)
		if err != nil {
			return nil, err
		}
		return v.N, nil
	case *lang.NullLit:
		return nil, nil
	case *lang.NewExpr:
		if e.Decl == nil {
			return nil, fmt.Errorf("interp: new of unknown type %q", e.TypeName)
		}
		return ip.allocNode(e.Decl)
	case *lang.FieldExpr:
		node, err := ip.evalPtr(e.X, fr, depth)
		if err != nil || node == nil {
			// Speculative traversability (§3.2): walking a pointer
			// field past the end of a structure yields NULL.
			return nil, err
		}
		ip.charge(ip.cfg.Costs.FieldLoad)
		elem, err := ip.elem(e.Pos(), node, e, fr, depth)
		if err != nil {
			return nil, err
		}
		return *elem, nil
	case *lang.CallExpr:
		v, err := ip.evalCall(e, fr, depth)
		return v.N, err
	}
	return nil, unknownExpr(e)
}

// read returns the variable an identifier names, charging the access.
func (ip *Interp) read(id *lang.Ident, fr frame) (*Value, error) {
	v := fr.at(id.ID, id.Slot)
	if v == nil {
		return nil, fr.unresolved(id.Pos(), id.Name, id.Slot)
	}
	ip.charge(ip.cfg.Costs.VarAccess)
	return v, nil
}

// data returns the word of the data field a scalar access e reads,
// charging the load: the base is evaluated first, and a NULL base is an
// error.
func (ip *Interp) data(e *lang.FieldExpr, fr frame, depth int) (uint64, error) {
	node, err := ip.evalPtr(e.X, fr, depth)
	if err != nil {
		return 0, err
	}
	if node == nil {
		return 0, fmt.Errorf("%s: interp: field %s read through NULL pointer", e.Pos(), e.Field)
	}
	ip.charge(ip.cfg.Costs.FieldLoad)
	if e.Type() == nil || uint(e.Off) >= uint(len(node.words)) {
		return 0, fmt.Errorf("%s: interp: %s has no data field %q", e.Pos(), node.decl.Name, e.Field)
	}
	return node.words[e.Off], nil
}

// elem evaluates the index of a pointer access e on node (none is
// element 0) and returns that element of the field, or the range error
// raised at pos.
func (ip *Interp) elem(pos lang.Pos, node *Node, e *lang.FieldExpr, fr frame, depth int) (**Node, error) {
	idx := int64(0)
	if e.Index != nil {
		var err error
		if idx, err = ip.evalInt(e.Index, fr, depth); err != nil {
			return nil, err
		}
	}
	var arr []*Node
	if uint(e.Off) < uint(len(node.parr)) {
		arr = node.parr[e.Off]
	}
	if idx < 0 || idx >= int64(len(arr)) {
		return nil, fmt.Errorf("%s: interp: index %d out of range for %s.%s[%d]", pos, idx, node.decl.Name, e.Field, len(arr))
	}
	return &arr[idx], nil
}

// intBin evaluates an int arithmetic e: both operands, then the divisor
// check.
func (ip *Interp) intBin(e *lang.BinExpr, fr frame, depth int) (int64, error) {
	a, err := ip.evalInt(e.X, fr, depth)
	if err != nil {
		return 0, err
	}
	b, err := ip.evalInt(e.Y, fr, depth)
	if err != nil {
		return 0, err
	}
	ip.charge(ip.cfg.Costs.IntOp)
	switch e.Op {
	case lang.PLUS:
		return a + b, nil
	case lang.MINUS:
		return a - b, nil
	case lang.STAR:
		return a * b, nil
	case lang.SLASH:
		if b == 0 {
			return 0, fmt.Errorf("%s: interp: integer division by zero", e.Pos())
		}
		return a / b, nil
	case lang.PERCENT:
		if b == 0 {
			return 0, fmt.Errorf("%s: interp: integer modulo by zero", e.Pos())
		}
		return a % b, nil
	}
	return 0, fmt.Errorf("%s: interp: bad int op %s", e.Pos(), e.Op)
}

// realBin evaluates a real arithmetic e.
func (ip *Interp) realBin(e *lang.BinExpr, fr frame, depth int) (float64, error) {
	a, err := ip.evalReal(e.X, fr, depth)
	if err != nil {
		return 0, err
	}
	b, err := ip.evalReal(e.Y, fr, depth)
	if err != nil {
		return 0, err
	}
	ip.charge(ip.cfg.Costs.RealOp)
	switch e.Op {
	case lang.PLUS:
		return a + b, nil
	case lang.MINUS:
		return a - b, nil
	case lang.STAR:
		return a * b, nil
	case lang.SLASH:
		return a / b, nil
	}
	return 0, fmt.Errorf("%s: interp: bad real op %s", e.Pos(), e.Op)
}

// boolBin evaluates a logic operator or a comparison, at its operands'
// static types as the VM lowers it: pointers (NULL has the other side's
// type), strings or bools, then numbers — real if either side is.
func (ip *Interp) boolBin(e *lang.BinExpr, fr frame, depth int) (bool, error) {
	if e.Op == lang.AND || e.Op == lang.OR {
		x, err := ip.evalBool(e.X, fr, depth)
		if err != nil {
			return false, err
		}
		ip.charge(ip.cfg.Costs.IntOp)
		if x == (e.Op == lang.OR) {
			return x, nil
		}
		return ip.evalBool(e.Y, fr, depth)
	}
	xt, yt := e.X.Type(), e.Y.Type()
	switch {
	case isPtr(xt) || isPtr(yt):
		x, err := ip.evalPtr(e.X, fr, depth)
		if err != nil {
			return false, err
		}
		y, err := ip.evalPtr(e.Y, fr, depth)
		if err != nil {
			return false, err
		}
		ip.charge(ip.cfg.Costs.IntOp)
		return equal(e, x == y, "pointer")
	case is(xt, lang.KindBool) && is(yt, lang.KindBool):
		x, err := ip.eval(e.X, xt, fr, depth)
		if err != nil {
			return false, err
		}
		y, err := ip.eval(e.Y, yt, fr, depth)
		if err != nil {
			return false, err
		}
		ip.charge(ip.cfg.Costs.IntOp)
		return equal(e, x == y, xt.String())
	case isReal(xt) || isReal(yt):
		a, err := ip.evalReal(e.X, fr, depth)
		if err != nil {
			return false, err
		}
		b, err := ip.evalReal(e.Y, fr, depth)
		if err != nil {
			return false, err
		}
		ip.charge(ip.cfg.Costs.RealOp)
		return compare(e, a, b, "real")
	}
	a, err := ip.evalInt(e.X, fr, depth)
	if err != nil {
		return false, err
	}
	b, err := ip.evalInt(e.Y, fr, depth)
	if err != nil {
		return false, err
	}
	ip.charge(ip.cfg.Costs.IntOp)
	return compare(e, a, b, "int")
}

// equal is the equality test e of two operands, given whether they are
// equal.
func equal(e *lang.BinExpr, eq bool, what string) (bool, error) {
	switch e.Op {
	case lang.EQ:
		return eq, nil
	case lang.NEQ:
		return !eq, nil
	}
	return false, fmt.Errorf("%s: interp: bad %s op %s", e.Pos(), what, e.Op)
}

// compare is the numeric comparison e of a and b.
func compare[T int64 | float64](e *lang.BinExpr, a, b T, what string) (bool, error) {
	switch e.Op {
	case lang.EQ:
		return a == b, nil
	case lang.NEQ:
		return a != b, nil
	case lang.LT:
		return a < b, nil
	case lang.LE:
		return a <= b, nil
	case lang.GT:
		return a > b, nil
	case lang.GE:
		return a >= b, nil
	}
	return false, fmt.Errorf("%s: interp: bad %s op %s", e.Pos(), what, e.Op)
}

// evalCall runs a call for its boxed result: a function's (its return
// boxed it at the result type), print's zero Value, or a builtin's.
func (ip *Interp) evalCall(e *lang.CallExpr, fr frame, depth int) (Value, error) {
	f := ip.callee(e)
	if f == nil {
		if e.Func == "print" {
			return Value{}, ip.print(e, fr, depth)
		}
		x, err := ip.builtin(e, fr, depth)
		return RealVal(x), err
	}
	// The arguments are evaluated into the callee's frame, at its
	// parameters' types, off the walker's frame stack.
	args := ip.getVals(max(len(e.Args), len(f.Vars)))
	defer ip.putVals(args)
	for i, a := range e.Args {
		v, err := ip.eval(a, f.Params[i].Type, fr, depth)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return ip.callFunc(f, args, depth+1)
}

// callee is the function a call runs, or nil for a builtin.
func (ip *Interp) callee(e *lang.CallExpr) *lang.FuncDecl {
	if e.Callee > 0 && int(e.Callee) <= len(ip.prog.Funcs) {
		return ip.prog.Funcs[e.Callee-1]
	}
	return nil
}

// builtin runs one of the real-valued builtins.
func (ip *Interp) builtin(e *lang.CallExpr, fr frame, depth int) (float64, error) {
	switch e.Func {
	case "sqrt", "abs":
		x, err := ip.evalReal(e.Args[0], fr, depth)
		if err != nil {
			return 0, err
		}
		if e.Func == "abs" {
			ip.charge(ip.cfg.Costs.RealOp)
			return math.Abs(x), nil
		}
		ip.charge(ip.cfg.Costs.Sqrt)
		return math.Sqrt(x), nil
	case "rand":
		ip.charge(ip.cfg.Costs.RealOp)
		return ip.rand(), nil
	}
	return 0, fmt.Errorf("%s: interp: call to unknown function %q", e.Pos(), e.Func)
}

// print renders print's arguments, a string literal as its text and
// any other argument evaluated at its own type, and prints them.
func (ip *Interp) print(e *lang.CallExpr, fr frame, depth int) error {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		if s, ok := a.(*lang.StrLit); ok {
			args[i] = s.Val
			continue
		}
		v, err := ip.eval(a, a.Type(), fr, depth)
		if err != nil {
			return err
		}
		args[i] = v.String()
	}
	return ip.printLine(e.Pos(), args)
}

// allocNode builds a fresh record: one zero word per data field and
// one NULL slot per pointer, the slots of every pointer field cut from
// one backing array. The MaxAllocs budget is checked on the shared
// counter, so parallel iterations draw from one pool and the failing
// allocation is deterministic in serial runs.
func (ip *Interp) allocNode(decl *adds.Decl) (*Node, error) {
	ip.charge(ip.cfg.Costs.Alloc)
	ip.ownAllocs++
	if n := ip.sh.allocs.Add(1); ip.maxAllocs > 0 && n > ip.maxAllocs {
		return nil, fmt.Errorf("interp: allocation limit exceeded (%d)", ip.maxAllocs)
	}
	n := &Node{
		decl:  decl,
		words: make([]uint64, len(decl.Data)),
		parr:  make([][]*Node, len(decl.Pointers)),
		id:    ip.sh.nextID.Add(1),
	}
	slots := 0
	for _, pf := range decl.Pointers {
		slots += pf.Count
	}
	back := make([]*Node, slots)
	for i, pf := range decl.Pointers {
		n.parr[i], back = back[:pf.Count:pf.Count], back[pf.Count:]
	}
	return n, nil
}

// printLine joins print() arguments' text the one way every engine
// must (space-separated, newline-terminated) and writes the line under
// the output lock. The MaxOutputBytes budget is charged on the shared
// counter before writing, so a run over budget fails without emitting
// the overflowing line; underlying writer errors are ignored, as they
// always were — only the byte budget aborts execution.
func (ip *Interp) printLine(pos lang.Pos, args []string) error {
	line := strings.Join(args, " ") + "\n"
	if ip.maxOutput > 0 && ip.sh.outBytes.Add(int64(len(line))) > ip.maxOutput {
		return fmt.Errorf("%s: interp: output limit exceeded (%d bytes)", pos, ip.maxOutput)
	}
	ip.outMu.Lock()
	io.WriteString(ip.out, line)
	ip.outMu.Unlock()
	return nil
}

// ---------------------------------------------------------------------------
// Heap inspection helpers (used by tests and examples)

// Field reads any data field of a node as a Value, decoding its word at
// the field's declared type.
func Field(v Value, field string) (Value, error) {
	if v.N == nil {
		return Value{}, fmt.Errorf("interp: Field on NULL")
	}
	i := v.N.decl.DataIndex(field)
	if i < 0 {
		return Value{}, fmt.Errorf("interp: no field %q", field)
	}
	switch w := v.N.words[i]; v.N.decl.Data[i].Type {
	case "real":
		return RealVal(math.Float64frombits(w)), nil
	case "bool":
		return BoolVal(w != 0), nil
	default:
		return IntVal(int64(w)), nil
	}
}

// FieldReal reads a real data field of a node; an int field widens.
func FieldReal(v Value, field string) (float64, error) {
	fv, err := Field(v, field)
	if fv.Kind == KindInt {
		return float64(fv.I), err
	}
	return fv.F, err
}

// FieldPtr reads a pointer field (index 0) of a node.
func FieldPtr(v Value, field string) (Value, error) {
	if v.N == nil {
		return Value{}, fmt.Errorf("interp: FieldPtr on NULL")
	}
	i := v.N.decl.PointerIndex(field)
	if i < 0 || len(v.N.parr[i]) == 0 {
		return Value{}, fmt.Errorf("interp: no pointer field %q", field)
	}
	return PtrVal(v.N.parr[i][0]), nil
}
