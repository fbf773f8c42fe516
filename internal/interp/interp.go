// Package interp executes checked, normalized PSL programs. It is the
// semantic reference for the whole reproduction, and it is serial: an
// interpreter runs on the goroutine that calls it and starts no other.
// Parallelism lives in package parexec, which installs the Forall hook
// and runs forall iterations on its pool of PEs; without the hook a
// forall's iterations run in place, in index order. Package sequent
// replays runs on the 1992 machine model through Simulated mode.
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
// unguarded FOR1/FOR2 advances rely on it; StrictNull disables it for
// tests); runtime shape checks against ADDS declarations are §2.2;
// Simulated mode's cost accounting (max-over-PEs per forall plus a
// barrier, CostModel cycles) implements the §4.4 measurement setup,
// with Scheduling choosing the §4.3.3 static iteration→PE mapping.
package interp

import (
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
)

// Engine selects the execution engine behind Run and Interp.Call.
type Engine int

// Execution engines. EngineKernel is the zero value, so it is what
// every empty Config, RunConfig and parexec.Options resolves to, and
// what every POST /run but "engine": "walk" runs (serve.ParseEngine);
// the other two are explicit opt-ins of Go callers.
const (
	// EngineKernel is the bytecode VM plus the SPMD vector path: strips
	// the classifier proved vectorizable (ForallSite.Kernel != nil)
	// execute as batched struct-of-arrays kernels — fields gathered
	// into flat slabs, the body run as fused whole-slab operations with
	// execution masks, results scattered back at the barrier.
	// Everything else (and every fallback: faults, step-budget
	// pressure, StrictNull runs) executes on the bytecode VM, so
	// results, output, accounting, and error text stay bit-identical to
	// the other engines.
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
	Mode   Mode
	Sched  Scheduling
	PEs    int // simulated PE count (0: one PE per iteration)
	Costs  CostModel
	Output io.Writer
	Seed   uint64
	// MaxSteps bounds executed statements (0 = default guard). A serial
	// for pays one step per trip; a forall pays its whole trip count at
	// entry, so a range larger than the remaining budget fails before
	// anything runs or is allocated.
	MaxSteps   int64
	MaxDepth   int  // 0 = default (4096)
	StrictNull bool // disable speculative traversability (for tests)
	// Ctx, if non-nil, cancels the run: a deadline or explicit cancel
	// makes Call return an error. Every engine polls it on the step
	// path, at stepFlushChunk granularity, so a runaway loop is cut
	// within a few hundred statements. The sandbox budgets below plus
	// Ctx are what the serving layer (internal/serve) relies on to run
	// untrusted programs.
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
	// ShapeWalkLimit bounds the cycle-check walk (0 = 100000 nodes).
	ShapeWalkLimit int
	// Forall, if non-nil and Mode == Real, schedules every parallel
	// forall instead of running its iterations in place. It receives the
	// inclusive iteration bounds and a run function that executes one
	// iteration on the given worker interpreter (obtain workers with
	// Fork). Forks clear this hook, so a forall nested inside a
	// scheduled iteration runs in place on that iteration's worker
	// rather than re-entering the scheduler.
	Forall ForallScheduler
	// Strip, if non-nil and Engine == EngineKernel, schedules the
	// gather/compute/scatter phases of each vectorized strip instead of
	// the inline serial execution — parexec installs it to count the
	// strip as a barrier and time its phases for the profiler. Forks
	// clear this hook along with Forall.
	Strip StripScheduler
}

// ForallScheduler executes the iterations [from, to] of a parallel
// loop, calling run(w, k) exactly once per k on a worker interpreter w.
// run is safe to call from multiple goroutines concurrently as long as
// each call gets its own worker. The scheduler must not return before
// every iteration has completed (it is the loop's barrier). pos is the
// source position of the forall — for loops generated by strip-mining
// it is the original loop's position — so profilers can key
// measurements to the planner's loop table. The range is never empty
// and its trip count has been charged to the step budget, so
// to - from + 1 fits an int64 and is at most MaxSteps.
type ForallScheduler func(pos lang.Pos, from, to int64, run func(w *Interp, k int64) error) error

// StripScheduler executes one vectorized strip. Gather must run first
// (serially — it walks the pointer chain and fills the slabs), then
// Compute over disjoint lane sub-ranges (safe to call concurrently on
// different ranges), then Scatter (serially — it commits the strip's
// step accounting and writes the stored fields back). lanes is the
// strip width; pos is the forall's source position (the planner's
// key). Any error aborts the strip: the interpreter falls back to the
// scalar path, which re-executes the strip from unmodified heap state
// (Scatter is the only phase that writes it).
type StripScheduler func(pos lang.Pos, lanes int, s KernelStrip) error

// KernelStrip is one vectorized strip's phase closures, handed to a
// StripScheduler. The closures belong to the interpreter and are
// rebound on its next strip: a scheduler must not retain them past its
// return.
type KernelStrip struct {
	Gather  func() error
	Compute func(lo, hi int) error // lane range [lo, hi)
	Scatter func() error
}

// Stats reports execution counters.
type Stats struct {
	Cycles      int64 // elapsed simulated cycles (Simulated mode)
	WorkCycles  int64 // total work including all PEs
	Steps       int64
	Allocations int64
	Barriers    int64
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
	cycles   int64
	work     int64
	barriers int64

	maxSteps  int64
	maxDepth  int
	maxAllocs int64
	maxOutput int64
	// ctx is the optional cancellation signal (Config.Ctx), polled at
	// stepFlushChunk granularity on the walker's and the VM's step paths.
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
	// slab storage and the phase closures, lazily built on the first
	// vectorized strip.
	kern *kernState
	// stepsLocal batches the bytecode VM's statement count between
	// flushes to the shared atomic (each Interp executes on one
	// goroutine at a time, so the field needs no synchronization).
	stepsLocal int64
	// ownSteps and ownAllocs are what this interpreter itself — not its
	// parent or sibling forks — has added to the shared step and
	// allocation counters: the difference across one forall iteration
	// is what that iteration cost (see scheduledWindow).
	ownSteps, ownAllocs int64
	// costs is scheduledWindow's per-iteration ledger, reused from one
	// window to the next.
	costs []iterCost
	// cdepth is the bytecode VM's live call depth.
	cdepth int
}

// state holds the counters an interpreter shares with its forks.
type state struct {
	rngState uint64

	steps    atomic.Int64
	allocs   atomic.Int64
	nextID   atomic.Int64
	outBytes atomic.Int64

	shapeMu  sync.Mutex
	shapeLog []ShapeViolation
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
	return ip
}

// Fork returns a worker interpreter over the same program, sharing the
// parent's counters, RNG, and shape-check log. If out is non-nil the
// fork prints there through its own mutex (the parallel executor hands
// each iteration a private buffer and merges them deterministically);
// with nil it shares the parent's writer and lock. The fork drops the
// parent's Forall scheduler, so a parallel loop nested inside the
// iteration a fork is running executes in place on that fork — in
// index order, on its worker — and cannot re-enter the pool that is
// running it. A fork must execute at most one call at a time.
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
	nf.cfg.Strip = nil
	if out != nil {
		nf.out = out
		nf.outMu = &sync.Mutex{}
	}
	return nf
}

// SetOutput redirects this interpreter's print() stream (nil discards).
// Not safe to call while the interpreter is executing; it exists for
// worker loops that swap in a fresh buffer between tasks.
func (ip *Interp) SetOutput(out io.Writer) {
	if out == nil {
		out = io.Discard
	}
	ip.out = out
}

// Stats returns execution counters so far.
func (ip *Interp) Stats() Stats {
	return Stats{
		Cycles:      ip.cycles,
		WorkCycles:  ip.work,
		Steps:       ip.sh.steps.Load(),
		Allocations: ip.sh.allocs.Load(),
		Barriers:    ip.barriers,
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
		if ferr := ip.flushSteps(f.Pos()); err == nil && ferr != nil {
			err = ferr
		}
		return v, err
	}
	return ip.callFunc(f, args, 0)
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

func (ip *Interp) step(pos lang.Pos) error {
	n := ip.addSteps(1)
	if n > ip.maxSteps {
		return fmt.Errorf("%s: interp: step limit exceeded (%d)", pos, ip.maxSteps)
	}
	// Poll cancellation at the same granularity the bytecode VM does
	// (flushSteps): every stepFlushChunk statements.
	if ip.ctx != nil && n&(stepFlushChunk-1) == 0 {
		if err := ip.ctx.Err(); err != nil {
			return fmt.Errorf("%s: interp: run cancelled: %v", pos, err)
		}
	}
	return nil
}

// stepFlushChunk is how many bytecode-VM statements run between
// flushes of the local step count to the shared atomic. Batching keeps
// the hot loop off the shared cache line (which parallel workers would
// otherwise contend on every statement); the step limit is still
// enforced, at chunk granularity. This is the one intentional
// accounting difference from the walker, which bumps the shared counter
// per statement: totals are identical at every quiescent point (Call
// return, forall iteration end); only the instant at which a MaxSteps
// overrun is detected moves by up to one chunk.
const stepFlushChunk = 256

// stepC is the bytecode VM's per-statement accounting.
func (ip *Interp) stepC(pos lang.Pos) error {
	ip.stepsLocal++
	if ip.stepsLocal >= stepFlushChunk {
		return ip.flushSteps(pos)
	}
	return nil
}

// flushSteps publishes the batched statement count. The shared total
// is exact whenever an Interp is quiescent (Call returned, or a
// parallel iteration completed), which is when Stats is read.
func (ip *Interp) flushSteps(pos lang.Pos) error {
	if ip.stepsLocal == 0 {
		return nil
	}
	n := ip.stepsLocal
	ip.stepsLocal = 0
	if ip.addSteps(n) > ip.maxSteps {
		return fmt.Errorf("%s: interp: step limit exceeded (%d)", pos, ip.maxSteps)
	}
	if ip.ctx != nil {
		if err := ip.ctx.Err(); err != nil {
			return fmt.Errorf("%s: interp: run cancelled: %v", pos, err)
		}
	}
	return nil
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

type frame struct {
	fn     *lang.FuncDecl
	scopes []map[string]*Value
}

func (fr *frame) push() { fr.scopes = append(fr.scopes, map[string]*Value{}) }
func (fr *frame) pop()  { fr.scopes = fr.scopes[:len(fr.scopes)-1] }

func (fr *frame) declare(name string, v Value) {
	val := v
	fr.scopes[len(fr.scopes)-1][name] = &val
}

func (fr *frame) lookup(name string) (*Value, bool) {
	for i := len(fr.scopes) - 1; i >= 0; i-- {
		if v, ok := fr.scopes[i][name]; ok {
			return v, true
		}
	}
	return nil, false
}

// snapshot returns a frame whose scopes copy the current bindings;
// parallel iterations get independent frames so concurrent variable
// writes cannot race (heap writes are the program's responsibility —
// the dependence test guarantees transformed code is race-free).
//
// Cost note: this rebuilds every scope map of the live frame on every
// forall iteration fork — the dominant allocation source of walker
// parallel runs (~330k allocs per R2 force run vs ~0.9k for the
// bytecode VM, whose register-bank fork is five slice copies; see
// DESIGN.md's R3 section and BENCH_interp.json). Kept as-is: the
// walker is the oracle, and oracles should stay simple.
func (fr *frame) snapshot() *frame {
	nf := &frame{fn: fr.fn}
	for _, sc := range fr.scopes {
		nsc := make(map[string]*Value, len(sc))
		for k, v := range sc {
			val := *v
			nsc[k] = &val
		}
		nf.scopes = append(nf.scopes, nsc)
	}
	return nf
}

// ---------------------------------------------------------------------------
// Execution

type ctrl int

const (
	ctrlNext ctrl = iota
	ctrlReturn
)

func (ip *Interp) callFunc(f *lang.FuncDecl, args []Value, depth int) (Value, error) {
	if depth > ip.maxDepth {
		return Value{}, fmt.Errorf("interp: recursion depth exceeded in %s", f.Name)
	}
	ip.charge(ip.cfg.Costs.CallOver)
	fr := &frame{fn: f}
	fr.push()
	for i, prm := range f.Params {
		fr.declare(prm.Name, coerce(args[i], prm.Type))
	}
	c, rv, err := ip.execBlock(f.Body, fr, depth)
	if err != nil {
		return Value{}, err
	}
	if c == ctrlReturn {
		if f.Result != nil {
			return coerce(rv, f.Result), nil
		}
		return Value{}, nil
	}
	if f.Result != nil {
		return Value{}, fmt.Errorf("interp: function %s fell off the end without returning", f.Name)
	}
	return Value{}, nil
}

func (ip *Interp) execBlock(b *lang.Block, fr *frame, depth int) (ctrl, Value, error) {
	fr.push()
	defer fr.pop()
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

func (ip *Interp) execStmt(s lang.Stmt, fr *frame, depth int) (ctrl, Value, error) {
	if err := ip.step(s.Pos()); err != nil {
		return ctrlNext, Value{}, err
	}
	switch s := s.(type) {
	case *lang.Block:
		return ip.execBlock(s, fr, depth)

	case *lang.VarStmt:
		v := zeroValue(s.DeclType)
		if s.Init != nil {
			iv, err := ip.eval(s.Init, fr, depth)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			v = coerce(iv, s.DeclType)
		}
		ip.charge(ip.cfg.Costs.VarAccess)
		fr.declare(s.Name, v)
		return ctrlNext, Value{}, nil

	case *lang.AssignStmt:
		return ctrlNext, Value{}, ip.execAssign(s, fr, depth)

	case *lang.WhileStmt:
		for {
			cond, err := ip.eval(s.Cond, fr, depth)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			ip.charge(ip.cfg.Costs.Branch)
			if !cond.B {
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
		cond, err := ip.eval(s.Cond, fr, depth)
		if err != nil {
			return ctrlNext, Value{}, err
		}
		ip.charge(ip.cfg.Costs.Branch)
		if cond.B {
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
		v, err := ip.eval(s.Value, fr, depth)
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

func (ip *Interp) execAssign(s *lang.AssignStmt, fr *frame, depth int) error {
	rv, err := ip.eval(s.RHS, fr, depth)
	if err != nil {
		return err
	}
	switch lhs := s.LHS.(type) {
	case *lang.Ident:
		slot, ok := fr.lookup(lhs.Name)
		if !ok {
			return fmt.Errorf("%s: interp: undefined variable %q", s.Pos(), lhs.Name)
		}
		ip.charge(ip.cfg.Costs.VarAccess)
		*slot = coerce(rv, lhs.Type())
		return nil
	case *lang.FieldExpr:
		base, err := ip.eval(lhs.X, fr, depth)
		if err != nil {
			return err
		}
		if base.N == nil {
			return fmt.Errorf("%s: interp: store through NULL pointer", s.Pos())
		}
		ip.charge(ip.cfg.Costs.FieldStore)
		node := base.N
		if _, isPtr := lang.IsPointer(lhs.Type()); isPtr {
			idx := 0
			if lhs.Index != nil {
				iv, err := ip.eval(lhs.Index, fr, depth)
				if err != nil {
					return err
				}
				idx = int(iv.I)
			}
			arr := node.ptrs(lhs.Field)
			if idx < 0 || idx >= len(arr) {
				return fmt.Errorf("%s: interp: index %d out of range for %s.%s[%d]", s.Pos(), idx, node.Type, lhs.Field, len(arr))
			}
			old := arr[idx]
			arr[idx] = rv.N
			if ip.cfg.ShapeChecks {
				return ip.checkStore(s.Pos(), node, lhs.Field, old, rv.N)
			}
			return nil
		}
		slot := node.data(lhs.Field)
		if slot == nil {
			return fmt.Errorf("%s: interp: %s has no data field %q", s.Pos(), node.Type, lhs.Field)
		}
		*slot = coerce(rv, lhs.Type())
		return nil
	}
	return fmt.Errorf("%s: interp: bad assignment target %T", s.Pos(), s.LHS)
}

func (ip *Interp) execFor(s *lang.ForStmt, fr *frame, depth int) (ctrl, Value, error) {
	fromV, err := ip.eval(s.From, fr, depth)
	if err != nil {
		return ctrlNext, Value{}, err
	}
	toV, err := ip.eval(s.To, fr, depth)
	if err != nil {
		return ctrlNext, Value{}, err
	}
	from, to := fromV.I, toV.I

	if !s.Parallel {
		for k := from; k <= to; k++ {
			fr.push()
			fr.declare(s.Var, IntVal(k))
			c, rv, err := ip.execBlock(s.Body, fr, depth)
			fr.pop()
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
			fr.push()
			fr.declare(s.Var, IntVal(k))
			c, _, err := ip.execBlock(s.Body, fr, depth)
			fr.pop()
			return c, err
		})
	}
	// Each iteration gets a snapshot frame.
	return ctrlNext, Value{}, ip.realForall(s.Pos(), from, to, func(w *Interp, k int64) (ctrl, error) {
		nf := fr.snapshot()
		nf.push()
		nf.declare(s.Var, IntVal(k))
		c, _, err := w.execBlock(s.Body, nf, depth)
		return c, err
	})
}

// forallTrips charges a parallel loop over [from, to] its trip count:
// one step an iteration, what a serial for pays per trip, but in one
// piece and at entry — in both modes, on every engine, before anything
// sized by the range is allocated or scheduled. A range the remaining
// budget cannot cover therefore fails at once, having run nothing. It
// reports whether there are iterations to run; false with a nil error
// is an empty range, which costs nothing and joins no barrier.
func (ip *Interp) forallTrips(pos lang.Pos, from, to int64) (bool, error) {
	if to < from {
		return false, nil
	}
	n := to - from + 1 // wraps to <= 0 on a range wider than an int64
	if n <= 0 || n > ip.maxSteps-ip.sh.steps.Load()-ip.stepsLocal {
		return false, fmt.Errorf("%s: interp: step limit exceeded (%d)", pos, ip.maxSteps)
	}
	ip.addSteps(n)
	return true, nil
}

// forallWindow is the most iterations a Real-mode forall runs between
// two looks at the cancellation signal, and the most a ForallScheduler
// is handed in one call: a scheduler's bookkeeping (parexec's
// per-iteration output buffers and error slots) is bounded by it, not
// by the loop's range. Strips the planner emits are at most 256 wide
// and always fit one window.
const forallWindow = 4096

// realForall runs the Real-mode iterations [from, to] of a parallel
// loop, a window at a time: through the installed scheduler, or — with
// none, which is every fork's case, so a nested forall stays on its
// worker — in place on this interpreter, in index order, stopping at
// the first failing iteration. body is the engine's iteration body —
// private frame, run on worker w — the same closure either way, which
// is what makes Run and parexec.Run the same program with and without
// a pool.
func (ip *Interp) realForall(pos lang.Pos, from, to int64, body func(w *Interp, k int64) (ctrl, error)) error {
	// run is one whole iteration on w: the body, the ban on returning
	// out of a forall, and the flush of the engine's batched step count
	// (so a worker's charges are exact whenever an iteration ends).
	run := func(w *Interp, k int64) error {
		c, err := body(w, k)
		if err == nil && c == ctrlReturn {
			err = fmt.Errorf("%s: interp: return inside forall is not allowed", pos)
		}
		if ferr := w.flushSteps(pos); err == nil {
			err = ferr
		}
		return err
	}
	for lo := from; ; lo += forallWindow {
		hi := to
		if to-lo >= forallWindow {
			hi = lo + forallWindow - 1
		}
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
// counters, and whether it failed.
type iterCost struct {
	steps, allocs int64
	failed        bool
}

// scheduledWindow hands one window to the scheduler and keeps the
// run's Stats what the in-place loop would have left. A scheduler runs
// iterations concurrently, so iterations past the first failing index
// — which a serial run never reaches — may have executed before the
// failure was known. Their output the scheduler discards; their steps
// and allocations are taken back out here. Each slot of the ledger is
// written by the one worker that runs that iteration.
func (ip *Interp) scheduledWindow(pos lang.Pos, lo, hi int64, run func(w *Interp, k int64) error) error {
	n := int(hi - lo + 1)
	if cap(ip.costs) < n {
		ip.costs = make([]iterCost, n)
	}
	costs := ip.costs[:n]
	clear(costs)
	err := ip.cfg.Forall(pos, lo, hi, func(w *Interp, k int64) error {
		steps, allocs := w.ownSteps, w.ownAllocs
		err := run(w, k)
		costs[k-lo] = iterCost{w.ownSteps - steps, w.ownAllocs - allocs, err != nil}
		return err
	})
	if err == nil {
		return nil
	}
	first := 0
	for first < n && !costs[first].failed {
		first++
	}
	var steps, allocs int64
	for _, c := range costs[min(first+1, n):] {
		steps += c.steps
		allocs += c.allocs
	}
	ip.sh.steps.Add(-steps)
	ip.sh.allocs.Add(-allocs)
	return err
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
	ip.barriers++
	return nil
}

// ---------------------------------------------------------------------------
// Expressions

func (ip *Interp) eval(e lang.Expr, fr *frame, depth int) (Value, error) {
	switch e := e.(type) {
	case *lang.Ident:
		slot, ok := fr.lookup(e.Name)
		if !ok {
			return Value{}, fmt.Errorf("%s: interp: undefined variable %q", e.Pos(), e.Name)
		}
		ip.charge(ip.cfg.Costs.VarAccess)
		return *slot, nil

	case *lang.IntLit:
		return IntVal(e.Val), nil
	case *lang.RealLit:
		return RealVal(e.Val), nil
	case *lang.StrLit:
		return StrVal(e.Val), nil
	case *lang.BoolLit:
		return BoolVal(e.Val), nil
	case *lang.NullLit:
		return NullVal(), nil

	case *lang.NewExpr:
		return ip.alloc(e.TypeName)

	case *lang.FieldExpr:
		return ip.evalField(e, fr, depth)

	case *lang.CallExpr:
		return ip.evalCall(e, fr, depth)

	case *lang.BinExpr:
		return ip.evalBin(e, fr, depth)

	case *lang.UnExpr:
		v, err := ip.eval(e.X, fr, depth)
		if err != nil {
			return Value{}, err
		}
		switch e.Op {
		case lang.MINUS:
			if v.Kind == KindInt {
				ip.charge(ip.cfg.Costs.IntOp)
				return IntVal(-v.I), nil
			}
			ip.charge(ip.cfg.Costs.RealOp)
			return RealVal(-v.F), nil
		case lang.NOT:
			ip.charge(ip.cfg.Costs.IntOp)
			return BoolVal(!v.B), nil
		}
	}
	return Value{}, fmt.Errorf("%s: interp: unknown expression %T", e.Pos(), e)
}

func (ip *Interp) alloc(typeName string) (Value, error) {
	decl := ip.prog.Universe.Decl(typeName)
	if decl == nil {
		return Value{}, fmt.Errorf("interp: new of unknown type %q", typeName)
	}
	return ip.allocNode(decl, typeName)
}

// allocNode builds a fresh record: one positional slot per declared
// field, zeroed to the field's type. The MaxAllocs budget is checked
// on the shared counter, so parallel iterations draw from one pool and
// the failing allocation is deterministic in serial runs.
func (ip *Interp) allocNode(decl *adds.Decl, typeName string) (Value, error) {
	ip.charge(ip.cfg.Costs.Alloc)
	ip.ownAllocs++
	if n := ip.sh.allocs.Add(1); ip.maxAllocs > 0 && n > ip.maxAllocs {
		return Value{}, fmt.Errorf("interp: allocation limit exceeded (%d)", ip.maxAllocs)
	}
	n := &Node{
		Type: typeName,
		decl: decl,
		vals: make([]Value, len(decl.Data)),
		parr: make([][]*Node, len(decl.Pointers)),
		id:   ip.sh.nextID.Add(1),
	}
	for i, df := range decl.Data {
		switch df.Type {
		case "real":
			n.vals[i] = RealVal(0)
		case "bool":
			n.vals[i] = BoolVal(false)
		default:
			n.vals[i] = IntVal(0)
		}
	}
	for i, pf := range decl.Pointers {
		n.parr[i] = make([]*Node, pf.Count)
	}
	return PtrVal(n), nil
}

// printLine renders print() arguments the one way every engine must
// (space-separated, newline-terminated) and writes the line under the
// output lock. The MaxOutputBytes budget is charged on the shared
// counter before writing, so a run over budget fails without emitting
// the overflowing line; underlying writer errors are ignored, as they
// always were — only the byte budget aborts execution.
func (ip *Interp) printLine(pos lang.Pos, args []Value) error {
	var b strings.Builder
	for i, a := range args {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.String())
	}
	b.WriteByte('\n')
	line := b.String()
	if ip.maxOutput > 0 && ip.sh.outBytes.Add(int64(len(line))) > ip.maxOutput {
		return fmt.Errorf("%s: interp: output limit exceeded (%d bytes)", pos, ip.maxOutput)
	}
	ip.outMu.Lock()
	io.WriteString(ip.out, line)
	ip.outMu.Unlock()
	return nil
}

func (ip *Interp) evalField(e *lang.FieldExpr, fr *frame, depth int) (Value, error) {
	base, err := ip.eval(e.X, fr, depth)
	if err != nil {
		return Value{}, err
	}
	_, isPtr := lang.IsPointer(e.Type())
	if base.N == nil {
		if isPtr && !ip.cfg.StrictNull {
			// Speculative traversability (§3.2): walking a pointer
			// field past the end of a structure yields NULL.
			return NullVal(), nil
		}
		return Value{}, fmt.Errorf("%s: interp: field %s read through NULL pointer", e.Pos(), e.Field)
	}
	ip.charge(ip.cfg.Costs.FieldLoad)
	node := base.N
	if isPtr {
		idx := 0
		if e.Index != nil {
			iv, err := ip.eval(e.Index, fr, depth)
			if err != nil {
				return Value{}, err
			}
			idx = int(iv.I)
		}
		arr := node.ptrs(e.Field)
		if idx < 0 || idx >= len(arr) {
			return Value{}, fmt.Errorf("%s: interp: index %d out of range for %s.%s[%d]", e.Pos(), idx, node.Type, e.Field, len(arr))
		}
		return PtrVal(arr[idx]), nil
	}
	v := node.data(e.Field)
	if v == nil {
		return Value{}, fmt.Errorf("%s: interp: %s has no data field %q", e.Pos(), node.Type, e.Field)
	}
	return *v, nil
}

func (ip *Interp) evalCall(e *lang.CallExpr, fr *frame, depth int) (Value, error) {
	args := make([]Value, len(e.Args))
	for i, a := range e.Args {
		v, err := ip.eval(a, fr, depth)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	switch e.Func {
	case "sqrt":
		ip.charge(ip.cfg.Costs.Sqrt)
		return RealVal(math.Sqrt(args[0].AsReal())), nil
	case "abs":
		ip.charge(ip.cfg.Costs.RealOp)
		return RealVal(math.Abs(args[0].AsReal())), nil
	case "rand":
		ip.charge(ip.cfg.Costs.RealOp)
		return RealVal(ip.rand()), nil
	case "print":
		return Value{}, ip.printLine(e.Pos(), args)
	}
	f := ip.prog.Func(e.Func)
	if f == nil {
		return Value{}, fmt.Errorf("%s: interp: call to unknown function %q", e.Pos(), e.Func)
	}
	return ip.callFunc(f, args, depth+1)
}

func (ip *Interp) evalBin(e *lang.BinExpr, fr *frame, depth int) (Value, error) {
	// Short-circuit logic first.
	if e.Op == lang.AND || e.Op == lang.OR {
		x, err := ip.eval(e.X, fr, depth)
		if err != nil {
			return Value{}, err
		}
		ip.charge(ip.cfg.Costs.IntOp)
		if e.Op == lang.AND && !x.B {
			return BoolVal(false), nil
		}
		if e.Op == lang.OR && x.B {
			return BoolVal(true), nil
		}
		return ip.eval(e.Y, fr, depth)
	}
	x, err := ip.eval(e.X, fr, depth)
	if err != nil {
		return Value{}, err
	}
	y, err := ip.eval(e.Y, fr, depth)
	if err != nil {
		return Value{}, err
	}

	// Pointer comparison.
	if x.Kind == KindPtr || y.Kind == KindPtr {
		ip.charge(ip.cfg.Costs.IntOp)
		eq := x.N == y.N
		if e.Op == lang.EQ {
			return BoolVal(eq), nil
		}
		return BoolVal(!eq), nil
	}

	// String comparison (strings mostly exist as print arguments, but
	// == / != between them is well-typed and must compare contents,
	// not fall through to the always-zero integer fields).
	if x.Kind == KindString && y.Kind == KindString {
		ip.charge(ip.cfg.Costs.IntOp)
		switch e.Op {
		case lang.EQ:
			return BoolVal(x.S == y.S), nil
		case lang.NEQ:
			return BoolVal(x.S != y.S), nil
		}
		return Value{}, fmt.Errorf("%s: interp: bad string op %s", e.Pos(), e.Op)
	}

	// Numeric / bool scalar ops.
	real2 := x.Kind == KindReal || y.Kind == KindReal
	if real2 {
		ip.charge(ip.cfg.Costs.RealOp)
		a, b := x.AsReal(), y.AsReal()
		switch e.Op {
		case lang.PLUS:
			return RealVal(a + b), nil
		case lang.MINUS:
			return RealVal(a - b), nil
		case lang.STAR:
			return RealVal(a * b), nil
		case lang.SLASH:
			return RealVal(a / b), nil
		case lang.EQ:
			return BoolVal(a == b), nil
		case lang.NEQ:
			return BoolVal(a != b), nil
		case lang.LT:
			return BoolVal(a < b), nil
		case lang.LE:
			return BoolVal(a <= b), nil
		case lang.GT:
			return BoolVal(a > b), nil
		case lang.GE:
			return BoolVal(a >= b), nil
		}
		return Value{}, fmt.Errorf("%s: interp: bad real op %s", e.Pos(), e.Op)
	}
	if x.Kind == KindBool && y.Kind == KindBool {
		ip.charge(ip.cfg.Costs.IntOp)
		switch e.Op {
		case lang.EQ:
			return BoolVal(x.B == y.B), nil
		case lang.NEQ:
			return BoolVal(x.B != y.B), nil
		}
		return Value{}, fmt.Errorf("%s: interp: bad bool op %s", e.Pos(), e.Op)
	}
	ip.charge(ip.cfg.Costs.IntOp)
	a, b := x.I, y.I
	switch e.Op {
	case lang.PLUS:
		return IntVal(a + b), nil
	case lang.MINUS:
		return IntVal(a - b), nil
	case lang.STAR:
		return IntVal(a * b), nil
	case lang.SLASH:
		if b == 0 {
			return Value{}, fmt.Errorf("%s: interp: integer division by zero", e.Pos())
		}
		return IntVal(a / b), nil
	case lang.PERCENT:
		if b == 0 {
			return Value{}, fmt.Errorf("%s: interp: integer modulo by zero", e.Pos())
		}
		return IntVal(a % b), nil
	case lang.EQ:
		return BoolVal(a == b), nil
	case lang.NEQ:
		return BoolVal(a != b), nil
	case lang.LT:
		return BoolVal(a < b), nil
	case lang.LE:
		return BoolVal(a <= b), nil
	case lang.GT:
		return BoolVal(a > b), nil
	case lang.GE:
		return BoolVal(a >= b), nil
	}
	return Value{}, fmt.Errorf("%s: interp: bad int op %s", e.Pos(), e.Op)
}

// ---------------------------------------------------------------------------
// Heap inspection helpers (used by tests and examples)

// Field reads any data field of a node as a Value.
func Field(v Value, field string) (Value, error) {
	if v.N == nil {
		return Value{}, fmt.Errorf("interp: Field on NULL")
	}
	fv := v.N.data(field)
	if fv == nil {
		return Value{}, fmt.Errorf("interp: no field %q", field)
	}
	return *fv, nil
}

// FieldInt reads an int data field of a node.
func FieldInt(v Value, field string) (int64, error) {
	fv, err := Field(v, field)
	return fv.I, err
}

// FieldReal reads a real data field of a node.
func FieldReal(v Value, field string) (float64, error) {
	fv, err := Field(v, field)
	return fv.AsReal(), err
}

// FieldPtr reads a pointer field (index 0) of a node.
func FieldPtr(v Value, field string) (Value, error) {
	if v.N == nil {
		return Value{}, fmt.Errorf("interp: FieldPtr on NULL")
	}
	arr := v.N.ptrs(field)
	if len(arr) == 0 {
		return Value{}, fmt.Errorf("interp: no pointer field %q", field)
	}
	return PtrVal(arr[0]), nil
}

// ListInts walks a list via `next`, reading an int field from each node
// (bounded by limit to catch accidental cycles).
func ListInts(head Value, field string, limit int) ([]int64, error) {
	var out []int64
	n := head.N
	for n != nil {
		if limit--; limit < 0 {
			return nil, fmt.Errorf("interp: list longer than limit (cycle?)")
		}
		v := n.data(field)
		if v == nil {
			return nil, fmt.Errorf("interp: node lacks field %q", field)
		}
		out = append(out, v.I)
		next := n.ptrs("next")
		if len(next) == 0 {
			break
		}
		n = next[0]
	}
	return out, nil
}
