// Package core is the public face of the ADDS reproduction: a pipeline
// that compiles PSL source (parse → type check → normalize), runs
// general path matrix analysis and abstraction validation, answers
// parallelizability queries, applies the paper's transformations, and
// executes programs on the real-parallel interpreter or the simulated
// Sequent machine (RunConfig.Simulate: the tree walker counting cycles,
// whatever RunConfig.Engine says).
//
// Typical use:
//
//	c, err := core.Compile(src)
//	reports, _ := c.LoopReports("timestep")
//	par, _ := c.StripMine("timestep", 0, 4)
//	v, stats, _ := par.Run(core.RunConfig{}, "simulate", args...)
//
// Or let the planner decide what is parallel (the paper's actual
// pitch — the annotations license the compiler, not the caller):
//
//	auto, _ := c.AutoParallel(0)        // plan every loop, default width
//	fmt.Println(auto.Plan)              // what ran parallel, what didn't, why
//	v, stats, _ = auto.RunParallel(core.RunConfig{}, 4, "simulate", args...)
package core

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/analysis/klimit"
	"repro/internal/depend"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/parexec"
	"repro/internal/transform"
)

// Compilation is a compiled PSL program with its analyses.
type Compilation struct {
	// Program is the checked, normalized program.
	Program *lang.Program

	// analysis is the general path matrix result for every function,
	// with the effect summaries it read (analysis.Effects), built by
	// analyze: at once for a Compilation made by Compile or Analyze
	// (which report its error), on first use for the planned program of
	// an AutoPlan — planning runs on the input's analyses, so nothing
	// analyzes the result unless a caller asks about it.
	analyzeOnce sync.Once
	analysis    *analysis.Result
	analyzeErr  error

	// verdicts is depend.AnalyzeProgram's, reached on first use.
	verdictOnce sync.Once
	verdicts    []*depend.Report
	verdictErr  error

	// auto caches planned variants per strip width, so repeated
	// AutoParallel calls re-plan nothing. Guarded by autoMu; lazily
	// allocated.
	autoMu sync.Mutex
	auto   map[int]*AutoPlan

	// code is the program's executable code, used by every run: the
	// planner's own lowering for the planned program of an AutoPlan
	// (transform.Plan.Code), otherwise built by the first run that needs
	// it.
	codeOnce sync.Once
	code     *interp.CompiledProgram
}

// Compile parses, checks, normalizes, and analyzes PSL source.
func Compile(src string) (*Compilation, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return Analyze(prog)
}

// Analyze wraps an already-parsed program.
func Analyze(prog *lang.Program) (*Compilation, error) {
	c := &Compilation{Program: prog}
	if err := c.analyze(); err != nil {
		return nil, err
	}
	return c, nil
}

// analyze runs the whole-program analyses, once.
func (c *Compilation) analyze() error {
	c.analyzeOnce.Do(func() {
		c.analysis, c.analyzeErr = analysis.New(c.Program).AnalyzeAll()
	})
	return c.analyzeErr
}

// FuncResult returns the path-matrix analysis of one function.
func (c *Compilation) FuncResult(fn string) (*analysis.FuncResult, error) {
	if err := c.analyze(); err != nil {
		return nil, err
	}
	fr, ok := c.analysis.Funcs[fn]
	if !ok {
		return nil, fmt.Errorf("core: no function %q", fn)
	}
	return fr, nil
}

// ExitViolations returns the abstraction violations active at a
// function's exit (empty means the declaration is valid on return —
// §3.3.1's modular guarantee).
func (c *Compilation) ExitViolations(fn string) ([]analysis.ViolationKey, error) {
	fr, err := c.FuncResult(fn)
	if err != nil {
		return nil, err
	}
	return fr.Exit.ViolationKeys(), nil
}

// loopVerdicts returns the verdict on every while loop, in scan order.
func (c *Compilation) loopVerdicts() ([]*depend.Report, error) {
	c.verdictOnce.Do(func() {
		if c.verdictErr = c.analyze(); c.verdictErr == nil {
			c.verdicts, c.verdictErr = depend.AnalyzeProgram(c.Program, c.analysis)
		}
	})
	return c.verdicts, c.verdictErr
}

// LoopReports returns the verdict on every while loop of fn, in
// lang.Walk order: depend.AnalyzeProgram's, the one the planner,
// StripMine and CompareBaselines give too.
func (c *Compilation) LoopReports(fn string) ([]*depend.Report, error) {
	reps, err := c.loopVerdicts()
	if err != nil {
		return nil, err
	}
	if c.Program.Func(fn) == nil {
		return nil, fmt.Errorf("core: no function %q", fn)
	}
	return slices.DeleteFunc(slices.Clone(reps), func(r *depend.Report) bool { return r.Func != fn }), nil
}

// StripMine applies §4.3.3's transformation to the loopIndex-th while
// loop of fn with the given strip width (forall iterations per trip of
// the outer loop; the paper uses width = PEs, the scheduling policies
// in parexec want width > PEs) and returns a new compilation of the
// transformed program. It fails, with the reasons, unless the loop's
// verdict (the one LoopReports gives) approves it.
func (c *Compilation) StripMine(fn string, loopIndex, width int) (*Compilation, error) {
	res, err := transform.StripMine(c.Program, fn, loopIndex, width)
	if err != nil {
		return nil, err
	}
	return Analyze(res.Program)
}

// AutoPlan is an auto-parallelized program: a Compilation of the
// transformed program — running the planner's own build of its code,
// analyzed only if asked — plus the planner's per-loop report.
type AutoPlan struct {
	*Compilation
	// Plan records which loops were strip-mined and why the rest were
	// rejected (Plan.Program is the same program this Compilation wraps).
	Plan *transform.Plan
}

// AutoParallel plans the whole program from the verdicts LoopReports
// reads: every approved loop is strip-mined with the given width
// (widthHint <= 0 selects transform.DefaultWidth for this host — 16
// iterations per PE, at most 128), and the transformed program comes
// back as a new Compilation alongside the structured plan. Planned
// variants are cached per resolved width, so only the first call per
// width pays for planning, and no call analyzes anything again (see
// internal/transform): cold-path plan cost grows linearly with loops.
// The serial Compilation is untouched either way.
func (c *Compilation) AutoParallel(widthHint int) (*AutoPlan, error) {
	width := widthHint
	if width <= 0 {
		width = transform.DefaultWidth(0)
	}
	c.autoMu.Lock()
	defer c.autoMu.Unlock()
	if ap, ok := c.auto[width]; ok {
		return ap, nil
	}
	verdicts, err := c.loopVerdicts()
	if err != nil {
		return nil, err
	}
	plan, err := transform.PlanAnalyzed(c.Program, verdicts, width)
	if err != nil {
		return nil, err
	}
	ap := &AutoPlan{Compilation: &Compilation{Program: plan.Program, code: plan.Code}, Plan: plan}
	if c.auto == nil {
		c.auto = make(map[int]*AutoPlan)
	}
	c.auto[width] = ap
	return ap, nil
}

// RunConfig selects the execution mode for Run.
type RunConfig struct {
	// Engine selects the interpreter engine (default
	// interp.EngineKernel: the flat register-bank bytecode VM, with
	// vectorized forall strips run as batched kernels;
	// interp.EngineBytecode is the VM without them, interp.EngineWalk
	// the tree-walking oracle). The engines are bit-identical in
	// results, output, steps and allocations. Ignored under Simulate.
	Engine interp.Engine
	// Simulate runs on the deterministic machine model instead of
	// executing the program as written. The model lives in the tree
	// walker alone, so a simulated run is a walk-engine run and builds
	// no code.
	Simulate bool
	// PEs is the simulated PE count (Simulate mode).
	PEs int
	// Seed for the deterministic rand() builtin.
	Seed uint64
	// Output receives print() output (nil discards).
	Output io.Writer
	// Ctx, if non-nil, cancels the run: deadline or explicit cancel
	// aborts execution with an error (see interp.Config.Ctx). The
	// sandbox budgets below plus Ctx are what the serving layer
	// (internal/serve) uses to bound untrusted programs.
	Ctx context.Context
	// MaxSteps bounds executed statements (0 = interpreter default).
	MaxSteps int64
	// MaxAllocs bounds `new` node allocations (0 = unlimited).
	MaxAllocs int64
	// MaxOutputBytes bounds total print() output (0 = unlimited).
	MaxOutputBytes int64
	// Profiler, if non-nil, collects per-forall-site parallel-efficiency
	// measurements during RunParallel (ignored by the other run modes —
	// only the parexec pool has per-PE timings to report).
	Profiler *obs.ForallProfiler
}

// compiled returns the program's code for the given engine, building
// it on first use unless the planner already did; a run on the walker —
// the walk engine, or any simulated run — walks the AST and needs none
// (nil).
func (c *Compilation) compiled(eng interp.Engine, simulate bool) *interp.CompiledProgram {
	if eng == interp.EngineWalk || simulate {
		return nil
	}
	c.codeOnce.Do(func() {
		if c.code == nil {
			c.code = interp.CompileProgram(c.Program)
		}
	})
	return c.code
}

// newInterp creates an interpreter for the program over the
// compilation's one build of its code.
func (c *Compilation) newInterp(cfg RunConfig, shapeChecks bool) *interp.Interp {
	mode := interp.Real
	if cfg.Simulate {
		mode = interp.Simulated
	}
	icfg := interp.Config{
		Engine:         cfg.Engine,
		Mode:           mode,
		PEs:            cfg.PEs,
		Seed:           cfg.Seed,
		Output:         cfg.Output,
		Ctx:            cfg.Ctx,
		MaxSteps:       cfg.MaxSteps,
		MaxAllocs:      cfg.MaxAllocs,
		MaxOutputBytes: cfg.MaxOutputBytes,
		ShapeChecks:    shapeChecks,
	}
	if cp := c.compiled(cfg.Engine, cfg.Simulate); cp != nil {
		return interp.NewCompiled(cp, icfg)
	}
	return interp.New(c.Program, icfg)
}

// Run executes fn with the given arguments, serially: a forall's
// iterations run in place, in index order (RunParallel runs them on a
// pool of PEs, with the same result, output and counters).
func (c *Compilation) Run(cfg RunConfig, fn string, args ...interp.Value) (interp.Value, interp.Stats, error) {
	ip := c.newInterp(cfg, false)
	v, err := ip.Call(fn, args...)
	return v, ip.Stats(), err
}

// RunParallel executes fn with real goroutine parallelism: the
// program's forall regions (the ones StripMine emits) run on a
// parexec pool of pes PEs (0 = one per logical CPU) — the calling
// goroutine and pes−1 workers — each taking the next iteration of a
// forall as it becomes free. Result and print() output are
// bit-identical to a serial Run, with one exception: rand() inside a
// forall body draws from the shared stream in scheduling order (see
// package parexec).
func (c *Compilation) RunParallel(cfg RunConfig, pes int, fn string, args ...interp.Value) (interp.Value, interp.Stats, error) {
	return parexec.Run(c.Program, parexec.Options{
		Interp:         cfg.Engine,
		Compiled:       c.compiled(cfg.Engine, false),
		PEs:            pes,
		Seed:           cfg.Seed,
		Output:         cfg.Output,
		Ctx:            cfg.Ctx,
		MaxSteps:       cfg.MaxSteps,
		MaxAllocs:      cfg.MaxAllocs,
		MaxOutputBytes: cfg.MaxOutputBytes,
		Profiler:       cfg.Profiler,
	}, fn, args...)
}

// RunChecked is Run with the paper's §2.2 runtime shape checks
// enabled: every pointer store is validated against its field's ADDS
// annotation, and the violations observed during execution are
// returned alongside the result.
func (c *Compilation) RunChecked(cfg RunConfig, fn string, args ...interp.Value) (interp.Value, interp.Stats, []interp.ShapeViolation, error) {
	ip := c.newInterp(cfg, true)
	v, err := ip.Call(fn, args...)
	return v, ip.Stats(), ip.ShapeViolations(), err
}

// Source renders the (possibly transformed) program back to PSL.
func (c *Compilation) Source() string { return lang.Format(c.Program) }

// MatrixAfter renders the path matrix just after the first assignment
// in fn whose canonical text equals stmtText (e.g. "p = p->next;") —
// used to print the paper's example matrices.
func (c *Compilation) MatrixAfter(fn, stmtText string) (string, error) {
	fr, err := c.FuncResult(fn)
	if err != nil {
		return "", err
	}
	as, err := analysis.FindAssign(c.Program.Func(fn), stmtText)
	if err != nil {
		return "", err
	}
	st := fr.After(as)
	if st == nil {
		return "", fmt.Errorf("core: no state after %q (control does not reach past it)", stmtText)
	}
	return st.PM.String(), nil
}

// MatrixBeforeLoop renders the path matrix just before the n-th while
// loop of fn.
func (c *Compilation) MatrixBeforeLoop(fn string, loopIndex int) (string, error) {
	fr, err := c.FuncResult(fn)
	if err != nil {
		return "", err
	}
	loop, err := analysis.FindLoop(c.Program.Func(fn), loopIndex)
	if err != nil {
		return "", err
	}
	st := fr.Before(loop)
	if st == nil {
		return "", fmt.Errorf("core: loop not reached")
	}
	return st.PM.String(), nil
}

// ---------------------------------------------------------------------------
// Baseline comparison (experiment X1)

// BaselineVerdicts compares three analyses on one loop: the
// conservative baseline, the k-limited storage-graph baseline, and the
// paper's ADDS + general path matrix analysis.
type BaselineVerdicts struct {
	Func         string
	LoopIndex    int
	Conservative bool
	KLimited     bool
	ADDS         bool
	ADDSReport   *depend.Report
}

// String renders one comparison row.
func (v *BaselineVerdicts) String() string {
	return fmt.Sprintf("%-24s loop#%d  conservative=%-3s  k-limited=%-3s  ADDS+GPM=%-3s",
		v.Func, v.LoopIndex, yn(v.Conservative), yn(v.KLimited), yn(v.ADDS))
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// CompareBaselines runs the k-limited baseline on the loopIndex-th
// while loop of fn, which reports a missing function or loop, and sets
// beside it the loop's ADDS verdict — the one LoopReports gives.
func (c *Compilation) CompareBaselines(fn string, loopIndex int) (*BaselineVerdicts, error) {
	kl := klimit.New(c.Program, klimit.DefaultK)
	kv, err := kl.LoopParallelizable(fn, loopIndex)
	if err != nil {
		return nil, err
	}
	reps, err := c.LoopReports(fn)
	if err != nil {
		return nil, err
	}
	rep := reps[loopIndex]
	return &BaselineVerdicts{
		Func:      fn,
		LoopIndex: loopIndex,
		// A conventional compiler (§2.1 approach (1)) lets any two pointers
		// of one type alias and p = p->next revisit any node, so it never
		// parallelizes a pointer loop.
		Conservative: false,
		KLimited:     kv.Parallelizable,
		ADDS:         rep.Parallelizable,
		ADDSReport:   rep,
	}, nil
}

// FormatVerdictTable renders a set of comparisons as the X1 table.
func FormatVerdictTable(rows []*BaselineVerdicts) string {
	var b strings.Builder
	b.WriteString("loop                             conservative  k-limited  ADDS+GPM\n")
	for _, v := range rows {
		fmt.Fprintf(&b, "%-24s loop#%d  %-12s  %-9s  %s\n",
			v.Func, v.LoopIndex, yn(v.Conservative), yn(v.KLimited), yn(v.ADDS))
	}
	return b.String()
}
