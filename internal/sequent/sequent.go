// Package sequent models the paper's evaluation platform — a Sequent
// shared-memory multiprocessor — on top of the PSL interpreter's
// simulated mode. It exists to regenerate the paper's §4.4 TIMES and
// SPEEDUP tables deterministically. A simulated run executes on the
// interpreter's tree walker, the one implementation of the cost model,
// so a Machine runs at walker speed (≈ 20× slower than the bytecode VM)
// whatever engine the rest of the system defaults to.
//
// The model captures exactly the effects the paper cites for its
// sublinear speedups: (1) simple static scheduling of iterations onto
// PEs, (3) slow synchronization (a large barrier cost per parallel
// region), and (4) no granularity tuning — plus the serial pointer
// advance (FOR1) and the per-PE skip-ahead (FOR2) that the strip-mining
// transformation introduces.
//
// Absolute seconds depend on a clock-rate calibration (the substitution
// documented in DESIGN.md); the shape of the tables — who wins, by what
// factor, how the factor grows with N and PEs — is what reproduces.
package sequent

import (
	"fmt"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/parexec"
	"repro/internal/tablefmt"
	"repro/internal/transform"
)

// DefaultClockHz approximates a Sequent Symmetry node (16 MHz 80386).
const DefaultClockHz = 16e6

// Machine is a simulated Sequent configuration.
type Machine struct {
	PEs     int
	ClockHz float64
	Costs   interp.CostModel
	Sched   interp.Scheduling
	Seed    uint64
}

// NewMachine returns a machine with default costs and clock.
func NewMachine(pes int) Machine {
	return Machine{PEs: pes, ClockHz: DefaultClockHz, Costs: interp.DefaultCosts(), Seed: 7}
}

// RunResult is one simulated execution.
type RunResult struct {
	Cycles  int64
	Seconds float64
	Stats   interp.Stats
}

// Run executes fn on the machine and converts cycles to seconds.
func (m Machine) Run(prog *lang.Program, fn string, args ...interp.Value) (RunResult, error) {
	ip := interp.New(prog, interp.Config{
		Mode:  interp.Simulated,
		PEs:   m.PEs,
		Sched: m.Sched,
		Costs: m.Costs,
		Seed:  m.Seed,
	})
	if _, err := ip.Call(fn, args...); err != nil {
		return RunResult{}, err
	}
	st := ip.Stats()
	return RunResult{Cycles: st.Cycles, Seconds: float64(st.Cycles) / m.ClockHz, Stats: st}, nil
}

// ---------------------------------------------------------------------------
// The §4.4 table harness

// TableConfig parameterizes the Barnes-Hut experiment.
type TableConfig struct {
	// Ns are the particle counts (paper: 128, 512, 1024).
	Ns []int
	// Steps is the number of reported time steps (paper: 80).
	Steps int
	// MeasureSteps is how many steps are actually simulated; the
	// per-step cost is constant, so times scale linearly to Steps.
	// 0 means simulate all Steps.
	MeasureSteps int
	// PEs lists the parallel configurations (paper: 4 and 7).
	PEs []int
	// Theta is the well-separated threshold; Dt the integration step.
	Theta, Dt float64
	// Sched chooses the static schedule (paper: simple static = Cyclic).
	Sched interp.Scheduling
	// Costs overrides the machine cost model (zero = defaults).
	Costs interp.CostModel
	Seed  uint64
	// CalibrateSeconds, if nonzero, scales the clock so that the
	// sequential N = Ns[0] run takes exactly this many seconds
	// (the paper's 188 s for N=128) — making absolute numbers
	// comparable while leaving every ratio untouched.
	CalibrateSeconds float64
}

// DefaultTableConfig reproduces the paper's parameters with a reduced
// measurement window (1 measured step, scaled to 80).
func DefaultTableConfig() TableConfig {
	return TableConfig{
		Ns:               []int{128, 512, 1024},
		Steps:            80,
		MeasureSteps:     1,
		PEs:              []int{4, 7},
		Theta:            0.5,
		Dt:               0.01,
		Seed:             7,
		CalibrateSeconds: 188,
	}
}

// TableRow is one N's measurements.
type TableRow struct {
	N       int
	Seq     float64
	Par     map[int]float64 // PEs -> seconds
	Speedup map[int]float64 // PEs -> seq/par
}

// Table is the full experiment result.
type Table struct {
	Config TableConfig
	Rows   []TableRow
}

// BarnesHutTable runs the paper's §4.4 experiment: the PSL Barnes-Hut
// program, sequential and strip-mined for each PE count, over each N.
func BarnesHutTable(cfg TableConfig) (*Table, error) {
	prog, err := lang.Parse(nbody.BarnesHutPSL)
	if err != nil {
		return nil, err
	}
	measure := cfg.MeasureSteps
	if measure <= 0 {
		measure = cfg.Steps
	}
	scale := float64(cfg.Steps) / float64(measure)
	costs := cfg.Costs
	if costs == (interp.CostModel{}) {
		costs = interp.DefaultCosts()
	}

	// Configuration 0 is the sequential program on one PE; the others
	// transform it once per PE count: BHL1 then BHL2.
	widths := append([]int{1}, cfg.PEs...)
	programs := []*lang.Program{prog}
	for _, pes := range cfg.PEs {
		r1, err := transform.StripMine(prog, nbody.TimestepFunc, nbody.BHL1, pes)
		if err != nil {
			return nil, fmt.Errorf("strip-mining BHL1 for %d PEs: %w", pes, err)
		}
		r2, err := transform.StripMine(r1.Program, nbody.TimestepFunc, nbody.BHL2, pes)
		if err != nil {
			return nil, fmt.Errorf("strip-mining BHL2 for %d PEs: %w", pes, err)
		}
		programs = append(programs, r2.Program)
	}

	// One simulated run per (N, configuration). The runs are
	// independent — the clock calibration below is arithmetic on the
	// first one's cycle count — and each is a tree-walker run, so they
	// share the host's CPUs, handed out last N first: Ns ascend, and the
	// longest runs should not be the ones left over.
	per := len(programs)
	cycles := make([]int64, len(cfg.Ns)*per)
	errs := make([]error, len(cycles))
	parexec.ForEach(0, len(cycles), func(k int) {
		k = len(cycles) - 1 - k
		n, j := cfg.Ns[k/per], k%per
		m := Machine{PEs: widths[j], ClockHz: DefaultClockHz, Costs: costs, Sched: cfg.Sched, Seed: cfg.Seed}
		res, err := m.Run(programs[j], "simulate",
			interp.IntVal(int64(n)), interp.IntVal(int64(measure)),
			interp.RealVal(cfg.Theta), interp.RealVal(cfg.Dt))
		if err != nil && j == 0 {
			err = fmt.Errorf("sequential N=%d: %w", n, err)
		} else if err != nil {
			err = fmt.Errorf("parallel(%d) N=%d: %w", m.PEs, n, err)
		}
		cycles[k], errs[k] = res.Cycles, err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	clock := DefaultClockHz
	if cfg.CalibrateSeconds > 0 && len(cycles) > 0 {
		// Choose the clock so the first sequential run matches the
		// paper's absolute seconds; ratios are unaffected.
		clock = float64(cycles[0]) * scale / cfg.CalibrateSeconds
	}
	seconds := func(k int) float64 { return float64(cycles[k]) / clock * scale }
	table := &Table{Config: cfg}
	for i, n := range cfg.Ns {
		row := TableRow{N: n, Seq: seconds(i * per),
			Par: map[int]float64{}, Speedup: map[int]float64{}}
		for j, pes := range cfg.PEs {
			row.Par[pes] = seconds(i*per + 1 + j)
			row.Speedup[pes] = row.Seq / row.Par[pes]
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

// FormatTimes renders the paper's TIMES table.
func (t *Table) FormatTimes() string {
	g := tablefmt.New("TIMES", t.ns()...)
	g.AddRow("seq", t.cells(func(r TableRow) float64 { return r.Seq })...)
	for _, pes := range t.Config.PEs {
		pes := pes
		g.AddRow(fmt.Sprintf("par(%d)", pes),
			t.cells(func(r TableRow) float64 { return r.Par[pes] })...)
	}
	return g.Format(0)
}

// FormatSpeedups renders the paper's SPEEDUP table.
func (t *Table) FormatSpeedups() string {
	g := tablefmt.New("SPEEDUP", t.ns()...)
	g.AddRow("seq", t.cells(func(TableRow) float64 { return 1.0 })...)
	for _, pes := range t.Config.PEs {
		pes := pes
		g.AddRow(fmt.Sprintf("par(%d)", pes),
			t.cells(func(r TableRow) float64 { return r.Speedup[pes] })...)
	}
	return g.Format(1)
}

func (t *Table) ns() []int {
	out := make([]int, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r.N
	}
	return out
}

func (t *Table) cells(get func(TableRow) float64) []float64 {
	out := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = get(r)
	}
	return out
}
