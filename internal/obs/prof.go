package obs

import (
	"fmt"
	"sort"
	"sync"
)

// ForallProfiler accumulates parallel-efficiency measurements per
// forall site. parexec calls Record once per scalar barrier with the raw
// per-PE timings, and the interpreter RecordKernel once per vectorized
// strip; Report derives the scores the paper's claim is
// ultimately about: did the loop the planner approved actually keep
// its PEs busy?
//
// Sites are keyed by source line — the same line transform's Plan
// reports for the while loop it strip-mined (the generated forall is
// stamped with the original loop's position) — so a plan entry and a
// profile row join on one key with no side channel.
type ForallProfiler struct {
	mu    sync.Mutex
	sites map[int]*siteAgg
}

type siteAgg struct {
	line     int
	pes      int
	barriers int64
	wallNS   int64
	busyNS   []int64 // per PE
	waitNS   []int64 // per PE: barrier end − PE's last task end
	tasks    []int64 // per PE
	// kernel marks sites whose strips executed on the vector path
	// (RecordKernel); gather/scatter are then the serial slab phases'
	// accumulated wall time.
	kernel    bool
	gatherNS  int64
	scatterNS int64
}

// NewForallProfiler builds an empty profiler.
func NewForallProfiler() *ForallProfiler {
	return &ForallProfiler{sites: make(map[int]*siteAgg)}
}

// Record adds one barrier's measurements for the forall at line:
// wallNS is the dispatch-to-barrier wall clock, busyNS[pe] the summed
// task execution time on pe, doneNS[pe] the offset (from dispatch) at
// which pe found no iteration left to take, tasks[pe] the iterations pe
// executed. Nil-safe, so callers thread an optional profiler without
// branching. Slices are copied-from, not retained.
func (p *ForallProfiler) Record(line int, wallNS int64, busyNS, doneNS, tasks []int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	agg := p.sites[line]
	if agg == nil {
		agg = &siteAgg{
			line:   line,
			pes:    len(busyNS),
			busyNS: make([]int64, len(busyNS)),
			waitNS: make([]int64, len(busyNS)),
			tasks:  make([]int64, len(busyNS)),
		}
		p.sites[line] = agg
	}
	agg.barriers++
	agg.wallNS += wallNS
	for pe := range busyNS {
		if pe >= agg.pes {
			break // defensive: PE count changed mid-run (not expected)
		}
		agg.busyNS[pe] += busyNS[pe]
		agg.tasks[pe] += tasks[pe]
		if w := wallNS - doneNS[pe]; w > 0 {
			agg.waitNS[pe] += w
		}
	}
}

// RecordKernel adds one vectorized strip's measurements for the forall
// at line: wallNS is gather-to-scatter wall clock, gatherNS/scatterNS
// the serial slab phases, busyNS[pe] the PE's compute time, tasks[pe]
// its compute-call count (the interpreter runs a strip's compute in
// place: one call, on PE 0). There is no per-PE wait measurement. Nil-safe;
// slices are copied-from, not retained.
func (p *ForallProfiler) RecordKernel(line int, wallNS, gatherNS, scatterNS int64, busyNS, tasks []int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	agg := p.sites[line]
	if agg == nil {
		agg = &siteAgg{
			line:   line,
			pes:    len(busyNS),
			busyNS: make([]int64, len(busyNS)),
			waitNS: make([]int64, len(busyNS)),
			tasks:  make([]int64, len(busyNS)),
		}
		p.sites[line] = agg
	}
	agg.kernel = true
	agg.barriers++
	agg.wallNS += wallNS
	agg.gatherNS += gatherNS
	agg.scatterNS += scatterNS
	for pe := range busyNS {
		if pe >= agg.pes {
			break
		}
		agg.busyNS[pe] += busyNS[pe]
		agg.tasks[pe] += tasks[pe]
	}
}

// PEReport is one PE's share of a site report.
type PEReport struct {
	Tasks  int64 `json:"tasks"`
	BusyUS int64 `json:"busy_us"`
	WaitUS int64 `json:"wait_us"`
}

// SiteReport is the per-forall-site efficiency report: the measured
// counterpart of one Plan loop entry.
type SiteReport struct {
	// Line is the source line of the loop (the planner's key); Fn is
	// filled in by callers that hold the plan (the profiler itself only
	// sees positions).
	Line int    `json:"line"`
	Fn   string `json:"fn,omitempty"`
	// Barriers counts forall dispatches at this site; Tasks the
	// iterations executed across all PEs and barriers.
	Barriers int64 `json:"barriers"`
	Tasks    int64 `json:"tasks"`
	PEs      int   `json:"pes"`
	WallUS   int64 `json:"wall_us"`
	// BusyPct is aggregate PE utilization: Σ busy / (PEs × wall) × 100.
	// WaitPct is the share of PE-time spent waiting at the barrier
	// after the PE found no iteration left. Busy + wait < 100 in
	// general — the remainder is scheduling overhead (the cursor, the
	// barrier handoff, output buffering).
	BusyPct float64 `json:"busy_pct"`
	WaitPct float64 `json:"wait_pct"`
	// Imbalance is max PE busy time over mean PE busy time: 1.0 is a
	// perfectly balanced schedule, 2.0 means the slowest PE carried
	// twice the average load. 0 when nothing ran.
	Imbalance float64    `json:"imbalance"`
	PerPE     []PEReport `json:"per_pe,omitempty"`
	// Kernel marks a site whose strips ran on the vector path; the
	// serial gather/scatter slab phases are then reported so the
	// planned-vs-achieved table can show where the barrier time went
	// (per-task wait columns don't exist for whole-slab compute).
	Kernel    bool  `json:"kernel,omitempty"`
	GatherUS  int64 `json:"gather_us,omitempty"`
	ScatterUS int64 `json:"scatter_us,omitempty"`
}

// String renders one table-ish line of the report.
func (r SiteReport) String() string {
	at := fmt.Sprintf("line %d", r.Line)
	if r.Fn != "" {
		at = fmt.Sprintf("%s (line %d)", r.Fn, r.Line)
	}
	line := fmt.Sprintf("%-24s pes=%d barriers=%d tasks=%d busy=%.1f%% wait=%.1f%% imbalance=%.2f",
		at, r.PEs, r.Barriers, r.Tasks, r.BusyPct, r.WaitPct, r.Imbalance)
	if r.Kernel {
		line += fmt.Sprintf(" kernel gather=%dus scatter=%dus", r.GatherUS, r.ScatterUS)
	}
	return line
}

// Report derives the per-site scores, sorted by line. Nil-safe (nil →
// nil).
func (p *ForallProfiler) Report() []SiteReport {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SiteReport, 0, len(p.sites))
	for _, agg := range p.sites {
		r := SiteReport{
			Line:      agg.line,
			Barriers:  agg.barriers,
			PEs:       agg.pes,
			WallUS:    agg.wallNS / 1e3,
			Kernel:    agg.kernel,
			GatherUS:  agg.gatherNS / 1e3,
			ScatterUS: agg.scatterNS / 1e3,
		}
		var busySum, waitSum, busyMax int64
		for pe := 0; pe < agg.pes; pe++ {
			r.Tasks += agg.tasks[pe]
			busySum += agg.busyNS[pe]
			waitSum += agg.waitNS[pe]
			if agg.busyNS[pe] > busyMax {
				busyMax = agg.busyNS[pe]
			}
			r.PerPE = append(r.PerPE, PEReport{
				Tasks:  agg.tasks[pe],
				BusyUS: agg.busyNS[pe] / 1e3,
				WaitUS: agg.waitNS[pe] / 1e3,
			})
		}
		if denom := agg.wallNS * int64(agg.pes); denom > 0 {
			r.BusyPct = 100 * float64(busySum) / float64(denom)
			r.WaitPct = 100 * float64(waitSum) / float64(denom)
		}
		if busySum > 0 {
			mean := float64(busySum) / float64(agg.pes)
			r.Imbalance = float64(busyMax) / mean
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}
