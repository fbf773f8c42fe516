// Command benchmark is the repository's one benchmark: four workloads
// driven end to end — PSL source text in, checked result out; bytes in
// on POST /run, bytes out — at GOMAXPROCS = nproc, with every result
// compared to a reference. See README.md in this directory.
//
//	go run ./benchmark                         every workload, end-to-end metrics
//	go run ./benchmark -workload bh_sim        one workload
//	go run ./benchmark -trace 1                the per-layer ledger and span files
//	go run ./benchmark -aa                     the suite twice; fails if it disagrees with itself
//
// With -workload, the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/interp"
	"repro/internal/serve"
)

// measured is one metric's value as reported, with the quartiles and
// sample count of what it was taken from; a count or a ratio is a plain
// number. Raw is the median before the correction for the machine's
// speed, where there is one.
type measured struct {
	Value  float64
	Unit   string
	Q1     float64
	Median float64
	Q3     float64
	N      int
	Raw    float64
}

// fromSamples reports a layer timing: the median of its samples.
func fromSamples(s samples, unit string, scale float64) measured {
	q1, q3 := s.quartiles()
	med := s.median() * scale
	return measured{Value: med, Unit: unit, Q1: q1 * scale, Median: med, Q3: q3 * scale, N: len(s), Raw: med}
}

// steadied reports an end-to-end metric from its corrected samples:
// the better quartile, the first of a time and the third of a rate.
// What is left of the sandbox's noise after the correction is
// one-sided (an interruption can only slow a sample down) and at times
// covers half a run; over ten runs of the same code the better quartile
// spread 6.5% of its median on average and 15% at worst, the median
// 7.5% and 18% (README.md, "Noise").
func steadied(t timing, corrected, raw samples) measured {
	m := fromSamples(corrected, t.unit, t.scale)
	m.Value = m.Q1
	if t.rate {
		m.Value = m.Q3
	}
	m.Raw = raw.median() * t.scale
	return m
}

func number(v float64, unit string) measured {
	return measured{Value: v, Unit: unit, Q1: v, Median: v, Q3: v, N: 1, Raw: v}
}

// outcome is one workload run's report.
type outcome struct {
	workload  string
	env       environment
	metrics   map[string]measured
	attempted int
	failed    int
	firstErr  error
	notes     []string
	// refs and oracle are the run's reference results, for the
	// comparison with the committed expected file.
	refs   map[string]reference
	oracle interp.Stats
}

func (o *outcome) correct() bool { return o.failed == 0 && o.firstErr == nil }

// fail counts a failed check made on the finished run.
func (o *outcome) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// pass is the timed part of a run: the five phases once through.
type pass struct {
	verdict, cold samples
	batch         [numConfigs]samples
	open          loadStats
	closed        loadStats
	rps           samples
	miss          samples
	took          [numPhases]time.Duration
	// load is the server's own counters over the open and closed
	// loops (the miss phase, all misses by construction, is left out).
	load serve.Stats
	// slow are the calibrator's readings, one between any two slices;
	// corrected holds, per timing, the samples divided (a rate:
	// multiplied) by the slowdown read around the slice they were
	// taken in.
	slow      samples
	corrected [numTimings]samples
}

// timing is one end-to-end metric a pass samples, and where the pass
// keeps its samples as measured.
type timing struct {
	name, unit string
	scale      float64
	rate       bool // per second: better higher, a slow machine lowers it
	raw        func(p *pass) samples
}

const numTimings = 8

var timings = [numTimings]timing{
	{"verdict_s", "s", 1, false, func(p *pass) samples { return p.verdict }},
	{"cold_s", "s", 1, false, func(p *pass) samples { return p.cold }},
	{"serial_s", "s", 1, false, func(p *pass) samples { return p.batch[cfgSerial] }},
	{"run_s", "s", 1, false, func(p *pass) samples { return p.batch[cfgRun] }},
	{"run_kernel_s", "s", 1, false, func(p *pass) samples { return p.batch[cfgKernel] }},
	{"lat_p25_ms", "ms", 1e3, false, func(p *pass) samples { return p.open.lat }},
	{"rps", "1/s", 1, true, func(p *pass) samples { return p.rps }},
	{"cold_p25_ms", "ms", 1e3, false, func(p *pass) samples { return p.miss }},
}

// machine reads the sandbox's speed (calib.go).
var machine = newCalibrator()

// roundSeconds is how long one cycle through the five phases lasts. The
// sandbox's speed drifts over seconds; cycling makes every metric
// sample the whole run, not one stretch of it.
const roundSeconds = 2.0

// runPass runs the five phases in rounds, each phase getting its share
// of every round. Phases end at fixed offsets from the start of the
// pass, so a phase that overruns (its last op started just in time)
// shortens the next one and the pass ends when its seconds are up. The
// calibrator reads the machine between any two slices, and a slice's
// samples are corrected by the mean of the readings around it.
func (b *bench) runPass(rec *recorder, seconds float64) *pass {
	p := &pass{}
	rounds := int(seconds / roundSeconds)
	if rounds < 1 {
		rounds = 1
	}
	round := seconds / float64(rounds)
	start := time.Now()
	draw := rng(b.env.Seed)
	// Each slice starts from a collected heap, so what one phase left
	// behind is billed neither to the next nor to the calibrator.
	runtime.GC()
	slow := machine.slowdown()
	p.slow.add(slow)
	for r := 0; r < rounds; r++ {
		done := 0.0
		for ph := 0; ph < numPhases; ph++ {
			done += b.w.share[ph]
			deadline := start.Add(time.Duration((float64(r) + done) * round * float64(time.Second)))
			var mark [numTimings]int
			for i, t := range timings {
				mark[i] = len(t.raw(p))
			}
			t0 := time.Now()
			b.runPhase(rec, ph, p, &draw, deadline)
			p.took[ph] += time.Since(t0)
			runtime.GC()
			next := machine.slowdown()
			p.slow.add(next)
			for i, t := range timings {
				for _, v := range t.raw(p)[mark[i]:] {
					p.corrected[i].add(correct(v, (slow+next)/2, t.rate))
				}
			}
			slow = next
		}
	}
	return p
}

// correct takes the machine's slowdown out of a time, or out of a rate.
func correct(v, slowdown float64, rate bool) float64 {
	if rate {
		return v * slowdown
	}
	return v / slowdown
}

// runPhase runs one phase until its deadline, and at least one op (the
// batch phase one sample of each configuration, which only binds in a
// pass of a fraction of a second).
func (b *bench) runPhase(rec *recorder, ph int, p *pass, draw *rng, deadline time.Time) {
	switch ph {
	case phaseFront:
		until(deadline, 1, func() { b.frontPass(rec, &p.verdict, &p.cold) })
	case phaseBatch:
		until(deadline, numConfigs, func() { b.batchNext(rec, &p.batch) })
	case phaseOpen:
		before := b.srv.Stats()
		p.open.merge(b.openLoop(rec, draw, deadline))
		addLoad(&p.load, before, b.srv.Stats())
	case phaseClosed:
		before := b.srv.Stats()
		closed, took := b.closedLoop(rec, draw, deadline)
		p.rps.add(float64(closed.requests-len(closed.wrong)) / took.Seconds())
		p.closed.merge(closed)
		addLoad(&p.load, before, b.srv.Stats())
	case phaseMiss:
		until(deadline, 1, func() { p.miss.add(b.miss(rec).Seconds()) })
	}
}

// addLoad books the server's counters between two snapshots.
func addLoad(l *serve.Stats, before, after serve.Stats) {
	l.Cache.Hits += after.Cache.Hits - before.Cache.Hits
	l.Cache.Misses += after.Cache.Misses - before.Cache.Misses
	l.Cache.Evictions += after.Cache.Evictions - before.Cache.Evictions
	l.Cache.Compiles += after.Cache.Compiles - before.Cache.Compiles
	l.Rejected += after.Rejected - before.Rejected
	l.Abandoned += after.Abandoned - before.Abandoned
}

// endToEnd turns a pass into the end-to-end metrics (all but setup_s).
func (p *pass) endToEnd() map[string]measured {
	out := map[string]measured{}
	for i, t := range timings {
		out[t.name] = steadied(t, p.corrected[i], t.raw(p))
	}
	return out
}

// Set-up runs at least three times to report its median (the first one
// also pays for a cold process), and while it is cheap, up to fifteen
// times or a second and a half: a 10 ms set-up needs more than three
// samples to be steady.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1500 * time.Millisecond
)

// runEndToEnd is the untraced run: set-up (several times, each corrected
// by the calibrator's readings around it, median reported), then one
// pass.
func runEndToEnd(w *workload, env environment) *outcome {
	o := &outcome{workload: w.name, env: env, metrics: map[string]measured{}}
	var setup, corrected samples
	var b *bench
	start := time.Now()
	slow := machine.slowdown()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(start) < setupBudget); i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = setUp(w, env); err != nil {
			o.firstErr = err
			return o
		}
		took := time.Since(t0).Seconds()
		next := machine.slowdown()
		setup.add(took)
		corrected.add(correct(took, (slow+next)/2, false))
		slow = next
	}
	defer b.close()
	p := b.runPass(nil, env.Seconds)
	o.metrics = p.endToEnd()
	m := fromSamples(corrected, "s", 1)
	m.Raw = setup.median()
	o.metrics["setup_s"] = m
	o.attempted, o.failed, o.firstErr = b.attempted, b.failed, b.firstErr
	o.notes = p.notes(b)
	o.refs, o.oracle = b.refs, b.oracle
	return o
}

// notes are the lines of the honest-environment block that depend on
// the run: phase durations, the reference rate, how late the generator
// ran.
func (p *pass) notes(b *bench) []string {
	var out []string
	for ph := 0; ph < numPhases; ph++ {
		out = append(out, fmt.Sprintf("phase %-6s %6.2fs", phaseNames[ph], p.took[ph].Seconds()))
	}
	q1, q3 := p.slow.quartiles()
	out = append(out, fmt.Sprintf("machine     slowdown %.3f (q1 %.3f, q3 %.3f, %d readings; 1 = the reference machine, quiet); end-to-end timings are divided by it slice by slice",
		p.slow.median(), q1, q3, len(p.slow)))
	late := quantile(p.open.late.sorted(), 0.99) * 1e3
	verdict := "valid"
	if late > 1 {
		verdict = "INVALID: the generator, not the server, was late"
	}
	out = append(out,
		fmt.Sprintf("open loop   %g req/s reference rate, %d sent over %d connections, generator p99 lateness %.3f ms (%s)",
			b.w.rate, p.open.requests, b.env.PEs, late, verdict),
		fmt.Sprintf("closed loop %d clients, %d completed", b.env.PEs, p.closed.requests),
		fmt.Sprintf("batch       runs per sample %v, samples per turn of the schedule %v (serial, P PEs, P PEs kernel)", b.reps, b.mult))
	return out
}

func (o *outcome) print(w io.Writer, defs []metricDef) {
	e := o.env
	fmt.Fprintf(w, "\n== %s ==\n", o.workload)
	fmt.Fprintf(w, "env nproc=%d gomaxprocs=%d pes=%d width=%d go_version=%s seed=%d rand_seed=%d seconds=%g\n",
		e.NProc, e.GoMaxProcs, e.PEs, e.Width, e.GoVersion, e.Seed, e.RandSeed, e.Seconds)
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "%-36s %14s %-7s %14s %14s %14s %7s %14s\n", "metric", "value", "unit", "q1", "median", "q3", "n", "raw_median")
	for _, d := range defs {
		m, ok := o.metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-36s %14.6g %-7s %14.6g %14.6g %14.6g %7d %14.6g\n", d.Name, m.Value, m.Unit, m.Q1, m.Median, m.Q3, m.N, m.Raw)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%t\n", o.attempted, o.failed, o.correct())
	if o.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", o.firstErr)
	}
}

// resultLine is the machine-readable last line.
func (o *outcome) resultLine(defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		m := o.metrics[d.Name]
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	attempted := o.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct(), attempted, o.failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(line)
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Uint64("seed", 1, "seed for particle positions, the request draw and the forced-miss suffixes")
		seconds = flag.Float64("seconds", defaultSeconds, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "1 = traced pass: per-layer metrics and benchmark/out/trace-<workload>.json")
		aa      = flag.Bool("aa", false, "run the untraced suite twice and fail if any metric disagrees with itself beyond its bound")
		outDir  = flag.String("out", "benchmark/out", "directory for trace files")
		update  = flag.Bool("update-expected", false, "rewrite benchmark/expected/<workload>.json from this run (seed 1 only)")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	env := newEnvironment(*seed, *seconds)
	all := workloads()
	var chosen []*workload
	for _, w := range all {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *aa {
		os.Exit(runAA(chosen, env))
	}

	ok := true
	var last *outcome
	defs := endToEndDefs
	for _, w := range chosen {
		var o *outcome
		if *trace == 1 {
			defs = perLayerDefs
			o = runTraced(w, env, *outDir)
		} else {
			o = runEndToEnd(w, env)
		}
		if o.correct() {
			checkExpected(o, *update)
		}
		o.print(os.Stdout, defs)
		ok = ok && o.correct()
		last = o
	}
	if len(chosen) == 1 {
		fmt.Println(last.resultLine(defs))
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

// runAA runs the untraced suite twice, the second time in reverse
// order, and reports for every (metric, workload) both medians and the
// relative gap. A gap beyond the metric's bound means the benchmark
// cannot tell a regression of that size from its own noise.
func runAA(ws []*workload, env environment) int {
	first := map[string]*outcome{}
	second := map[string]*outcome{}
	for _, w := range ws {
		first[w.name] = runEndToEnd(w, env)
	}
	for i := len(ws) - 1; i >= 0; i-- {
		second[ws[i].name] = runEndToEnd(ws[i], env)
	}
	status := 0
	fmt.Printf("%-12s %-14s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "gap", "bound")
	for _, w := range ws {
		a, b := first[w.name], second[w.name]
		if !a.correct() || !b.correct() {
			fmt.Printf("%-12s wrong results: %v %v\n", w.name, a.firstErr, b.firstErr)
			status = 1
			continue
		}
		for _, d := range endToEndDefs {
			va, vb := a.metrics[d.Name].Value, b.metrics[d.Name].Value
			gap := math.Abs(va-vb) / math.Min(va, vb)
			flag := ""
			if gap > d.Bound {
				flag = "  EXCEEDS BOUND"
				status = 1
			}
			fmt.Printf("%-12s %-14s %14.6g %14.6g %7.1f%% %5.0f%%%s\n", w.name, d.Name, va, vb, 100*gap, 100*d.Bound, flag)
		}
	}
	return status
}
