package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/parexec"
	"repro/internal/serve"
	"repro/internal/transform"
)

// environment is recorded in every output: the numbers mean nothing
// without it.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	PEs        int    `json:"pes"`
	Width      int    `json:"width"`
	GoVersion  string `json:"go_version"`
	Seed       uint64 `json:"seed"`
	// RandSeed is what the programs' rand() builtin is seeded with.
	RandSeed uint64  `json:"rand_seed"`
	Seconds  float64 `json:"seconds"`
}

// newEnvironment pins GOMAXPROCS to the machine and derives P and the
// strip width from it: no number here is taken on one core unless the
// machine has one.
func newEnvironment(seed uint64, seconds float64) environment {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	pes := nproc
	if pes > 4 {
		pes = 4
	}
	return environment{
		NProc:      nproc,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		PEs:        pes,
		Width:      transform.DefaultWidth(pes),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		RandSeed:   particleSeeds[seed%uint64(len(particleSeeds))],
		Seconds:    seconds,
	}
}

// particleSeeds are the rand() seeds -seed chooses among. Barnes-Hut
// work depends on the octree the particles happen to build: over
// arbitrary seeds the interpreter steps of bench_sim(256, 2) spread
// ±12% (quartiles ±5%), which alone would push serial_s past any
// useful bound when the same code is run on ten seeds. These sixteen,
// the first of seeds 1..600 within 1% of the median step count at
// n=256 and within 2% at n=32, give different particles for the same
// amount of work.
var particleSeeds = [16]uint64{6, 44, 53, 119, 123, 146, 150, 251, 302, 323, 331, 350, 359, 393, 432, 473}

// reference is what a call must return: computed by the tree-walking
// oracle on the unplanned source, never by the path being timed.
type reference struct {
	Result string `json:"result"`
	Output string `json:"output"`
}

// bench is one workload, set up: references computed, programs
// compiled and planned, caches warm, server listening.
type bench struct {
	w   *workload
	env environment

	refs      map[string]reference // by call.key()
	oracle    interp.Stats         // the oracle's counters for the batch call
	planTexts []string             // by index into w.front: the plan report every pass must repeat

	serial *core.Compilation // the batch program, unplanned
	auto   *core.AutoPlan    // the batch program, planned at env.Width
	// reps is how many back-to-back runs make one batch sample, mult how
	// often each configuration occurs in schedule, the order the batch
	// phase samples them in; cursor is the next entry (see sizeBatch).
	reps, mult [numConfigs]int
	schedule   []int
	cursor     int

	srv    *serve.Server
	stop   func() // shuts the listener down and waits
	url    string
	client *http.Client
	hot    []*prepared // parallel to w.hot
	draw   []int       // weight-expanded indices into hot

	attempted int
	failed    int
	firstErr  error
}

// fail counts one wrong or failed op and keeps the first for the report.
func (b *bench) fail(err error) {
	b.failed++
	if b.firstErr == nil {
		b.firstErr = err
	}
}

// check compares one op's result with its reference.
func (b *bench) check(c call, v interp.Value, out string, err error) {
	b.attempted++
	if err != nil {
		b.fail(fmt.Errorf("%s: %w", c.key(), err))
		return
	}
	ref := b.refs[c.key()]
	if v.String() != ref.Result || out != ref.Output {
		b.fail(fmt.Errorf("%s: got %q / %q, reference %q / %q", c.key(), v.String(), out, ref.Result, ref.Output))
	}
}

// setUp does everything that precedes the first timed op. Its wall
// time is setup_s.
func setUp(w *workload, env environment) (*bench, error) {
	b := &bench{w: w, env: env, refs: map[string]reference{}}

	// References: every distinct call once, on the oracle.
	parsed := map[string]*lang.Program{}
	all := append(append([]call{w.batch}, w.front...), w.hot...)
	for _, c := range all {
		if _, ok := b.refs[c.key()]; ok {
			continue
		}
		prog := parsed[c.name]
		if prog == nil {
			var err error
			if prog, err = lang.Parse(c.source); err != nil {
				return nil, fmt.Errorf("set-up: %s: %w", c.name, err)
			}
			parsed[c.name] = prog
		}
		var out bytes.Buffer
		v, st, err := interp.Run(prog, interp.Config{Engine: interp.EngineWalk, Seed: env.RandSeed, Output: &out}, c.fn, c.args...)
		if err != nil {
			return nil, fmt.Errorf("set-up: oracle run of %s: %w", c.key(), err)
		}
		if c.key() == w.batch.key() {
			b.oracle = st
		}
		b.refs[c.key()] = reference{Result: v.String(), Output: out.String()}
	}

	// The batch program, compiled and planned; two runs of each timed
	// configuration warm the code caches and size the samples.
	var err error
	if b.serial, err = core.Compile(w.batch.source); err != nil {
		return nil, fmt.Errorf("set-up: compile %s: %w", w.batch.name, err)
	}
	if b.auto, err = b.serial.AutoParallel(env.Width); err != nil {
		return nil, fmt.Errorf("set-up: plan %s: %w", w.batch.name, err)
	}
	b.sizeBatch()

	// One front-end pass fixes the plan text every later pass must
	// repeat, and warms the allocator.
	b.planTexts = make([]string, len(w.front))
	b.frontPass(nil, nil, nil)

	if err := b.startServer(); err != nil {
		return nil, err
	}
	for i := range b.hot {
		b.request(nil, b.url, b.hot[i], b.hot[i].body, 0)
	}
	if b.failed > 0 {
		b.close()
		return nil, fmt.Errorf("set-up: %w", b.firstErr)
	}
	return b, nil
}

// startServer puts a default-configured server behind a real loopback
// listener, with at most P client connections.
func (b *bench) startServer() error {
	b.srv = serve.New(serve.Config{})
	var err error
	if b.url, b.stop, err = listen(b.srv.Handler()); err != nil {
		return fmt.Errorf("set-up: listen: %w", err)
	}
	b.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     b.env.PEs,
		MaxIdleConnsPerHost: b.env.PEs,
	}}
	for _, c := range b.w.hot {
		p, err := b.prepare(c)
		if err != nil {
			return err
		}
		b.hot = append(b.hot, p)
		for k := 0; k < c.weight; k++ {
			b.draw = append(b.draw, len(b.hot)-1)
		}
	}
	return nil
}

// close stops the server and waits for it.
func (b *bench) close() {
	if b.stop != nil {
		b.stop()
		b.client.CloseIdleConnections()
		b.srv.Close()
	}
}

// listen serves h on a loopback port until stop is called.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at stop
	return "http://" + ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			srv.Close()
		}
	}, nil
}

// frontPass is one op of the front-end phase: every source of the set,
// freshly parsed, planned, compiled and run on P PEs with its tiny
// arguments. verdict gets the time from source text to plan report,
// cold the time from source text to first result.
func (b *bench) frontPass(rec *recorder, verdict, cold *samples) {
	root := rec.op("front.pass")
	var vsum, csum time.Duration
	for i, c := range b.w.front {
		t0 := time.Now()
		sp := rec.start(root, "lang.parse")
		prog, err := lang.Parse(c.source)
		rec.end(sp)
		if err != nil {
			b.check(c, interp.Value{}, "", err)
			continue
		}
		sp = rec.start(root, "transform.plan")
		plan, err := transform.AutoParallelize(prog, b.env.Width)
		rec.end(sp)
		tv := time.Since(t0)
		if err != nil {
			b.check(c, interp.Value{}, "", err)
			continue
		}
		rec.count(sp, "loops", float64(len(plan.Loops)))
		rec.count(sp, "loops_parallelized", float64(plan.Parallelized))

		sp = rec.start(root, "interp.codegen")
		cp := interp.CompileProgram(plan.Program)
		rec.end(sp)
		var out bytes.Buffer
		sp = rec.start(root, fmt.Sprintf("parexec.run.pes%d", b.env.PEs))
		v, st, err := parexec.Run(plan.Program, parexec.Options{
			Compiled: cp, PEs: b.env.PEs, Seed: b.env.RandSeed, Output: &out,
		}, c.fn, c.args...)
		rec.end(sp)
		tc := time.Since(t0)
		rec.count(sp, "steps", float64(st.Steps))
		rec.count(sp, "barriers", float64(st.Barriers))
		if err == nil {
			err = cp.Err()
		}
		vsum += tv
		csum += tc

		b.check(c, v, out.String(), err)
		if text := plan.String(); b.planTexts[i] == "" {
			b.planTexts[i] = text
		} else if text != b.planTexts[i] {
			b.fail(fmt.Errorf("%s: plan report changed between passes", c.name))
		}
	}
	rec.end(root)
	if verdict != nil {
		verdict.add(vsum.Seconds())
		cold.add(csum.Seconds())
	}
}

// The three ways the batch program is run and timed.
const (
	cfgSerial = iota // unplanned, Compilation.Run, default engine: serial_s
	cfgRun           // planned, RunParallel on P PEs, default engine: run_s
	cfgKernel        // planned, RunParallel on P PEs, kernel engine: run_kernel_s
	numConfigs
)

// batchSample runs one configuration of the batch program reps[cfg]
// times back to back, checks the result, and returns seconds per run.
func (b *bench) batchSample(rec *recorder, root, cfg int) float64 {
	c := b.w.batch
	pes := b.env.PEs
	// The zero engine is whatever a caller who sets nothing gets.
	var eng interp.Engine
	name := "interp.exec." + eng.String()
	switch cfg {
	case cfgRun:
		name = fmt.Sprintf("parexec.run.pes%d.%s", pes, eng)
	case cfgKernel:
		eng = interp.EngineKernel
		name = fmt.Sprintf("parexec.run.pes%d.%s", pes, eng)
	}
	var out bytes.Buffer
	var v interp.Value
	var st interp.Stats
	var err error
	sp := rec.start(root, name)
	t0 := time.Now()
	for k := 0; k < b.reps[cfg] && err == nil; k++ {
		out.Reset()
		rc := core.RunConfig{Engine: eng, Seed: b.env.RandSeed, Output: &out}
		if cfg == cfgSerial {
			v, st, err = b.serial.Run(rc, c.fn, c.args...)
		} else {
			v, st, err = b.auto.RunParallel(rc, pes, c.fn, c.args...)
		}
	}
	per := time.Since(t0).Seconds() / float64(b.reps[cfg])
	rec.end(sp)
	rec.count(sp, "steps", float64(st.Steps))
	rec.count(sp, "barriers", float64(st.Barriers))
	b.check(c, v, out.String(), err)
	return per
}

// batchNext is one op of the batch phase: one sample of the next
// configuration in the schedule. The schedule interleaves the three,
// so drift hits all three alike, and samples the short configurations
// more often than the long one, so that all three get about the same
// share of the phase.
func (b *bench) batchNext(rec *recorder, into *[numConfigs]samples) {
	cfg := b.schedule[b.cursor%len(b.schedule)]
	b.cursor++
	root := rec.op("batch.sample")
	into[cfg].add(b.batchSample(rec, root, cfg))
	rec.end(root)
}

// sizeBatch sets reps so that a sample lasts at least 2 ms (tiny
// programs run in microseconds) and the schedule so that a
// configuration whose sample is k times shorter than the longest is
// sampled k times as often (at most 8): a low percentile over a handful of
// 30 ms parallel runs is the noisiest number here.
func (b *bench) sizeBatch() {
	var sample [numConfigs]float64
	longest := 0.0
	for cfg := 0; cfg < numConfigs; cfg++ {
		b.reps[cfg] = 1
		b.batchSample(nil, 0, cfg) // warms the code caches
		per := b.batchSample(nil, 0, cfg)
		if per < 2e-3 {
			b.reps[cfg] = int(2e-3/per) + 1
		}
		sample[cfg] = per * float64(b.reps[cfg])
		longest = math.Max(longest, sample[cfg])
	}
	b.schedule = b.schedule[:0]
	for cfg := range sample {
		b.mult[cfg] = int(math.Min(8, math.Round(longest/sample[cfg])))
	}
	for k := 0; k < 8; k++ {
		for cfg := range sample {
			if k < b.mult[cfg] {
				b.schedule = append(b.schedule, cfg)
			}
		}
	}
}

// until runs op until the deadline, and at least min times.
func until(deadline time.Time, min int, op func()) {
	for n := 0; n < min || time.Now().Before(deadline); n++ {
		op()
	}
}
