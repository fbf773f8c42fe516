package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/depend"
	"repro/internal/effects"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/parexec"
	"repro/internal/sequent"
	"repro/internal/serve"
	"repro/internal/transform"
)

// ledger measures the per-layer metrics of one workload: each layer
// timed from outside, by calling its exported functions on the
// workload's own programs, with the counts read at the same boundary.
type ledger struct {
	b   *bench
	rec *recorder
	m   map[string]measured
	// budget is how long one probe samples for.
	budget time.Duration
}

// sample calls f (which returns the time it wants counted) until the
// budget is used up, at least three times. In the trace each call is a
// stand-alone span.
func (l *ledger) sample(name string, f func() time.Duration) samples {
	var s samples
	until(time.Now().Add(l.budget), 3, func() {
		sp := l.rec.op(name)
		l.rec.standalone(sp)
		s.add(f().Seconds())
		l.rec.end(sp)
	})
	return s
}

// probe files the median of sample under name.
func (l *ledger) probe(name, unit string, scale float64, f func() time.Duration) {
	l.m[name] = fromSamples(l.sample(name, f), unit, scale)
}

func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

func (l *ledger) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	l.m[name] = number(v, unit)
}

func (l *ledger) val(name string) float64 { return l.m[name].Value }

// must turns a layer's error into a failed op: a layer that cannot run
// its own workload is a wrong result, not a missing number.
func (l *ledger) must(what string, err error) bool {
	if err != nil {
		l.b.fail(fmt.Errorf("%s: %w", what, err))
		return false
	}
	return true
}

// same requires a count to repeat exactly wherever it is read.
func (l *ledger) same(what string, got, want int64) {
	if got != want {
		l.b.fail(fmt.Errorf("%s does not repeat: %d, then %d", what, want, got))
	}
}

// frontEnd measures lang, analysis, effects, depend, transform and core
// over the workload's source set; one sample is one pass over the set.
// It returns the planned programs for the codegen probes.
func (l *ledger) frontEnd() []*lang.Program {
	b := l.b
	set := b.w.front
	width := b.env.Width

	bytesTotal := 0
	for _, c := range set {
		bytesTotal += len(c.source)
	}
	l.probe("lang.lex_s", "s", 1, func() time.Duration {
		return timeIt(func() {
			for _, c := range set {
				_, err := lang.LexAll(c.source)
				l.must("lang.LexAll "+c.name, err)
			}
		})
	})
	progs := make([]*lang.Program, len(set))
	l.probe("lang.parse_s", "s", 1, func() time.Duration {
		return timeIt(func() {
			for i, c := range set {
				var err error
				progs[i], err = lang.Parse(c.source)
				l.must("lang.Parse "+c.name, err)
			}
		})
	})
	l.set("lang.src_bytes", float64(bytesTotal), "B")
	l.set("lang.bytes_per_s", float64(bytesTotal)/l.val("lang.parse_s"), "B/s")

	results := make([]*analysis.Result, len(set))
	funcs := 0
	l.probe("analysis.analyze_all_s", "s", 1, func() time.Duration {
		return timeIt(func() {
			funcs = 0
			for i, p := range progs {
				var err error
				results[i], err = analysis.New(p).AnalyzeAll()
				if l.must("analysis "+set[i].name, err) {
					funcs += len(results[i].Funcs)
				}
			}
		})
	})
	l.set("analysis.funcs", float64(funcs), "count")

	effs := make([]*effects.Analyzer, len(set))
	l.probe("effects.summaries_s", "s", 1, func() time.Duration {
		return timeIt(func() {
			for i, p := range progs {
				effs[i] = effects.NewAnalyzer(p)
			}
		})
	})

	// The dependence test alone, on every while loop, with the analyses
	// it consumes already computed.
	type loopAt struct {
		prog  int
		fn    string
		index int
	}
	var loops []loopAt
	for i, p := range progs {
		for _, f := range p.Funcs {
			n := 0
			lang.Walk(f.Body, func(s lang.Stmt) bool {
				if _, ok := s.(*lang.WhileStmt); ok {
					loops = append(loops, loopAt{i, f.Name, n})
					n++
				}
				return true
			})
		}
	}
	approved := 0
	l.probe("depend.loops_s", "s", 1, func() time.Duration {
		return timeIt(func() {
			approved = 0
			for _, at := range loops {
				rep, err := depend.AnalyzeLoop(progs[at.prog], results[at.prog].Funcs[at.fn], effs[at.prog], at.fn, at.index)
				if l.must("depend "+at.fn, err) && rep.Parallelizable {
					approved++
				}
			}
		})
	})
	l.set("depend.loops_tested", float64(len(loops)), "count")
	l.set("depend.loops_approved", float64(approved), "count")
	l.set("depend.approved_ratio", float64(approved)/float64(len(loops)), "ratio")

	// The planner: dependence tests, strip-mining and incremental
	// re-analysis together. The plan's hash must repeat exactly.
	plans := make([]*transform.Plan, len(set))
	var sha, firstSHA uint64
	l.probe("transform.plan_s", "s", 1, func() time.Duration {
		d := timeIt(func() {
			for i, p := range progs {
				var err error
				plans[i], err = transform.AutoParallelize(p, width)
				l.must("transform.AutoParallelize "+set[i].name, err)
			}
		})
		h := sha256.New()
		for _, pl := range plans {
			if pl != nil {
				io.WriteString(h, pl.String())
				io.WriteString(h, lang.Format(pl.Program))
			}
		}
		// 48 bits: every value is exact in a float64.
		sha = binary.BigEndian.Uint64(h.Sum(nil)[:8]) >> 16
		if firstSHA == 0 {
			firstSHA = sha
		}
		l.same("transform.plan_sha", int64(sha), int64(firstSHA))
		return d
	})
	var nLoops, par, rej, vec int
	planned := make([]*lang.Program, 0, len(set))
	for _, pl := range plans {
		if pl == nil {
			continue
		}
		planned = append(planned, pl.Program)
		nLoops += len(pl.Loops)
		for _, lp := range pl.Loops {
			switch {
			case lp.Parallelized && lp.Vectorized:
				vec++
				par++
			case lp.Parallelized:
				par++
			case !lp.Absorbed:
				rej++
			}
		}
	}
	l.set("transform.plan_s_per_loop", l.val("transform.plan_s")/float64(nLoops), "s")
	l.set("transform.loops_parallelized", float64(par), "count")
	l.set("transform.loops_rejected", float64(rej), "count")
	l.set("transform.loops_vectorized", float64(vec), "count")
	l.set("transform.plan_sha", float64(sha), "hash48")

	// One strip-mine rewrite per source: its first approved loop.
	l.probe("transform.strip_mine_s", "s", 1, func() time.Duration {
		var d time.Duration
		for i, pl := range plans {
			if pl == nil {
				continue
			}
			for _, lp := range pl.Loops {
				if lp.Parallelized {
					d += timeIt(func() {
						_, err := transform.StripMine(progs[i], lp.Func, lp.Index, width)
						l.must("transform.StripMine "+lp.Func, err)
					})
					break
				}
			}
		}
		return d
	})

	// The same work through core's front door, as a caller sees it.
	comps := make([]*core.Compilation, len(set))
	l.probe("core.compile_s", "s", 1, func() time.Duration {
		return timeIt(func() {
			for i, c := range set {
				var err error
				comps[i], err = core.Compile(c.source)
				l.must("core.Compile "+c.name, err)
			}
		})
	})
	l.probe("core.auto_parallel_s", "s", 1, func() time.Duration {
		// AutoParallel memoizes per Compilation: each sample needs
		// fresh ones, compiled off the clock.
		for i, c := range set {
			comps[i], _ = core.Compile(c.source)
		}
		return timeIt(func() {
			for i, c := range comps {
				if c != nil {
					_, err := c.AutoParallel(width)
					l.must("core.AutoParallel "+set[i].name, err)
				}
			}
		})
	})
	return planned
}

// codegen measures what a cache miss builds after planning: the IR,
// the bytecode, and both together with the closure backend.
func (l *ledger) codegen(planned []*lang.Program) {
	cps := make([]*compile.Program, len(planned))
	funcs := 0
	l.probe("compile.compile_s", "s", 1, func() time.Duration {
		return timeIt(func() {
			funcs = 0
			for i, p := range planned {
				var err error
				cps[i], err = compile.Compile(p)
				if l.must("compile.Compile", err) {
					funcs += len(cps[i].Funcs)
				}
			}
		})
	})
	l.set("compile.funcs", float64(funcs), "count")

	var instrs, firstInstrs int64 = 0, -1
	l.probe("bytecode.lower_s", "s", 1, func() time.Duration {
		instrs = 0
		d := timeIt(func() {
			for _, cp := range cps {
				if cp == nil {
					continue
				}
				bc, err := bytecode.Compile(cp)
				if l.must("bytecode.Compile", err) {
					for _, f := range bc.Funcs {
						instrs += int64(len(f.Code))
					}
				}
			}
		})
		if firstInstrs < 0 {
			firstInstrs = instrs
		}
		l.same("bytecode.instrs", instrs, firstInstrs)
		return d
	})
	l.set("bytecode.instrs", float64(instrs), "count")

	l.probe("interp.codegen_s", "s", 1, func() time.Duration {
		// The interpreter memoizes code per program pointer: a clone is
		// a program it has never seen, like a cache miss's fresh parse.
		fresh := make([]*lang.Program, len(planned))
		for i, p := range planned {
			fresh[i] = p.Clone()
		}
		return timeIt(func() {
			for _, p := range fresh {
				l.must("interp.CompileProgram", interp.CompileProgram(p).Err())
			}
		})
	})
	l.set("interp.codegen_self_s", l.val("interp.codegen_s")-l.val("compile.compile_s")-l.val("bytecode.lower_s"), "s")
}

// inlineRun runs a planned program with its foralls executed in place,
// one iteration after another on the calling goroutine: strip-mining
// and the vector path without a pool.
func inlineRun(cp *interp.CompiledProgram, cfg interp.Config, fn string, args []interp.Value) (interp.Value, interp.Stats, error) {
	var worker *interp.Interp
	cfg.Forall = func(_ lang.Pos, from, to int64, run func(w *interp.Interp, k int64) error) error {
		for k := from; k <= to; k++ {
			if err := run(worker, k); err != nil {
				return err
			}
		}
		return nil
	}
	root := interp.NewCompiled(cp, cfg)
	worker = root.Fork(cfg.Output)
	v, err := root.Call(fn, args...)
	return v, root.Stats(), err
}

// exec measures the engines and the pool on the workload's batch
// program, and checks that the exact counts repeat across them.
func (l *ledger) exec() {
	b := l.b
	c := b.w.batch
	pes := b.env.PEs
	cpSerial := interp.CompileProgram(b.serial.Program)
	cpPlanned := interp.CompileProgram(b.auto.Program)

	// run times one configuration, reps runs to a sample, checking
	// every result; last holds the last run's counters.
	reps := b.reps[cfgSerial]
	var last interp.Stats
	run := func(name string, f func(out io.Writer) (interp.Value, interp.Stats, error)) {
		l.probe(name, "s", 1, func() time.Duration {
			var out bytes.Buffer
			var v interp.Value
			var err error
			t0 := time.Now()
			for k := 0; k < reps && err == nil; k++ {
				out.Reset()
				v, last, err = f(&out)
			}
			d := time.Since(t0) / time.Duration(reps)
			b.check(c, v, out.String(), err)
			return d
		})
	}
	serialOn := func(eng interp.Engine) func(io.Writer) (interp.Value, interp.Stats, error) {
		return func(out io.Writer) (interp.Value, interp.Stats, error) {
			return interp.RunCompiled(cpSerial, interp.Config{Engine: eng, Seed: b.env.RandSeed, Output: out}, c.fn, c.args...)
		}
	}
	inlineOn := func(eng interp.Engine) func(io.Writer) (interp.Value, interp.Stats, error) {
		return func(out io.Writer) (interp.Value, interp.Stats, error) {
			return inlineRun(cpPlanned, interp.Config{Engine: eng, Seed: b.env.RandSeed, Output: out}, c.fn, c.args)
		}
	}
	poolOn := func(eng interp.Engine, n int, prof *obs.ForallProfiler) func(io.Writer) (interp.Value, interp.Stats, error) {
		return func(out io.Writer) (interp.Value, interp.Stats, error) {
			return parexec.Run(b.auto.Program, parexec.Options{
				Interp: eng, Compiled: cpPlanned, PEs: n, Seed: b.env.RandSeed, Output: out, Profiler: prof,
			}, c.fn, c.args...)
		}
	}

	// Unplanned, serial: the engines themselves. Steps and node
	// allocations are the program's, whatever runs it.
	run("interp.exec_s.compiled", serialOn(interp.EngineCompiled))
	steps, allocs := last.Steps, last.Allocations
	l.same("interp.steps (compiled vs walk oracle)", steps, b.oracle.Steps)
	l.same("interp.node_allocs (compiled vs walk oracle)", allocs, b.oracle.Allocations)
	run("interp.exec_s.bytecode", serialOn(interp.EngineBytecode))
	l.same("interp.steps (bytecode vs compiled)", last.Steps, steps)
	l.same("interp.node_allocs (bytecode vs compiled)", last.Allocations, allocs)
	l.set("interp.steps", float64(steps), "count")
	l.set("interp.node_allocs", float64(allocs), "count")

	// Planned, foralls in place: strip-mining's own cost, and the
	// vector path, without goroutines.
	run("interp.exec_planned_s.bytecode", inlineOn(interp.EngineBytecode))
	plannedSteps := last.Steps
	run("interp.exec_planned_s.kernel", inlineOn(interp.EngineKernel))
	l.same("interp.steps of the planned program (kernel vs bytecode)", last.Steps, plannedSteps)
	l.same("interp.node_allocs of the planned program", last.Allocations, allocs)

	l.set("interp.steps_per_s.compiled", float64(steps)/l.val("interp.exec_s.compiled"), "1/s")
	l.set("interp.steps_per_s.bytecode", float64(steps)/l.val("interp.exec_s.bytecode"), "1/s")
	l.set("interp.steps_per_s.kernel", float64(plannedSteps)/l.val("interp.exec_planned_s.kernel"), "1/s")

	// Go heap traffic per run, by engine.
	for _, e := range []struct {
		name string
		f    func(io.Writer) (interp.Value, interp.Stats, error)
	}{
		{"compiled", serialOn(interp.EngineCompiled)},
		{"bytecode", serialOn(interp.EngineBytecode)},
		{"kernel", inlineOn(interp.EngineKernel)},
	} {
		mallocs, bytesPer := heapTraffic(reps, func() { e.f(io.Discard) }) //nolint:errcheck // checked by the timed probes above
		l.set("interp.go_allocs_per_op."+e.name, mallocs, "count")
		l.set("interp.go_bytes_per_op."+e.name, bytesPer, "B")
	}

	// The pool: one PE (dispatch and barriers with nothing to gain),
	// then P.
	var barriers int64 = -1
	for _, eng := range []interp.Engine{interp.EngineBytecode, interp.EngineKernel} {
		for _, n := range []int{1, pes} {
			label := fmt.Sprintf("pes%d", n)
			if n == pes {
				label = "pesP"
			}
			run("parexec.run_s."+label+"."+eng.String(), poolOn(eng, n, nil))
			if barriers < 0 {
				barriers = last.Barriers
			}
			what := fmt.Sprintf("(%s, %d PEs)", eng, n)
			l.same("parexec.barriers "+what, last.Barriers, barriers)
			l.same("interp.steps of the planned program "+what, last.Steps, plannedSteps)
		}
	}
	l.set("parexec.barriers", float64(barriers), "count")
	l.set("parexec.us_per_barrier",
		(l.val("parexec.run_s.pes1.bytecode")-l.val("interp.exec_planned_s.bytecode"))/float64(barriers)*1e6, "us")
	for _, eng := range []string{"bytecode", "kernel"} {
		sp := l.val("interp.exec_s.bytecode") / l.val("parexec.run_s.pesP."+eng)
		l.set("parexec.speedup."+eng, sp, "ratio")
		l.set("parexec.efficiency."+eng, sp/float64(pes), "ratio")
	}

	// One profiled run on P PEs: where the PE-time of the barriers went.
	prof := obs.NewForallProfiler()
	var out bytes.Buffer
	v, _, err := poolOn(interp.EngineKernel, pes, prof)(&out)
	b.check(c, v, out.String(), err)
	var wall, busy, wait, imb, tasks, gather, scatter float64
	for _, site := range prof.Report() {
		w := float64(site.WallUS)
		wall += w
		busy += site.BusyPct * w
		wait += site.WaitPct * w
		imb += site.Imbalance * w
		tasks += float64(site.Tasks)
		gather += float64(site.GatherUS)
		scatter += float64(site.ScatterUS)
	}
	l.set("parexec.busy_pct", busy/wall, "%")
	l.set("parexec.wait_pct", wait/wall, "%")
	l.set("parexec.imbalance", imb/wall, "ratio")
	l.set("parexec.tasks", tasks, "count")
	l.set("parexec.kernel_gather_us", gather, "us")
	l.set("parexec.kernel_scatter_us", scatter, "us")

	// The machine model's prediction beside the measured speed-up:
	// simulated cycles, serial program over planned program on P PEs.
	one, p := sequent.NewMachine(1), sequent.NewMachine(pes)
	one.Seed, p.Seed = b.env.RandSeed, b.env.RandSeed
	ser, err1 := one.Run(b.serial.Program, c.fn, c.args...)
	par, err2 := p.Run(b.auto.Program, c.fn, c.args...)
	if l.must("sequent serial", err1) && l.must("sequent planned", err2) {
		l.set("sequent.sim_speedup", float64(ser.Cycles)/float64(par.Cycles), "ratio")
	}

	// The Go twin of the paper's program at bh_sim's size: how fast
	// this machine runs the same algorithm natively.
	l.probe("nbody.native_s", "s", 1, func() time.Duration {
		return timeIt(func() {
			sys := nbody.NewUniform(256, b.env.RandSeed, 0.5, 0.01)
			sys.Step()
			sys.Step()
		})
	})

	// What a request pays before its first statement runs.
	nop := interp.CompileProgram(lang.MustParse("function int nop() { return 0; }"))
	l.probe("interp.setup_us", "us", 1e6, func() time.Duration {
		const batch = 200
		d := timeIt(func() {
			for k := 0; k < batch; k++ {
				interp.NewCompiled(nop, interp.Config{}).Call("nop") //nolint:errcheck // a constant function
			}
		})
		return d / batch
	})
}

// heapTraffic reports Go heap allocations and bytes per call of f.
func heapTraffic(n int, f func()) (mallocs, bytesPer float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := 0; k < n; k++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// serveLayers splits a hot request of the workload's first kind into
// what the server does and what surrounds it.
func (l *ledger) serveLayers(plain, traced *pass) {
	b := l.b
	p := b.hot[0]
	ctx := context.Background()

	var resp serve.Response
	l.probe("serve.run_us", "us", 1e6, func() time.Duration {
		var err error
		d := timeIt(func() { resp, err = b.srv.Run(ctx, p.req) })
		b.attempted++
		if err == nil && (!resp.OK || resp.Result != p.ref.Result || resp.Output != p.ref.Output) {
			err = fmt.Errorf("direct Run of %s: ok=%t result %q (%s)", p.call.key(), resp.OK, resp.Result, resp.Error)
		}
		l.must("serve.Run", err)
		return d
	})
	postTo := func(url string) func() time.Duration {
		return func() time.Duration { return b.request(nil, url, p, p.body, 0) }
	}
	l.probe("serve.http_us", "us", 1e6, postTo(b.url))
	l.set("serve.http_overhead_us", l.val("serve.http_us")-l.val("serve.run_us"), "us")

	// The same call with no server around it: interpreter set-up plus
	// execution, on a handle built the way the cache builds it.
	prog, err := lang.Parse(p.call.source)
	if l.must("lang.Parse "+p.call.name, err) {
		if p.call.auto {
			plan, err := transform.AutoParallelize(prog, b.env.Width)
			if l.must("plan "+p.call.name, err) {
				prog = plan.Program
			}
		}
		cp := interp.CompileProgram(prog)
		l.probe("serve.exec_us", "us", 1e6, func() time.Duration {
			var out bytes.Buffer
			var v interp.Value
			var err error
			d := timeIt(func() {
				if p.call.auto {
					v, _, err = parexec.Run(prog, parexec.Options{Compiled: cp, PEs: b.env.PEs, Seed: b.env.RandSeed, Output: &out}, p.call.fn, p.call.args...)
				} else {
					v, _, err = interp.RunCompiled(cp, interp.Config{Seed: b.env.RandSeed, Output: &out}, p.call.fn, p.call.args...)
				}
			})
			b.check(p.call, v, out.String(), err)
			return d
		})
		l.set("serve.run_overhead_us", l.val("serve.run_us")-l.val("serve.exec_us"), "us")
	}

	// encoding/json on the wire types, alone.
	encoded, err := json.Marshal(resp)
	l.must("encode response", err)
	const batch = 50
	l.probe("serve.decode_us", "us", 1e6, func() time.Duration {
		return timeIt(func() {
			for k := 0; k < batch; k++ {
				var req serve.Request
				l.must("decode request", json.NewDecoder(bytes.NewReader(p.body)).Decode(&req))
			}
		}) / batch
	})
	l.probe("serve.encode_us", "us", 1e6, func() time.Duration {
		return timeIt(func() {
			for k := 0; k < batch; k++ {
				l.must("encode response", json.NewEncoder(io.Discard).Encode(resp))
			}
		}) / batch
	})
	l.set("serve.req_bytes", float64(len(p.body)), "B")
	l.set("serve.resp_bytes", float64(len(encoded)+1), "B")

	// Go heap traffic of one hot round trip, client and server
	// together (they share the process).
	mallocs, bytesPer := heapTraffic(200, func() { b.request(nil, b.url, p, p.body, 0) })
	l.set("serve.go_allocs_per_req", mallocs, "count")
	l.set("serve.go_bytes_per_req", bytesPer, "B")

	// The router in front of two embedded replicas, against the direct
	// path measured above.
	replicas := []*serve.Server{serve.New(serve.Config{}), serve.New(serve.Config{})}
	router, err := serve.NewRouter(serve.RouterConfig{Embedded: replicas})
	if l.must("serve.NewRouter", err) {
		url, stop, err := listen(router.Handler())
		if l.must("listen", err) {
			post := postTo(url)
			post() // the owning replica's first sight of the program
			l.probe("serve.router_us", "us", 1e6, post)
			l.set("serve.router_hop_us", l.val("serve.router_us")-l.val("serve.http_us"), "us")
			stop()
		}
		router.Close()
	}
	for _, r := range replicas {
		r.Close()
	}

	// The same server with every request traced, against none traced.
	tracedSrv := serve.New(serve.Config{TraceRate: 1})
	if url, stop, err := listen(tracedSrv.Handler()); l.must("listen", err) {
		post := postTo(url)
		post()
		on := l.sample("serve.http.traced", post)
		off := l.sample("serve.http.untraced", postTo(b.url))
		l.set("obs.trace_overhead_ratio", on.median()/off.median(), "ratio")
		stop()
	}
	tracedSrv.Close()

	// The server's own spans, from the profiled replies of the traced pass.
	spans := loadStats{}
	spans.merge(traced.open)
	spans.merge(traced.closed)
	for _, name := range []string{"admission", "cache", "execute", "merge"} {
		if s := spans.spans[name]; s != nil {
			l.m["serve.span_"+name+"_us"] = fromSamples(*s, "us", 1)
		} else {
			l.set("serve.span_"+name+"_us", 0, "us")
		}
	}

	// The load phases of the untraced pass, from both ends.
	l.set("serve.lat_p50_ms", plain.open.lat.median()*1e3, "ms")
	l.m["serve.lat_p99_ms"] = number(quantile(plain.open.lat.sorted(), 0.99)*1e3, "ms")
	l.set("serve.gen_late_p99_ms", quantile(plain.open.late.sorted(), 0.99)*1e3, "ms")
	mixMiss := append(append(samples{}, plain.open.missLat...), plain.closed.missLat...)
	l.set("serve.mix_miss_p50_ms", mixMiss.median()*1e3, "ms")
	load := plain.load
	l.set("serve.cache_hit_ratio", float64(load.Cache.Hits)/float64(load.Cache.Hits+load.Cache.Misses), "ratio")
	l.set("serve.cache_evictions", float64(load.Cache.Evictions), "count")
	l.set("serve.compiles", float64(load.Cache.Compiles), "count")
	l.set("serve.rejected", float64(load.Rejected), "count")
	l.set("serve.abandoned", float64(load.Abandoned), "count")
}

// runTraced is the -trace 1 run: one set-up, a short untraced pass, the
// same pass with the span recorder on, then the layer probes. The
// end-to-end numbers of record always come from runEndToEnd.
func runTraced(w *workload, env environment, outDir string) *outcome {
	o := &outcome{workload: w.name, env: env, metrics: map[string]measured{}}
	b, err := setUp(w, env)
	if err != nil {
		o.firstErr = err
		return o
	}
	defer b.close()

	third := env.Seconds / 3
	plain := b.runPass(nil, third)
	rec := newRecorder()
	traced := b.runPass(rec, third)

	l := &ledger{b: b, rec: rec, m: o.metrics, budget: time.Duration(env.Seconds / 100 * float64(time.Second))}
	l.codegen(l.frontEnd())
	l.exec()
	l.serveLayers(plain, traced)

	// Tracing overhead: the traced pass over the untraced one, as the
	// geometric mean over the end-to-end timings.
	pe, te := plain.endToEnd(), traced.endToEnd()
	logSum, n := 0.0, 0
	for name, m := range pe {
		r := te[name].Value / m.Value
		if name == "rps" {
			r = 1 / r
		}
		if r > 0 && !math.IsInf(r, 0) && !math.IsNaN(r) {
			logSum += math.Log(r)
			n++
		}
	}
	l.set("bench.trace_overhead_ratio", math.Exp(logSum/float64(n)), "ratio")
	l.set("bench.slowdown", plain.slow.median(), "ratio")
	l.set("bench.fail_ratio", float64(b.failed)/float64(b.attempted), "ratio")

	path, err := rec.write(outDir, w.name, env)
	if err != nil {
		b.fail(fmt.Errorf("write trace: %w", err))
	}
	o.attempted, o.failed, o.firstErr = b.attempted, b.failed, b.firstErr
	o.notes = append(plain.notes(b), fmt.Sprintf("trace       %d spans in %s", len(rec.spans), path))
	o.refs, o.oracle = b.refs, b.oracle
	return o
}
