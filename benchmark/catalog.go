package main

// defaultSeconds is BENCHMARK.json's run_seconds: what one run measures
// for when -seconds is not given.
const defaultSeconds = 28

// move is a prediction written down before measuring: this layer
// metric should move that end-to-end metric on that workload.
// Everywhere else the prediction is "no change".
type move struct{ metric, workload string }

// metricDef names one metric. BENCHMARK.json repeats Name, Unit, Better
// and (end-to-end only) Bound; the smoke test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median it may worsen by
	Doc    string
	Moves  []move
}

// endToEndDefs are the numbers a user of the system sees. Every
// workload reports every one of them, on its own programs. Each sample
// is corrected for the machine's speed in the slice it was taken in
// (calib.go), and the better quartile of the corrected samples is
// reported (see steadied); setup_s is the median of the run's corrected
// set-ups.
//
// The bounds are 0.25 throughout, not the 0.10 the metrics deserve: on
// the 2-vCPU sandbox this was sized on, identical single-threaded work
// drifts by 10-30% over minutes, and ten runs of the same code on ten
// seeds spread 3-15% (interquartile, over their median) on these
// timings even after the correction. A bound the benchmark's own noise
// exceeds rejects nothing but the benchmark. README.md has the
// measurements.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "wall time before the first timed op: oracle references, compile and plan the batch program, one warm pass, start the listener, first-touch every hot request; median of at least three set-ups"},
	{Name: "verdict_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "source text to plan report (lang.Parse then transform.AutoParallelize), summed over one pass of the workload's source set"},
	{Name: "cold_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "source text to first result: verdict, interp.CompileProgram and a tiny run on P PEs, summed over one pass"},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "AutoPlan.RunParallel of the batch program on P PEs with core.RunConfig{}: the engine a caller who sets nothing gets"},
	{Name: "run_kernel_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "the same with Engine: interp.EngineKernel, the fastest production path"},
	{Name: "serial_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "the unplanned batch program, Compilation.Run, default engine: what the user had without the tool"},
	{Name: "lat_p25_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "open loop at the workload's reference rate over at most P connections, timed from when each request was due; first quartile (the median as measured is serve.lat_p50_ms)"},
	{Name: "rps", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "closed loop, P clients: completed-and-correct requests per second, third quartile over the run's slices"},
	{Name: "cold_p25_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "never-seen sources posted one at a time to an otherwise idle server, mean over the workload's request kinds: what a cache miss costs; first quartile"},
}

// on is shorthand for predictions that name several workloads.
func on(metric string, workloads ...string) []move {
	var out []move
	for _, w := range workloads {
		out = append(out, move{metric, w})
	}
	return out
}

func join(ms ...[]move) []move {
	var out []move
	for _, m := range ms {
		out = append(out, m...)
	}
	return out
}

var (
	frontMoves   = join(on("verdict_s", "plan_cold"), on("cold_s", "plan_cold"), on("cold_p25_ms", "serve_mix", "plan_cold"))
	verdictMoves = on("verdict_s", "plan_cold")
	planMoves    = join(on("verdict_s", "plan_cold"), on("cold_p25_ms", "plan_cold", "serve_mix"))
	codegenMoves = join(on("cold_s", "plan_cold"), on("cold_p25_ms", "serve_mix", "plan_cold"))
	closureMoves = join(on("serial_s", "bh_sim", "vec_sweep"), on("run_s", "bh_sim", "vec_sweep"))
	vmMoves      = on("run_kernel_s", "bh_sim", "vec_sweep")
	setupMoves   = join(on("lat_p25_ms", "plan_cold"), on("rps", "plan_cold"))
	barrierMoves = join(on("run_s", "vec_sweep"), on("run_kernel_s", "vec_sweep", "plan_cold"))
	balanceMoves = join(on("run_s", "bh_sim"), on("run_kernel_s", "bh_sim"))
	envelope     = join(on("lat_p25_ms", "plan_cold"), on("rps", "plan_cold"))
	cacheMoves   = join(on("cold_p25_ms", "serve_mix"), on("rps", "serve_mix"), on("lat_p25_ms", "serve_mix"))
)

// perLayerDefs is the ledger: the layers are this repository's
// packages, measured from here by timing calls into their exported
// functions. adds and pathmatrix have no call on these paths that is
// not inside lang.Parse or analysis, so they have no row.
var perLayerDefs = []metricDef{
	// lang
	{Name: "lang.lex_s", Unit: "s", Better: "lower", Moves: frontMoves, Doc: "lang.LexAll over the source set"},
	{Name: "lang.parse_s", Unit: "s", Better: "lower", Moves: frontMoves, Doc: "lang.Parse (lex, parse, check, normalize) over the source set"},
	{Name: "lang.src_bytes", Unit: "B", Better: "lower", Moves: frontMoves, Doc: "bytes of source in one pass"},
	{Name: "lang.bytes_per_s", Unit: "B/s", Better: "higher", Moves: frontMoves, Doc: "src_bytes / parse_s"},
	// analysis, effects, depend: stand-alone; transform.plan repeats them internally
	{Name: "analysis.analyze_all_s", Unit: "s", Better: "lower", Moves: verdictMoves, Doc: "path-matrix analysis of every function, once"},
	{Name: "analysis.funcs", Unit: "count", Better: "lower", Moves: verdictMoves, Doc: "functions analysed"},
	{Name: "effects.summaries_s", Unit: "s", Better: "lower", Moves: verdictMoves, Doc: "effects.NewAnalyzer: summaries closed over the call graph"},
	{Name: "depend.loops_s", Unit: "s", Better: "lower", Moves: verdictMoves, Doc: "depend.AnalyzeLoop on every while loop, analyses precomputed"},
	{Name: "depend.loops_tested", Unit: "count", Better: "lower", Moves: verdictMoves, Doc: "while loops tested"},
	{Name: "depend.loops_approved", Unit: "count", Better: "higher", Moves: verdictMoves, Doc: "loops the test approves in the input program"},
	{Name: "depend.approved_ratio", Unit: "ratio", Better: "higher", Moves: verdictMoves, Doc: "approved / tested: useful outcomes over attempts"},
	// transform, core
	{Name: "transform.plan_s", Unit: "s", Better: "lower", Moves: planMoves, Doc: "transform.AutoParallelize on parsed programs"},
	{Name: "transform.plan_s_per_loop", Unit: "s", Better: "lower", Moves: planMoves, Doc: "plan_s / loops in the plan"},
	{Name: "transform.strip_mine_s", Unit: "s", Better: "lower", Moves: planMoves, Doc: "one transform.StripMine per source, on its first approved loop"},
	{Name: "transform.loops_parallelized", Unit: "count", Better: "higher", Moves: planMoves, Doc: "loops strip-mined"},
	{Name: "transform.loops_rejected", Unit: "count", Better: "lower", Moves: planMoves, Doc: "loops left serial with a reason"},
	{Name: "transform.loops_vectorized", Unit: "count", Better: "higher", Moves: join(planMoves, on("run_kernel_s", "vec_sweep")), Doc: "strip-mined loops the kernel classifier also accepts"},
	{Name: "transform.plan_sha", Unit: "hash48", Better: "lower", Moves: planMoves, Doc: "first 48 bits of SHA-256 over plan reports and planned sources: must repeat exactly; not a quantity"},
	{Name: "core.compile_s", Unit: "s", Better: "lower", Moves: planMoves, Doc: "core.Compile: parse plus whole-program analysis"},
	{Name: "core.auto_parallel_s", Unit: "s", Better: "lower", Moves: planMoves, Doc: "Compilation.AutoParallel on a fresh Compilation: plan plus re-analysis of the result"},
	// compile, bytecode, interp codegen
	{Name: "compile.compile_s", Unit: "s", Better: "lower", Moves: codegenMoves, Doc: "compile.Compile of the planned programs"},
	{Name: "compile.funcs", Unit: "count", Better: "lower", Moves: codegenMoves, Doc: "functions in the IR, helpers included"},
	{Name: "bytecode.lower_s", Unit: "s", Better: "lower", Moves: codegenMoves, Doc: "bytecode.Compile of that IR, kernel classification included"},
	{Name: "bytecode.instrs", Unit: "count", Better: "lower", Moves: codegenMoves, Doc: "instructions emitted; must repeat exactly"},
	{Name: "interp.codegen_s", Unit: "s", Better: "lower", Moves: codegenMoves, Doc: "interp.CompileProgram on a program it has not seen: IR, closures and bytecode"},
	{Name: "interp.codegen_self_s", Unit: "s", Better: "lower", Moves: codegenMoves, Doc: "codegen_s - compile_s - lower_s: the closure backend built on every miss"},
	// interp execution
	{Name: "interp.exec_s.compiled", Unit: "s", Better: "lower", Moves: closureMoves, Doc: "unplanned batch program, serial RunCompiled, closure engine"},
	{Name: "interp.exec_s.bytecode", Unit: "s", Better: "lower", Moves: vmMoves, Doc: "the same on the bytecode VM"},
	{Name: "interp.exec_planned_s.bytecode", Unit: "s", Better: "lower", Moves: vmMoves, Doc: "planned program, foralls run in place: strip-mining without goroutines"},
	{Name: "interp.exec_planned_s.kernel", Unit: "s", Better: "lower", Moves: vmMoves, Doc: "the same with the vector path on"},
	{Name: "interp.steps", Unit: "count", Better: "lower", Moves: join(closureMoves, vmMoves), Doc: "statements executed by the unplanned program; equal on walk, compiled, bytecode"},
	{Name: "interp.node_allocs", Unit: "count", Better: "lower", Moves: join(closureMoves, vmMoves), Doc: "PSL nodes allocated; equal on every engine and plan"},
	{Name: "interp.steps_per_s.compiled", Unit: "1/s", Better: "higher", Moves: closureMoves, Doc: "steps / exec_s.compiled"},
	{Name: "interp.steps_per_s.bytecode", Unit: "1/s", Better: "higher", Moves: vmMoves, Doc: "steps / exec_s.bytecode"},
	{Name: "interp.steps_per_s.kernel", Unit: "1/s", Better: "higher", Moves: vmMoves, Doc: "planned steps / exec_planned_s.kernel"},
	{Name: "interp.go_allocs_per_op.compiled", Unit: "count", Better: "lower", Moves: closureMoves, Doc: "Go heap allocations per serial run (runtime.MemStats)"},
	{Name: "interp.go_allocs_per_op.bytecode", Unit: "count", Better: "lower", Moves: vmMoves, Doc: "the same on the VM"},
	{Name: "interp.go_allocs_per_op.kernel", Unit: "count", Better: "lower", Moves: vmMoves, Doc: "the same for the planned program with the vector path, foralls in place"},
	{Name: "interp.go_bytes_per_op.compiled", Unit: "B", Better: "lower", Moves: closureMoves, Doc: "Go heap bytes per serial run"},
	{Name: "interp.go_bytes_per_op.bytecode", Unit: "B", Better: "lower", Moves: vmMoves, Doc: "the same on the VM"},
	{Name: "interp.go_bytes_per_op.kernel", Unit: "B", Better: "lower", Moves: vmMoves, Doc: "the same for the planned program with the vector path"},
	{Name: "interp.setup_us", Unit: "us", Better: "lower", Moves: setupMoves, Doc: "interp.NewCompiled plus a call of a constant function"},
	// parexec
	{Name: "parexec.run_s.pes1.bytecode", Unit: "s", Better: "lower", Moves: barrierMoves, Doc: "planned program on a pool of one PE: dispatch and barriers with nothing to gain"},
	{Name: "parexec.run_s.pes1.kernel", Unit: "s", Better: "lower", Moves: barrierMoves, Doc: "the same with the vector path"},
	{Name: "parexec.run_s.pesP.bytecode", Unit: "s", Better: "lower", Moves: join(barrierMoves, balanceMoves), Doc: "on P PEs"},
	{Name: "parexec.run_s.pesP.kernel", Unit: "s", Better: "lower", Moves: join(barrierMoves, balanceMoves), Doc: "on P PEs with the vector path: run_kernel_s without core in front"},
	{Name: "parexec.barriers", Unit: "count", Better: "lower", Moves: barrierMoves, Doc: "foralls joined; equal on every engine and PE count"},
	{Name: "parexec.us_per_barrier", Unit: "us", Better: "lower", Moves: join(barrierMoves, on("lat_p25_ms", "serve_mix")), Doc: "(run_s.pes1.bytecode - exec_planned_s.bytecode) / barriers: pool spin-up and dispatch"},
	{Name: "parexec.speedup.bytecode", Unit: "ratio", Better: "higher", Moves: balanceMoves, Doc: "exec_s.bytecode / run_s.pesP.bytecode"},
	{Name: "parexec.speedup.kernel", Unit: "ratio", Better: "higher", Moves: balanceMoves, Doc: "exec_s.bytecode / run_s.pesP.kernel (base: the serial VM)"},
	{Name: "parexec.efficiency.bytecode", Unit: "ratio", Better: "higher", Moves: balanceMoves, Doc: "speedup.bytecode / P"},
	{Name: "parexec.efficiency.kernel", Unit: "ratio", Better: "higher", Moves: balanceMoves, Doc: "speedup.kernel / P"},
	{Name: "parexec.busy_pct", Unit: "%", Better: "higher", Moves: balanceMoves, Doc: "PE-time busy inside barriers, one profiled kernel-engine run on P PEs (Options.Profiler)"},
	{Name: "parexec.wait_pct", Unit: "%", Better: "lower", Moves: balanceMoves, Doc: "PE-time waiting at the barrier after the PE's own stream drained"},
	{Name: "parexec.imbalance", Unit: "ratio", Better: "lower", Moves: balanceMoves, Doc: "slowest PE's busy time over the mean, wall-weighted over sites"},
	{Name: "parexec.tasks", Unit: "count", Better: "lower", Moves: balanceMoves, Doc: "iterations dispatched to PEs"},
	{Name: "parexec.kernel_gather_us", Unit: "us", Better: "lower", Moves: barrierMoves, Doc: "serial AoS-to-SoA gather of the vectorized strips, summed over the run"},
	{Name: "parexec.kernel_scatter_us", Unit: "us", Better: "lower", Moves: barrierMoves, Doc: "serial scatter back, summed"},
	{Name: "sequent.sim_speedup", Unit: "ratio", Better: "higher", Moves: balanceMoves, Doc: "simulated cycles, serial program over planned program on P PEs: the model's prediction; an exact count"},
	{Name: "nbody.native_s", Unit: "s", Better: "lower", Moves: on("run_kernel_s", "bh_sim"), Doc: "the Go twin of Barnes-Hut at n=256, 2 steps: how fast this machine is; context, not a target"},
	// serve
	{Name: "serve.run_us", Unit: "us", Better: "lower", Moves: envelope, Doc: "Server.Run called directly, sequential, hot, first request kind"},
	{Name: "serve.http_us", Unit: "us", Better: "lower", Moves: envelope, Doc: "the same request over loopback HTTP"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower", Moves: envelope, Doc: "http_us - run_us: net/http, JSON and the kernel's loopback, both ends"},
	{Name: "serve.exec_us", Unit: "us", Better: "lower", Moves: envelope, Doc: "the same call with no server around it: interpreter set-up plus execution"},
	{Name: "serve.run_overhead_us", Unit: "us", Better: "lower", Moves: envelope, Doc: "run_us - exec_us: validation, admission hand-off, cache lookup, response assembly"},
	{Name: "serve.decode_us", Unit: "us", Better: "lower", Moves: envelope, Doc: "encoding/json decode of the request body into serve.Request"},
	{Name: "serve.encode_us", Unit: "us", Better: "lower", Moves: envelope, Doc: "encoding/json encode of the serve.Response"},
	{Name: "serve.req_bytes", Unit: "B", Better: "lower", Moves: envelope, Doc: "request body size"},
	{Name: "serve.resp_bytes", Unit: "B", Better: "lower", Moves: envelope, Doc: "response body size"},
	{Name: "serve.router_us", Unit: "us", Better: "lower", Moves: envelope, Doc: "the same request through an embedded NewRouter over two replicas"},
	{Name: "serve.router_hop_us", Unit: "us", Better: "lower", Moves: envelope, Doc: "router_us - http_us"},
	{Name: "serve.span_admission_us", Unit: "us", Better: "lower", Moves: envelope, Doc: "the server's own admission span, from profiled replies of the traced pass"},
	{Name: "serve.span_cache_us", Unit: "us", Better: "lower", Moves: join(envelope, cacheMoves), Doc: "its cache span (lookup, or the whole build on a miss)"},
	{Name: "serve.span_execute_us", Unit: "us", Better: "lower", Moves: envelope, Doc: "its execute span"},
	{Name: "serve.span_merge_us", Unit: "us", Better: "lower", Moves: envelope, Doc: "its merge span (response assembly)"},
	{Name: "serve.go_allocs_per_req", Unit: "count", Better: "lower", Moves: envelope, Doc: "Go heap allocations per hot round trip, client and server together"},
	{Name: "serve.go_bytes_per_req", Unit: "B", Better: "lower", Moves: envelope, Doc: "Go heap bytes per hot round trip, client and server together"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: cacheMoves, Doc: "hits / lookups over the untraced load phases (Server.Stats deltas)"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower", Moves: cacheMoves, Doc: "entries evicted over the same"},
	{Name: "serve.compiles", Unit: "count", Better: "lower", Moves: cacheMoves, Doc: "front-end builds over the same"},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Moves: cacheMoves, Doc: "admission rejections over the same"},
	{Name: "serve.abandoned", Unit: "count", Better: "lower", Moves: cacheMoves, Doc: "requests cancelled while queued over the same"},
	{Name: "serve.lat_p50_ms", Unit: "ms", Better: "lower", Moves: join(on("lat_p25_ms", "serve_mix", "plan_cold")), Doc: "open-loop median of the untraced pass; a layer metric because a noisy neighbour moves it more than any bound allows"},
	{Name: "serve.lat_p99_ms", Unit: "ms", Better: "lower", Moves: join(on("lat_p25_ms", "serve_mix", "plan_cold")), Doc: "open-loop p99 of the untraced pass; a layer metric because it spreads more than any bound allows"},
	{Name: "serve.mix_miss_p50_ms", Unit: "ms", Better: "lower", Moves: cacheMoves, Doc: "median latency of the forced misses inside the load mix (serve_mix only; 0 elsewhere)"},
	{Name: "serve.gen_late_p99_ms", Unit: "ms", Better: "lower", Moves: on("lat_p25_ms", "plan_cold", "serve_mix"), Doc: "how late the open-loop generator itself ran, p99; above 1 ms the open-loop numbers are invalid, not slow"},
	// obs, bench
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: on("lat_p25_ms", "plan_cold"), Doc: "sequential hot round trip with Config.TraceRate 1 over TraceRate 0"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: on("lat_p25_ms", "plan_cold"), Doc: "the traced pass over the untraced one, geometric mean over the end-to-end timings"},
	{Name: "bench.slowdown", Unit: "ratio", Better: "lower", Moves: on("run_kernel_s", "bh_sim", "vec_sweep"), Doc: "the calibrator's median reading over the untraced pass (pointer chase and allocate-and-dispatch loop over their references): the machine, not the program; what the correction leaves behind shows first on the parallel VM runs"},
	{Name: "bench.fail_ratio", Unit: "ratio", Better: "lower", Moves: on("rps", "serve_mix"), Doc: "failed / attempted ops; end to end this is the result line's failed and attempted"},
}
