// Package serve is the PSL execution service: the long-lived,
// concurrent counterpart of the one-shot cmd pipeline. Where every
// prior layer of this repository runs one program per process
// invocation — paying lex/parse/check/compile on every run — serve
// amortizes the whole front end across requests and makes *throughput
// under load* the performance story:
//
//   - a sharded, content-hash-keyed LRU cache of checked programs
//     (cache.go) whose code — the bytecode — is built once, at insert
//     (interp.CompileProgram; for a planned variant the planner's own
//     lowering, transform.Plan.Code), so a repeat request skips lexing,
//     parsing, checking, slot resolution, and lowering entirely — it
//     binds a frame and runs.
//     Concurrent cold misses for one source are singleflighted: one
//     build, everyone waits on it.
//   - per-request sandboxing (execute below): wall-clock deadline via
//     context cancellation plus step, allocation, and output-byte
//     budgets, enforced inside every execution engine, so an
//     in-process run on the tree-walking oracle is a valid differential
//     check for the served configuration too.
//   - an admission gate (gate.go): a request runs on the goroutine
//     that brought it — net/http's, or whoever called Run. At most
//     Workers run at once, a bounded FIFO parks the next few, and
//     load beyond it is rejected, not buffered. The Server starts no
//     goroutine, so Close has only requests to wait for.
//   - a stats surface (stats.go, GET /stats): cache hit/miss/eviction
//     and compile counts, queue depth, and a request-latency
//     histogram — the numbers cmd/loadgen turns into BENCH_serve.json.
//   - auto-parallelized execution ("auto": true): the planner
//     (transform.AutoParallelize) runs the dependence test on every
//     loop of the submitted program and strip-mines the approved ones;
//     the planned variant is cached as its own entry keyed by
//     (source, strip width), so hot auto requests skip analysis, planning,
//     and compilation exactly like hot serial requests skip the front
//     end. The Response carries the plan: which loops run parallel,
//     and why the rest were rejected.
//
// One process serves. cmd/pslserved exposes a Server over HTTP
// (http.go); cmd/loadgen drives it closed-loop (loadgen.go), and the
// load generator's clients are the only goroutines this package
// starts. A Router (router.go) spreads requests over in-process
// replicas for the benchmark's router probe. DESIGN.md's R4 row records
// the resulting throughput trajectory.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/parexec"
	"repro/internal/transform"
)

// Config sizes a Server. Zero values select the documented defaults.
type Config struct {
	// Workers is the number of concurrently executing requests, each
	// on its caller's goroutine (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many requests may wait for one of those
	// slots, first come first served; a request arriving with the queue
	// full is rejected with ErrBusy (0 = 4×Workers).
	QueueDepth int
	// CacheEntries is the compiled-program cache capacity across its
	// cacheShards shards (0 = 128 entries). Capacity is split evenly per
	// shard and rounded up, so the effective total is
	// ceil(CacheEntries/8)×8 — Stats reports the effective number.
	CacheEntries int
	// MaxPEs caps the worker-pool size a parallel request may ask for
	// (0 = 32); requests beyond it are rejected as malformed. Without
	// a cap a single request could spawn unbounded goroutines, which
	// no other sandbox budget bounds. The auto strip width,
	// transform.DefaultWidth of the PE count, is 16 per PE and at most
	// 128 whatever the cap, so one source pins at most eight planned
	// variants.
	MaxPEs int
	// DefaultTimeout is the per-request wall-clock budget when the
	// request does not name one (0 = 5s); MaxTimeout caps what a
	// request may ask for (0 = 30s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxSourceBytes bounds request source size (0 = 1 MiB).
	MaxSourceBytes int
	// MaxSteps / MaxAllocs / MaxOutputBytes are the per-request
	// sandbox budgets handed to the interpreter
	// (0 = 50M steps / 1M allocations / 1 MiB of print output).
	MaxSteps       int64
	MaxAllocs      int64
	MaxOutputBytes int64
	// TraceRate samples requests for tracing: a fraction in (0, 1]
	// traces roughly that share of requests (deterministically, every
	// Nth) into the /debug/traces ring. 0 disables sampling — the hot
	// path then takes no clock readings and allocates nothing for
	// tracing. Requests with "profile": true or an X-PSL-Trace header
	// are always traced, regardless of the rate; the last traceRing of
	// them are kept for /debug/traces.
	TraceRate float64
}

// cacheShards is the program cache's shard count and traceRing the
// number of traces /debug/traces keeps.
const (
	cacheShards = 8
	traceRing   = 64
)

// defaultMaxSourceBytes is MaxSourceBytes's default; the Router reads
// every body under the envelope it implies.
const defaultMaxSourceBytes = 1 << 20

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.MaxPEs <= 0 {
		c.MaxPEs = 32
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = defaultMaxSourceBytes
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 50_000_000
	}
	if c.MaxAllocs <= 0 {
		c.MaxAllocs = 1_000_000
	}
	if c.MaxOutputBytes <= 0 {
		c.MaxOutputBytes = 1 << 20
	}
	return c
}

// Request is one execution request (the POST /run body).
type Request struct {
	// Source is the PSL program text; its content hash is the cache
	// key, so byte-identical sources share one compiled program.
	Source string `json:"source"`
	// Fn is the function to call (default "main").
	Fn string `json:"fn,omitempty"`
	// Args are the call arguments; integral JSON numbers become PSL
	// ints, fractional ones reals.
	Args []json.Number `json:"args,omitempty"`
	// Parallel runs forall regions on the parexec worker pool with PEs
	// workers (0 = GOMAXPROCS, capped at Config.MaxPEs). The server owns
	// every other execution choice — the engine, the schedule, the strip
	// width — so there is nothing else to ask for: an "engine", "width",
	// "tenant", "sched" or "chunk" key in the body is ignored like any
	// unknown key.
	Parallel bool `json:"parallel,omitempty"`
	PEs      int  `json:"pes,omitempty"`
	// Auto asks the planner to decide what is parallel: every while
	// loop of the program goes through the dependence test, approved
	// loops are strip-mined, and the transformed program runs on the
	// parexec pool (PEs as with Parallel). The Response
	// carries the plan. The strip width is transform.DefaultWidth of the
	// effective PE count (16 per PE, at most 128). The planned variant is cached like any other
	// program — keyed by (source, width) — so hot auto requests do no
	// analysis, planning, or compilation.
	Auto bool `json:"auto,omitempty"`
	// Seed feeds the deterministic rand() builtin.
	Seed uint64 `json:"seed,omitempty"`
	// TimeoutMS requests a specific wall-clock budget instead of the
	// server default — smaller or larger, capped at Config.MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Profile asks for the request's span tree (and, for parallel and
	// auto requests, the per-forall efficiency report) in the Response.
	// A profiled request is always traced, regardless of TraceRate.
	Profile bool `json:"profile,omitempty"`
	// TraceID is a client-supplied trace identifier, carried in the
	// X-PSL-Trace header (obs.TraceHeader), not the JSON body, so a
	// client can file the server's spans under a trace of its own. A
	// request with a TraceID is always traced.
	TraceID string `json:"-"`
}

// Response reports one execution (the POST /run reply).
type Response struct {
	OK bool `json:"ok"`
	// Result is the returned value rendered like print() would
	// ("0" for procedures); Kind names its type.
	Result string `json:"result,omitempty"`
	Kind   string `json:"kind,omitempty"`
	// Output is the program's print() stream.
	Output string `json:"output,omitempty"`
	Error  string `json:"error,omitempty"`
	// Cached reports whether the program came from the compiled cache
	// (true on every hot-path request).
	Cached    bool  `json:"cached"`
	Steps     int64 `json:"steps"`
	Allocs    int64 `json:"allocs"`
	ElapsedUS int64 `json:"elapsed_us"`
	// Plan reports what the auto-parallelization planner did (Auto
	// requests only). Every reply of one cached variant points at the
	// same summary: read it, do not write to it.
	Plan *PlanSummary `json:"plan,omitempty"`
	// Trace is the request's span tree (Profile requests only).
	Trace *obs.TraceView `json:"trace,omitempty"`
	// Efficiency is the per-forall-site parallel-efficiency report
	// (Profile requests that ran parallel or auto): the measured
	// counterpart of Plan — per-PE busy time, barrier wait, and task
	// counts for every forall the program actually dispatched.
	Efficiency []obs.SiteReport `json:"efficiency,omitempty"`
}

// PlanSummary is the wire form of the planner's report: which loops
// run parallel and why the rest do not.
type PlanSummary struct {
	Width        int        `json:"width"`
	Parallelized []PlanLoop `json:"parallelized"`
	Rejected     []PlanLoop `json:"rejected"`
}

// PlanLoop is one while loop's verdict. Fn/Loop/Line locate it in the
// submitted source; Helper names the generated iteration procedure
// (parallelized loops), Reason says why the loop stays serial
// (rejected loops — the dependence test's verdict, or absorption into
// an enclosing parallelized loop). For parallelized loops, Vectorized
// reports whether the strip additionally lowered to a batched SPMD
// kernel; when it did not, VectorReason carries the classifier's
// concrete why-not.
type PlanLoop struct {
	Fn           string `json:"fn"`
	Loop         int    `json:"loop"`
	Line         int    `json:"line"`
	Helper       string `json:"helper,omitempty"`
	Reason       string `json:"reason,omitempty"`
	Vectorized   bool   `json:"vectorized,omitempty"`
	VectorReason string `json:"vector_reason,omitempty"`
}

// planSummary converts the planner's report to the wire form.
func planSummary(p *transform.Plan) *PlanSummary {
	ps := &PlanSummary{Width: p.Width}
	for _, lp := range p.Loops {
		pl := PlanLoop{Fn: lp.Func, Loop: lp.Index, Line: lp.Pos.Line}
		switch {
		case lp.Parallelized:
			pl.Helper = lp.Helper
			pl.Vectorized = lp.Vectorized
			if !lp.Vectorized {
				pl.VectorReason = lp.VectorReason
			}
			ps.Parallelized = append(ps.Parallelized, pl)
		case lp.Absorbed:
			pl.Reason = "runs serially inside the parallel iterations of " + lp.AbsorbedInto
			ps.Rejected = append(ps.Rejected, pl)
		default:
			pl.Reason = lp.ReasonText()
			ps.Rejected = append(ps.Rejected, pl)
		}
	}
	return ps
}

// Admission errors (both map to HTTP 503 with Retry-After).
var (
	// ErrBusy rejects a request that found the admission queue full.
	ErrBusy = errors.New("serve: queue full")
	// ErrDraining rejects requests arriving after Close began.
	ErrDraining = errors.New("serve: draining")
)

// RequestError marks a malformed request (mapped to HTTP 400).
type RequestError struct{ Msg string }

func (e *RequestError) Error() string { return e.Msg }

func badRequest(format string, args ...any) error {
	return &RequestError{Msg: fmt.Sprintf(format, args...)}
}

// Server is the execution service. Create with New, expose over HTTP
// with Handler, retire with Close (drains in-flight requests).
type Server struct {
	cfg   Config
	cache *cache
	gate  *gate
	start time.Time

	// sampler decides which untagged requests get traced (nil when
	// TraceRate is 0 — the not-traced decision is then a nil compare);
	// traces is the bounded ring /debug/traces reads.
	sampler *obs.Sampler
	traces  *obs.Ring

	draining  atomic.Bool
	requests  atomic.Int64 // every Run call
	invalid   atomic.Int64 // rejected before admission (malformed)
	rejected  atomic.Int64 // admission rejections (queue full / draining)
	abandoned atomic.Int64 // admitted but cancelled by the client while queued
	errors    atomic.Int64 // executed requests that failed
	latency   *histogram   // executed requests only
}

// New builds a Server from cfg (zero value = all defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		cache:   newCache(cfg.CacheEntries, cacheShards),
		gate:    newGate(cfg.Workers, cfg.QueueDepth),
		start:   time.Now(),
		sampler: obs.NewSampler(cfg.TraceRate),
		traces:  obs.NewRing(traceRing),
		latency: newHistogram(),
	}
}

// Close stops admission and drains: it returns once every running and
// every queued request has been answered — the Server owns no
// goroutine to wait for. Subsequent Run calls return ErrDraining.
func (s *Server) Close() {
	s.draining.Store(true)
	s.gate.close()
}

// Run validates, admits, and executes one request on the calling
// goroutine. The returned error is nil for every request that reached
// execution (Response.OK distinguishes success); non-nil errors are
// admission rejections (ErrBusy, ErrDraining) or
// *RequestError for malformed requests.
func (s *Server) Run(ctx context.Context, req Request) (Response, error) {
	s.requests.Add(1)
	if s.draining.Load() {
		s.rejected.Add(1)
		return Response{}, ErrDraining
	}
	if req.Source == "" {
		s.invalid.Add(1)
		return Response{}, badRequest("empty source")
	}
	if len(req.Source) > s.cfg.MaxSourceBytes {
		s.invalid.Add(1)
		return Response{}, badRequest("source is %d bytes, cap is %d", len(req.Source), s.cfg.MaxSourceBytes)
	}
	if req.Parallel || req.Auto {
		if req.PEs < 0 || req.PEs > s.cfg.MaxPEs {
			s.invalid.Add(1)
			return Response{}, badRequest("pes %d out of range [0, %d]", req.PEs, s.cfg.MaxPEs)
		}
		// One effective PE count sizes both the auto strip width and the
		// pool: 0 means this host, capped at MaxPEs.
		if req.PEs == 0 {
			req.PEs = min(runtime.GOMAXPROCS(0), s.cfg.MaxPEs)
		}
	}
	// The auto strip width follows from the PE count; it is part of the
	// cache key, so every request for one PE count shares one planned
	// variant.
	width := 0
	if req.Auto {
		width = transform.DefaultWidth(req.PEs)
	}
	args, err := convertArgs(req.Args)
	if err != nil {
		s.invalid.Add(1)
		return Response{}, err
	}

	// Trace decision: profiled requests, requests carrying a propagated
	// ID, and the sampler's share. With all three off this is two
	// compares and a nil check — no clocks, no allocations — which is
	// the overhead contract the serve alloc test pins.
	var tr *obs.Trace
	if req.Profile || req.TraceID != "" || s.sampler.Sample() {
		tr = obs.NewTrace(req.TraceID)
	}

	// The admission span covers the whole wait at the gate. The slot is
	// released in a defer: net/http recovers a handler's panic, so the
	// process outlives one and the slot must too.
	adm := tr.Start("admission")
	err = s.gate.enter(ctx)
	adm.End()
	if err == errAbandoned {
		// The client abandoned the request while it was queued; nothing
		// executed, so this is neither an execution error nor a latency
		// sample — it gets its own counter.
		s.abandoned.Add(1)
		resp := Response{Error: fmt.Sprintf("%v: %v", errAbandoned, ctx.Err())}
		s.finishTrace(tr, &resp, req.Profile)
		return resp, nil
	}
	if err != nil {
		s.rejected.Add(1)
		return Response{}, err
	}
	defer s.gate.leave()
	resp := s.execute(ctx, req, width, args, tr)
	s.finishTrace(tr, &resp, req.Profile)
	return resp, nil
}

// finishTrace closes a request's trace, stores it in the debug ring,
// and — for profiled requests — attaches the span tree to the
// response. No-op when the request was not traced.
func (s *Server) finishTrace(tr *obs.Trace, resp *Response, profile bool) {
	if tr == nil {
		return
	}
	tr.Finish()
	v := tr.View()
	s.traces.Add(v)
	if profile {
		resp.Trace = &v
	}
}

// execute runs one admitted request on the calling goroutine: cache
// lookup (compiling — and for auto requests, planning — at most once
// per distinct variant), then a sandboxed run — deadline, step,
// allocation, and output budgets all active, serial or on the pool.
func (s *Server) execute(ctx context.Context, req Request, width int, args []interp.Value, tr *obs.Trace) Response {
	start := time.Now()
	done := func(resp Response) Response {
		el := time.Since(start)
		resp.ElapsedUS = el.Microseconds()
		s.latency.observe(el)
		if !resp.OK {
			s.errors.Add(1)
		}
		return resp
	}

	// The wall-clock budget starts before the cache lookup, so it also
	// bounds time spent waiting on another request's in-flight build of
	// the same source. The build itself (parse, check, codegen and, for
	// an auto request, the planner) is not preemptible. MaxSourceBytes
	// and the parser's depth bound (no nesting or chain past 1 000
	// levels, so every tree walk's stack is bounded) keep the front end
	// and the lowering small. The planner's path-matrix analysis is not
	// bounded by either: a function's matrix is n×n in its pointer
	// variables, and while a declaration or a load costs O(n), every
	// store, call and join costs O(n²), and no bound on n rejects a
	// function yet, so an auto build of a large enough body can outrun
	// any timeout.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < s.cfg.MaxTimeout {
			timeout = d
		} else {
			timeout = s.cfg.MaxTimeout
		}
	}
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	key := requestKey(req.Source, req.Auto, width)
	// The cache span covers the lookup including any singleflight wait
	// on another request's in-flight build; the parse/plan/compile
	// children appear only when THIS request ran the cold build (the
	// closure runs on the winner's goroutine).
	cacheSp := tr.Start("cache")
	cp, plan, cached, err := s.cache.get(rctx, key, func() (*interp.CompiledProgram, *PlanSummary, error) {
		parseSp := cacheSp.Start("parse")
		p, err := lang.Parse(req.Source)
		parseSp.End()
		if err != nil {
			return nil, nil, err
		}
		return build(p, req.Auto, width, cacheSp)
	})
	if cacheSp != nil {
		cacheSp.SetAttr("hit", fmt.Sprintf("%t", cached))
		cacheSp.End()
	}
	if err != nil {
		// Distinguish "this request's deadline expired while waiting on
		// another request's in-flight build" from a genuine front-end
		// failure — the program didn't fail to compile.
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return done(Response{Cached: cached,
				Error: fmt.Sprintf("serve: cancelled while waiting for compile: %v", err)})
		}
		return done(Response{Cached: cached, Error: fmt.Sprintf("compile: %v", err)})
	}

	fn := req.Fn
	if fn == "" {
		fn = "main"
	}
	var out bytes.Buffer
	var v interp.Value
	var st interp.Stats
	var rerr error
	execSp := tr.Start("execute")
	var prof *obs.ForallProfiler
	if req.Parallel || req.Auto {
		if tr != nil {
			prof = obs.NewForallProfiler()
		}
		v, st, rerr = parexec.Run(cp.Program(), parexec.Options{
			Compiled:       cp,
			PEs:            req.PEs,
			Seed:           req.Seed,
			Output:         &out,
			MaxSteps:       s.cfg.MaxSteps,
			Ctx:            rctx,
			MaxAllocs:      s.cfg.MaxAllocs,
			MaxOutputBytes: s.cfg.MaxOutputBytes,
			Profiler:       prof,
		}, fn, args...)
	} else {
		v, st, rerr = interp.RunCompiled(cp, interp.Config{
			Seed:           req.Seed,
			Output:         &out,
			MaxSteps:       s.cfg.MaxSteps,
			Ctx:            rctx,
			MaxAllocs:      s.cfg.MaxAllocs,
			MaxOutputBytes: s.cfg.MaxOutputBytes,
		}, fn, args...)
	}
	execSp.End()

	mergeSp := tr.Start("merge")
	resp := Response{
		OK:     rerr == nil,
		Cached: cached,
		Output: out.String(),
		Steps:  st.Steps,
		Allocs: st.Allocations,
		Plan:   plan,
	}
	if req.Profile && prof != nil {
		resp.Efficiency = efficiencyReport(prof, resp.Plan)
	}
	if rerr != nil {
		resp.Error = rerr.Error()
	} else {
		resp.Result = v.String()
		resp.Kind = v.Kind.String()
	}
	mergeSp.End()
	return done(resp)
}

// build turns a parsed program into what a cache entry pins: its code
// and, for an auto request, the plan report in wire form. It is the
// cold path, run once per (source, width); sp is the miss's cache span
// (nil when the request is not traced).
func build(p *lang.Program, auto bool, width int, sp *obs.Span) (*interp.CompiledProgram, *PlanSummary, error) {
	var summary *PlanSummary
	var pinned *interp.CompiledProgram
	if auto {
		// The whole front half of the paper runs here: path-matrix
		// analysis, dependence tests on every loop, strip-mining of the
		// approved ones, and — to read the kernel classifier's verdicts —
		// the lowering of the result, which the plan owns and the entry
		// pins.
		planSp := sp.Start("plan")
		planStart := time.Now()
		plan, err := transform.AutoParallelize(p, width)
		planSp.End()
		if err != nil {
			return nil, nil, err
		}
		recordPlanStages(planSp, planStart, plan.Timings)
		summary, pinned = planSummary(plan), plan.Code
	}
	if pinned == nil {
		// A serial request, or a plan that approved nothing (the input
		// runs as written): build the code here. Either way the entry
		// owns its code, so hits never recompile (interp keeps no code
		// cache of its own).
		compileSp := sp.Start("compile")
		pinned = interp.CompileProgram(p)
		compileSp.End()
	}
	if err := pinned.Err(); err != nil {
		return nil, nil, err
	}
	return pinned, summary, nil
}

// recordPlanStages hangs the planner's own stage timings under a traced
// miss's plan span, back to back from its start (the stages run in that
// order with nothing between them), so a trace of an auto miss says
// where planning went — including the lowering the plan now does in
// place of the miss's compile stage.
func recordPlanStages(planSp *obs.Span, start time.Time, tm transform.Timings) {
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"analyze", tm.Analyze}, {"depend", tm.Depend}, {"rewrite", tm.Rewrite}, {"lower", tm.Lower},
	} {
		planSp.Record(st.name, start, st.d)
		start = start.Add(st.d)
	}
}

// efficiencyReport joins the profiler's per-site measurements with the
// planner's loop table: a site and a plan loop share the source line
// (the strip-mined forall is stamped with the original loop's
// position), so the report can name the function each forall came
// from. Parallel (non-auto) requests have no plan; their sites report
// the line alone.
func efficiencyReport(prof *obs.ForallProfiler, plan *PlanSummary) []obs.SiteReport {
	rep := prof.Report()
	if plan != nil {
		byLine := make(map[int]string, len(plan.Parallelized))
		for _, lp := range plan.Parallelized {
			byLine[lp.Line] = lp.Fn
		}
		for i := range rep {
			rep[i].Fn = byLine[rep[i].Line]
		}
	}
	return rep
}

// convertArgs maps JSON numbers onto PSL values: integral → int,
// fractional → real.
func convertArgs(nums []json.Number) ([]interp.Value, error) {
	args := make([]interp.Value, len(nums))
	for i, n := range nums {
		if iv, err := n.Int64(); err == nil {
			args[i] = interp.IntVal(iv)
			continue
		}
		fv, err := n.Float64()
		if err != nil {
			return nil, badRequest("arg %d: %q is not a number", i, string(n))
		}
		args[i] = interp.RealVal(fv)
	}
	return args, nil
}
