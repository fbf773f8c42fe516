// Package expflags defines the command-line surfaces of the
// repository's binaries — cmd/experiments, cmd/pslserved, and
// cmd/loadgen — in one importable place, so that the doc-drift check
// (docdrift_test.go at the repository root) can verify that every
// `go run ./cmd/... ...` command quoted in README.md, DESIGN.md, and
// docs/ARCHITECTURE.md parses against the flag set the binary
// actually has. Each cmd registers exactly its set and nothing else.
package expflags

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/parexec"
	"repro/internal/serve"
)

// Flags is the parsed flag values of cmd/experiments. See DESIGN.md's
// experiment index for the IDs each selector regenerates.
type Flags struct {
	Tables   bool   // -t: T1/T2 simulated Sequent tables (§4.4)
	Fig      int    // -fig N: figures F1..F5
	PM       int    // -pm N: path-matrix experiments PM1..PM3
	X        int    // -x N: supplementary experiments X1..X3
	Real     bool   // -real: measured wall-clock R1 (poly) and R2 (Barnes-Hut)
	PlanCost bool   // -plancost: R7 planner-cost scaling on the generated many-loop program
	All      bool   // -all: everything
	Measure  int    // -measure: simulated time steps per table cell
	PEs      string // -pes: comma-separated pool sizes for R1/R2
	Sched    string // -sched: R2 scheduling policy ("all" sweeps every policy)
	Chunk    int    // -chunk: R2 dynamic self-scheduling chunk size
}

// Register installs the cmd/experiments flag set on fs and returns the
// value struct the flags write into.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Tables, "t", false, "T1/T2 tables (simulated Sequent)")
	fs.IntVar(&f.Fig, "fig", 0, "figure number (1-5)")
	fs.IntVar(&f.PM, "pm", 0, "path-matrix experiment (1-3)")
	fs.IntVar(&f.X, "x", 0, "supplementary experiment (1-3)")
	fs.BoolVar(&f.Real, "real", false, "R1/R2: measured wall-clock speedups (parexec)")
	fs.BoolVar(&f.PlanCost, "plancost", false,
		"R7: auto-parallelization planner cost scaling on generated many-loop programs")
	fs.BoolVar(&f.All, "all", false, "run everything")
	fs.IntVar(&f.Measure, "measure", 1, "measured steps per table cell")
	fs.StringVar(&f.PEs, "pes", "2,4,8", "comma-separated worker-pool sizes for -real (R1 and R2)")
	fs.StringVar(&f.Sched, "sched", "all",
		"scheduling policy for the R2 table: block, cyclic, dynamic, or all")
	fs.IntVar(&f.Chunk, "chunk", 1, "chunk size for R2's dynamic self-scheduling")
	return f
}

// PEList parses the -pes flag into pool sizes.
func (f *Flags) PEList() ([]int, error) {
	var out []int
	for _, s := range strings.Split(f.PEs, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("expflags: -pes wants positive integers, got %q", s)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("expflags: -pes is empty")
	}
	return out, nil
}

// Policies resolves the -sched/-chunk flags into the scheduling
// policies to measure ("all" sweeps block, cyclic, and dynamic).
func (f *Flags) Policies() ([]parexec.Policy, error) {
	if strings.EqualFold(strings.TrimSpace(f.Sched), "all") {
		var out []parexec.Policy
		for _, name := range parexec.PolicyNames() {
			p, err := parexec.ParsePolicy(name, f.Chunk)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
		return out, nil
	}
	p, err := parexec.ParsePolicy(f.Sched, f.Chunk)
	if err != nil {
		return nil, err
	}
	return []parexec.Policy{p}, nil
}

// ---------------------------------------------------------------------------
// cmd/pslserved

// ServeFlags is the parsed flag values of cmd/pslserved.
type ServeFlags struct {
	Addr         string        // -addr: listen address
	Workers      int           // -workers: executing requests (0 = GOMAXPROCS)
	Queue        int           // -queue: admission queue depth (0 = 4×workers)
	CacheEntries int           // -cache: compiled-program cache capacity
	CacheShards  int           // -shards: cache shard count
	Timeout      time.Duration // -timeout: default per-request wall clock
	MaxSteps     int64         // -max-steps: per-request statement budget
	MaxAllocs    int64         // -max-allocs: per-request allocation budget
	MaxOutput    int64         // -max-output: per-request print() byte budget
	MaxWidth     int           // -max-width: auto-parallelize strip-width cap
	TenantQueue  int           // -tenant-queue: per-tenant admission quota
	TraceRate    float64       // -trace-rate: fraction of requests traced into /debug/traces
}

// RegisterServe installs the cmd/pslserved flag set on fs.
func RegisterServe(fs *flag.FlagSet) *ServeFlags {
	f := &ServeFlags{}
	fs.StringVar(&f.Addr, "addr", "127.0.0.1:8080", "listen address")
	fs.IntVar(&f.Workers, "workers", 0, "concurrently executing requests (0 = GOMAXPROCS)")
	fs.IntVar(&f.Queue, "queue", 0, "admission queue depth (0 = 4×workers)")
	fs.IntVar(&f.CacheEntries, "cache", 0, "compiled-program cache entries (0 = 128)")
	fs.IntVar(&f.CacheShards, "shards", 0, "program cache shards (0 = 8)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "default per-request wall-clock budget (0 = 5s)")
	fs.Int64Var(&f.MaxSteps, "max-steps", 0, "per-request statement budget (0 = 50M)")
	fs.Int64Var(&f.MaxAllocs, "max-allocs", 0, "per-request allocation budget (0 = 1M)")
	fs.Int64Var(&f.MaxOutput, "max-output", 0, "per-request print() byte budget (0 = 1MiB)")
	fs.IntVar(&f.MaxWidth, "max-width", 0, "strip-width cap for auto-parallelized requests (0 = 256)")
	fs.IntVar(&f.TenantQueue, "tenant-queue", 0, "per-tenant queued-request quota (0 = whole queue)")
	fs.Float64Var(&f.TraceRate, "trace-rate", 0,
		"fraction of requests traced into /debug/traces (0 = only profiled ones)")
	return f
}

// ServerConfig maps the flags onto a serve.Config (zeros keep the
// server defaults).
func (f *ServeFlags) ServerConfig() serve.Config {
	return serve.Config{
		Workers:          f.Workers,
		QueueDepth:       f.Queue,
		CacheEntries:     f.CacheEntries,
		CacheShards:      f.CacheShards,
		DefaultTimeout:   f.Timeout,
		MaxSteps:         f.MaxSteps,
		MaxAllocs:        f.MaxAllocs,
		MaxOutputBytes:   f.MaxOutput,
		MaxStripWidth:    f.MaxWidth,
		TenantQueueDepth: f.TenantQueue,
		TraceRate:        f.TraceRate,
	}
}

// ---------------------------------------------------------------------------
// cmd/pslrouter

// RouterFlags is the parsed flag values of cmd/pslrouter.
type RouterFlags struct {
	Addr           string        // -addr: listen address
	Backends       string        // -backends: comma-separated pslserved base URLs
	Replicas       int           // -replicas: virtual nodes per backend on the hash ring
	HealthInterval time.Duration // -health-interval: /healthz probe period
	Retries        int           // -retries: extra backends tried after a transport failure
	TraceRate      float64       // -trace-rate: fraction of proxied requests traced
}

// RegisterRouter installs the cmd/pslrouter flag set on fs.
func RegisterRouter(fs *flag.FlagSet) *RouterFlags {
	f := &RouterFlags{}
	fs.StringVar(&f.Addr, "addr", "127.0.0.1:8090", "listen address")
	fs.StringVar(&f.Backends, "backends", "http://127.0.0.1:8080",
		"comma-separated pslserved base URLs to shard across")
	fs.IntVar(&f.Replicas, "replicas", 0, "virtual nodes per backend on the hash ring (0 = 512)")
	fs.DurationVar(&f.HealthInterval, "health-interval", 0, "backend /healthz probe period (0 = 250ms)")
	fs.IntVar(&f.Retries, "retries", 0,
		"extra backends a request tries after a transport failure (0 = 2, -1 = none)")
	fs.Float64Var(&f.TraceRate, "trace-rate", 0,
		"fraction of proxied requests traced into /debug/traces (0 = only profiled ones)")
	return f
}

// BackendList splits the -backends flag into base URLs.
func (f *RouterFlags) BackendList() ([]string, error) {
	var out []string
	for _, u := range strings.Split(f.Backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("expflags: -backends is empty")
	}
	return out, nil
}

// RouterConfig maps the flags onto a serve.RouterConfig (zeros keep the
// router defaults).
func (f *RouterFlags) RouterConfig() (serve.RouterConfig, error) {
	backends, err := f.BackendList()
	if err != nil {
		return serve.RouterConfig{}, err
	}
	return serve.RouterConfig{
		Backends:       backends,
		Replicas:       f.Replicas,
		HealthInterval: f.HealthInterval,
		Retries:        f.Retries,
		TraceRate:      f.TraceRate,
	}, nil
}

// ---------------------------------------------------------------------------
// cmd/loadgen

// LoadgenFlags is the parsed flag values of cmd/loadgen.
type LoadgenFlags struct {
	Addr           string        // -addr: service base URL
	Corpus         string        // -corpus: directory of .psl programs
	Concurrency    int           // -concurrency: closed-loop workers
	Duration       time.Duration // -duration: hot-phase length
	Cold           float64       // -cold: forced-miss fraction of hot requests
	AutoRate       float64       // -auto-rate: fraction of hot requests sent with auto:true
	Seed           int64         // -seed: corpus-draw RNG seed
	RequireHotRate float64       // -require-hot-rate: exit nonzero below this hit rate
	FailOnError    bool          // -fail-on-error: exit nonzero on any request error
	TraceRate      float64       // -trace-rate: fraction of hot requests sent with profile:true
}

// RegisterLoadgen installs the cmd/loadgen flag set on fs.
func RegisterLoadgen(fs *flag.FlagSet) *LoadgenFlags {
	f := &LoadgenFlags{}
	fs.StringVar(&f.Addr, "addr", "http://127.0.0.1:8080", "pslserved base URL")
	fs.StringVar(&f.Corpus, "corpus", "testdata", "directory of .psl programs to serve")
	fs.IntVar(&f.Concurrency, "concurrency", 8, "closed-loop worker count")
	fs.DurationVar(&f.Duration, "duration", 2*time.Second, "hot-phase duration")
	fs.Float64Var(&f.Cold, "cold", 0.02, "fraction of hot-phase requests with never-seen source")
	fs.Float64Var(&f.AutoRate, "auto-rate", 0,
		"fraction of hot-phase requests sent with auto:true (planner-parallelized execution)")
	fs.Int64Var(&f.Seed, "seed", 1, "RNG seed for corpus draws")
	fs.Float64Var(&f.RequireHotRate, "require-hot-rate", 0,
		"fail (exit 1) if the hot-phase cache-hit rate is below this")
	fs.BoolVar(&f.FailOnError, "fail-on-error", false, "fail (exit 1) if any request errored")
	fs.Float64Var(&f.TraceRate, "trace-rate", 0,
		"fraction of hot-phase requests sent with profile:true (the response must carry a trace)")
	return f
}
