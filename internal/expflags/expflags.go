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
	"time"

	"repro/internal/serve"
)

// Flags is the parsed flag values of cmd/experiments. See DESIGN.md's
// experiment index for the IDs each selector regenerates.
type Flags struct {
	Tables  bool // -t: T1/T2 simulated Sequent tables (§4.4)
	Fig     int  // -fig N: figures F1..F5
	PM      int  // -pm N: path-matrix experiments PM1..PM3
	X       int  // -x N: supplementary experiments X1..X3
	All     bool // -all: everything
	Measure int  // -measure: simulated time steps per table cell
}

// Register installs the cmd/experiments flag set on fs and returns the
// value struct the flags write into.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Tables, "t", false, "T1/T2 tables (simulated Sequent)")
	fs.IntVar(&f.Fig, "fig", 0, "figure number (1-5)")
	fs.IntVar(&f.PM, "pm", 0, "path-matrix experiment (1-3)")
	fs.IntVar(&f.X, "x", 0, "supplementary experiment (1-3)")
	fs.BoolVar(&f.All, "all", false, "run everything")
	fs.IntVar(&f.Measure, "measure", 1, "measured steps per table cell")
	return f
}

// ---------------------------------------------------------------------------
// cmd/pslserved

// ServeFlags is the parsed flag values of cmd/pslserved.
type ServeFlags struct {
	Addr         string        // -addr: listen address
	Workers      int           // -workers: executing requests (0 = GOMAXPROCS)
	Queue        int           // -queue: admission queue depth (0 = 4×workers)
	CacheEntries int           // -cache: compiled-program cache capacity
	Timeout      time.Duration // -timeout: default per-request wall clock
	MaxSteps     int64         // -max-steps: per-request statement budget
	MaxAllocs    int64         // -max-allocs: per-request allocation budget
	MaxOutput    int64         // -max-output: per-request print() byte budget
	TraceRate    float64       // -trace-rate: fraction of requests traced into /debug/traces
}

// RegisterServe installs the cmd/pslserved flag set on fs.
func RegisterServe(fs *flag.FlagSet) *ServeFlags {
	f := &ServeFlags{}
	fs.StringVar(&f.Addr, "addr", "127.0.0.1:8080", "listen address")
	fs.IntVar(&f.Workers, "workers", 0, "concurrently executing requests (0 = GOMAXPROCS)")
	fs.IntVar(&f.Queue, "queue", 0, "admission queue depth (0 = 4×workers)")
	fs.IntVar(&f.CacheEntries, "cache", 0, "compiled-program cache entries (0 = 128)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "default per-request wall-clock budget (0 = 5s)")
	fs.Int64Var(&f.MaxSteps, "max-steps", 0, "per-request statement budget (0 = 50M)")
	fs.Int64Var(&f.MaxAllocs, "max-allocs", 0, "per-request allocation budget (0 = 1M)")
	fs.Int64Var(&f.MaxOutput, "max-output", 0, "per-request print() byte budget (0 = 1MiB)")
	fs.Float64Var(&f.TraceRate, "trace-rate", 0,
		"fraction of requests traced into /debug/traces (0 = only profiled ones)")
	return f
}

// ServerConfig maps the flags onto a serve.Config (zeros keep the
// server defaults).
func (f *ServeFlags) ServerConfig() serve.Config {
	return serve.Config{
		Workers:        f.Workers,
		QueueDepth:     f.Queue,
		CacheEntries:   f.CacheEntries,
		DefaultTimeout: f.Timeout,
		MaxSteps:       f.MaxSteps,
		MaxAllocs:      f.MaxAllocs,
		MaxOutputBytes: f.MaxOutput,
		TraceRate:      f.TraceRate,
	}
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
