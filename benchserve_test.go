// BENCH_serve.json is the checked-in serving-layer performance
// trajectory: closed-loop throughput, latency percentiles, and
// hot-phase cache-hit rate of the internal/serve service over the
// testdata corpus at concurrency 1, 8, and 64, plus an auto-parallel
// row (concurrency 8 with a 25% "auto": true mix, exercising the
// planner-transformed hot path) — the DESIGN.md R4/R5 rows.
// Like BENCH_interp.json, PRs that touch the serving or execution core
// re-emit the file and commit it, so cache-hit throughput — the
// service's headline metric — is visible in review diffs.
//
// Regenerate (takes a few seconds) with:
//
//	go test -run TestBenchServeJSON -write-bench-serve .
//
// The non-writing run only validates shape: the file exists, parses,
// has a row per expected concurrency, and records zero errors with a
// hot-phase hit rate ≥ 0.9. Absolute throughput is machine-dependent
// and never asserted.
package repro

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/serve"
)

var writeBenchServe = flag.Bool("write-bench-serve", false, "re-measure and rewrite BENCH_serve.json")

const benchServePath = "BENCH_serve.json"

// benchServeRows are the measured configurations: the concurrency
// sweep and the auto-parallel hot-phase row.
var benchServeRows = []struct {
	Concurrency int
	AutoRate    float64
}{{1, 0}, {8, 0}, {64, 0}, {8, 0.25}}

func benchRowKey(c int, autoRate float64) string {
	return fmt.Sprintf("c%d/auto%.2f", c, autoRate)
}

// serveBenchFile is the BENCH_serve.json schema. GoMaxProcs and
// GoVersion ride along with cpus so trajectory rows measured on
// different boxes (or GOMAXPROCS caps, or toolchains) are comparable.
type serveBenchFile struct {
	GeneratedBy string             `json:"generated_by"`
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	CPUs        int                `json:"cpus"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go_version"`
	Runs        []serve.LoadResult `json:"runs"`
}

func TestBenchServeJSON(t *testing.T) {
	if *writeBenchServe {
		writeServeJSON(t)
	}
	data, err := os.ReadFile(benchServePath)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test -run TestBenchServeJSON -write-bench-serve .`)", err)
	}
	var f serveBenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s does not parse: %v", benchServePath, err)
	}
	seen := map[string]bool{}
	for _, r := range f.Runs {
		seen[benchRowKey(r.Concurrency, r.AutoRate)] = true
		if r.Requests <= 0 || r.RPS <= 0 {
			t.Errorf("concurrency %d: non-positive throughput (%d req, %.1f rps)",
				r.Concurrency, r.Requests, r.RPS)
		}
		if r.Errors != 0 {
			t.Errorf("concurrency %d: %d recorded errors", r.Concurrency, r.Errors)
		}
		if r.HotHitRate < 0.9 {
			t.Errorf("concurrency %d: hot-phase hit rate %.3f below 0.9", r.Concurrency, r.HotHitRate)
		}
		if r.AutoRate > 0 && r.AutoRequests == 0 {
			t.Errorf("auto row (concurrency %d) recorded no auto requests", r.Concurrency)
		}
	}
	for _, row := range benchServeRows {
		if !seen[benchRowKey(row.Concurrency, row.AutoRate)] {
			t.Errorf("%s missing the concurrency-%d auto-rate-%.2f run (regenerate with -write-bench-serve)",
				benchServePath, row.Concurrency, row.AutoRate)
		}
	}
	if f.GoMaxProcs <= 0 {
		t.Errorf("recorded gomaxprocs %d should be positive (regenerate with -write-bench-serve)", f.GoMaxProcs)
	}
	if f.GoVersion == "" {
		t.Error("recorded go_version is empty (regenerate with -write-bench-serve)")
	}
}

func writeServeJSON(t *testing.T) {
	t.Helper()
	corpus, err := serve.LoadCorpus("testdata")
	if err != nil {
		t.Fatal(err)
	}
	f := serveBenchFile{
		GeneratedBy: "go test -run TestBenchServeJSON -write-bench-serve .",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
	}
	for _, row := range benchServeRows {
		// A fresh server per run: every row starts cold, so ColdMeanUS
		// is a true first-touch measurement and the hit counters are
		// the row's own.
		s := serve.New(serve.Config{Workers: 8, QueueDepth: 128})
		ts := httptest.NewServer(s.Handler())
		res, err := serve.RunLoad(context.Background(), serve.LoadConfig{
			URL:         ts.URL,
			Corpus:      corpus,
			Concurrency: row.Concurrency,
			Duration:    800 * time.Millisecond,
			ColdRatio:   0.02,
			AutoRate:    row.AutoRate,
			Seed:        1,
			Client:      ts.Client(),
		})
		ts.Close()
		s.Close()
		if err != nil {
			t.Fatalf("concurrency %d: %v", row.Concurrency, err)
		}
		f.Runs = append(f.Runs, *res)
		t.Logf("concurrency %d (auto %.0f%%): %.0f rps, hit rate %.3f, p50 %dµs p99 %dµs (cold %dµs)",
			row.Concurrency, 100*row.AutoRate, res.RPS, res.HotHitRate, res.P50US, res.P99US, res.ColdMeanUS)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(benchServePath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s\n", benchServePath)
}
