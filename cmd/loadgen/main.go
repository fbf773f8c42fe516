// Command loadgen drives a running pslserved closed-loop over a
// corpus of PSL programs (internal/serve's generator): a sequential
// cold phase that first-touches every program, then -concurrency
// workers hammering the service for -duration with a hot/cold key mix
// (-cold is the forced-miss fraction; -auto-rate sends that fraction
// of requests with auto:true, exercising the planner-parallelized
// execution path under load; -trace-rate sends that fraction with
// profile:true and fails the request if the response carries no
// trace). No request names an engine — the server owns that choice.
// The JSON report on stdout carries throughput, client-side latency
// percentiles, and the server-accounted hot-phase cache-hit rate.
//
// CI gates on it: -require-hot-rate 0.95 -fail-on-error makes the
// process exit nonzero when the service misbehaves under load.
//
//	go run ./cmd/pslserved &
//	go run ./cmd/loadgen -addr http://127.0.0.1:8080 -concurrency 64 -duration 2s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/expflags"
	"repro/internal/serve"
)

func main() {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	f := expflags.RegisterLoadgen(fs)
	fs.Parse(os.Args[1:])

	corpus, err := serve.LoadCorpus(f.Corpus)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}

	ctx := context.Background()
	readyCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	err = serve.WaitReady(readyCtx, nil, f.Addr)
	cancel()
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}

	res, err := serve.RunLoad(ctx, serve.LoadConfig{
		URL:         f.Addr,
		Corpus:      corpus,
		Concurrency: f.Concurrency,
		Duration:    f.Duration,
		ColdRatio:   f.Cold,
		AutoRate:    f.AutoRate,
		TraceRate:   f.TraceRate,
		Seed:        f.Seed,
	})
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(res)

	if (f.FailOnError || f.RequireHotRate > 0) && res.Requests == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: no requests completed")
		os.Exit(1)
	}
	if f.FailOnError && res.Errors > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d request errors\n", res.Errors)
		os.Exit(1)
	}
	if f.RequireHotRate > 0 && res.HotHitRate < f.RequireHotRate {
		fmt.Fprintf(os.Stderr, "loadgen: hot-phase hit rate %.3f below required %.3f\n",
			res.HotHitRate, f.RequireHotRate)
		os.Exit(1)
	}
}
