// The closed-loop load generator behind cmd/loadgen and the
// BENCH_serve.json trajectory. Two phases against a running service:
//
//  1. cold — every corpus program is POSTed once, sequentially,
//     measuring first-touch latency (full lex/parse/check/compile);
//  2. hot — Concurrency workers run closed-loop (next request only
//     after the previous response) for Duration, drawing corpus
//     programs at random; a ColdRatio fraction of requests mutates the
//     source with a unique comment, forcing a content-hash miss, so
//     the hot phase exercises the hot/cold mix rather than a pure
//     cache residency test. An AutoRate fraction is sent with
//     "auto": true (planner-parallelized execution), so the parallel
//     path carries load too, not just the serial one.
//
// Hit rates come from diffing the server's /stats around the hot
// phase; latencies are measured client-side per request.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Program is one corpus entry for load generation.
type Program struct {
	Name   string
	Source string
	Fn     string // "" = main
}

// LoadCorpus reads every .psl file under dir as a Program whose entry
// point is main — the shape of this repository's testdata corpus.
func LoadCorpus(dir string) ([]Program, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.psl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var out []Program
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		out = append(out, Program{Name: filepath.Base(name), Source: string(src)})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: no .psl programs under %s", dir)
	}
	return out, nil
}

// LoadConfig configures one generator run.
type LoadConfig struct {
	// URL is the service base ("http://127.0.0.1:8080").
	URL    string
	Corpus []Program
	// Concurrency is the closed-loop worker count (0 = 8).
	Concurrency int
	// Duration is the hot-phase length (0 = 2s).
	Duration time.Duration
	// ColdRatio is the fraction of hot-phase requests sent with a
	// never-seen source (forced cache miss).
	ColdRatio float64
	// AutoRate is the fraction of hot-phase requests sent with
	// "auto": true — planner-parallelized execution on AutoPEs workers
	// — so the parallel path is load-tested alongside the serial one.
	// When set, the cold phase also first-touches each program's auto
	// variant, so hot auto requests hit the cache like serial ones.
	AutoRate float64
	// AutoPEs is the worker-pool size auto requests ask for (0 = 2 —
	// deliberately small: with Concurrency closed-loop workers in
	// flight, per-request pools multiply).
	AutoPEs int
	// TraceRate is the fraction of hot-phase requests sent with
	// "profile": true, exercising the tracing path under load. A
	// profiled request whose Response carries no trace counts as an
	// error — the observability contract is part of what the load gate
	// checks.
	TraceRate float64
	// Seed makes the workers' corpus draws reproducible.
	Seed int64
	// Client overrides the HTTP client (nil = a pooled default).
	Client *http.Client
}

// LoadResult is one generator run's report (the BENCH_serve.json row).
type LoadResult struct {
	Concurrency int     `json:"concurrency"`
	ColdRatio   float64 `json:"cold_ratio"`
	// AutoRate echoes the configured auto mix; AutoRequests counts the
	// hot-phase requests actually sent with "auto": true.
	AutoRate     float64 `json:"auto_rate"`
	AutoRequests int64   `json:"auto_requests"`
	// TraceRate echoes the configured profile mix; ProfiledRequests
	// counts the hot-phase requests actually sent with "profile": true
	// (each verified to return a trace).
	TraceRate        float64 `json:"trace_rate"`
	ProfiledRequests int64   `json:"profiled_requests"`
	// Requests/Errors cover the hot phase; an error is any non-200,
	// non-503 status or a Response with ok=false. 503s are the pool's
	// admission back-pressure — the worker backs off and retries, and
	// the attempt is counted under Rejected instead.
	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	Rejected   int64   `json:"rejected"`
	DurationMS int64   `json:"duration_ms"`
	RPS        float64 `json:"rps"`
	// HotHitRate is Δhits/(Δhits+Δmisses) across the hot phase, from
	// the server's own cache counters.
	HotHitRate float64 `json:"hot_hit_rate"`
	P50US      int64   `json:"p50_us"`
	P95US      int64   `json:"p95_us"`
	P99US      int64   `json:"p99_us"`
	// ColdMeanUS is the mean first-touch latency from the cold phase.
	ColdMeanUS int64 `json:"cold_mean_us"`
}

// coldSeq distinguishes forced-miss sources across workers and runs in
// one process (each mutation must be globally fresh to be a miss).
var coldSeq atomic.Int64

// RunLoad drives one cold+hot generator run against a service.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadResult, error) {
	if len(cfg.Corpus) == 0 {
		return nil, fmt.Errorf("serve: empty corpus")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		// The per-request Timeout is the generator's own watchdog: a
		// wedged server (the very regression a CI load gate exists to
		// catch) must fail the run, not hang it until the job timeout.
		client = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Concurrency * 2,
				MaxIdleConnsPerHost: cfg.Concurrency * 2,
			},
		}
	}

	if cfg.AutoPEs <= 0 {
		cfg.AutoPEs = 2
	}
	res := &LoadResult{Concurrency: cfg.Concurrency, ColdRatio: cfg.ColdRatio,
		AutoRate: cfg.AutoRate, TraceRate: cfg.TraceRate}

	// Cold phase: first touch of every corpus program — and, when the
	// hot phase will send auto requests, of every program's planned
	// variant, so the auto mix measures the hot path rather than
	// repeated first-touch planning.
	type coldReq struct {
		name string
		req  Request
	}
	coldReqs := make([]coldReq, 0, 2*len(cfg.Corpus))
	for _, p := range cfg.Corpus {
		coldReqs = append(coldReqs, coldReq{p.Name, Request{Source: p.Source, Fn: p.Fn}})
		if cfg.AutoRate > 0 {
			coldReqs = append(coldReqs, coldReq{p.Name + " (auto)",
				Request{Source: p.Source, Fn: p.Fn, Auto: true, PEs: cfg.AutoPEs}})
		}
	}
	var coldSum int64
	for _, c := range coldReqs {
		start := time.Now()
		resp, status, _, err := postRun(ctx, client, cfg.URL, c.req)
		if err != nil {
			return nil, fmt.Errorf("cold %s: %w", c.name, err)
		}
		if status != http.StatusOK || !resp.OK {
			return nil, fmt.Errorf("cold %s: status %d, error %q", c.name, status, resp.Error)
		}
		coldSum += time.Since(start).Microseconds()
	}
	res.ColdMeanUS = coldSum / int64(len(coldReqs))

	before, err := fetchStats(ctx, client, cfg.URL)
	if err != nil {
		return nil, err
	}

	// Hot phase: closed-loop workers over the hot/cold key mix.
	hctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	latencies := make([][]int64, cfg.Concurrency)
	var requests, errors, rejected, autoReqs, profiled atomic.Int64
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			for hctx.Err() == nil {
				p := cfg.Corpus[rng.Intn(len(cfg.Corpus))]
				src := p.Source
				if cfg.ColdRatio > 0 && rng.Float64() < cfg.ColdRatio {
					src += fmt.Sprintf("\n// cold-miss %d\n", coldSeq.Add(1))
				}
				req := Request{Source: src, Fn: p.Fn}
				if cfg.AutoRate > 0 && rng.Float64() < cfg.AutoRate {
					req.Auto = true
					req.PEs = cfg.AutoPEs
				}
				if cfg.TraceRate > 0 && rng.Float64() < cfg.TraceRate {
					req.Profile = true
				}
				t0 := time.Now()
				resp, status, hdr, err := postRun(hctx, client, cfg.URL, req)
				if hctx.Err() != nil && err != nil {
					break // the phase deadline cut this request off mid-flight
				}
				if status == http.StatusServiceUnavailable {
					// Back-pressure: honor the server's Retry-After instead
					// of hammering a service that just said it is full.
					rejected.Add(1)
					select {
					case <-time.After(retryAfterDelay(hdr, 2*time.Millisecond)):
					case <-hctx.Done():
					}
					continue
				}
				requests.Add(1)
				if req.Auto {
					autoReqs.Add(1)
				}
				if req.Profile {
					profiled.Add(1)
				}
				latencies[w] = append(latencies[w], time.Since(t0).Microseconds())
				if err != nil || status != http.StatusOK || !resp.OK ||
					(req.Profile && resp.Trace == nil) {
					errors.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := fetchStats(ctx, client, cfg.URL)
	if err != nil {
		return nil, err
	}

	res.Requests = requests.Load()
	res.Errors = errors.Load()
	res.Rejected = rejected.Load()
	res.AutoRequests = autoReqs.Load()
	res.ProfiledRequests = profiled.Load()
	res.DurationMS = elapsed.Milliseconds()
	if elapsed > 0 {
		res.RPS = float64(res.Requests) / elapsed.Seconds()
	}
	dh := after.Cache.Hits - before.Cache.Hits
	dm := after.Cache.Misses - before.Cache.Misses
	if dh+dm > 0 {
		res.HotHitRate = float64(dh) / float64(dh+dm)
	}
	var all []int64
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.P50US = percentile(all, 0.50)
	res.P95US = percentile(all, 0.95)
	res.P99US = percentile(all, 0.99)
	return res, nil
}

// percentile reads the p-quantile of an ascending-sorted slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// retryAfterDelay converts a rejection's Retry-After header (integer
// seconds, per the servers in this repository) into a backoff,
// capped at 5s so a buggy header cannot park a worker; fallback covers
// absent or malformed values.
func retryAfterDelay(h http.Header, fallback time.Duration) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h.Get("Retry-After")))
	if err != nil || secs < 0 {
		return fallback
	}
	d := time.Duration(secs) * time.Second
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

func postRun(ctx context.Context, client *http.Client, base string, req Request) (Response, int, http.Header, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return Response{}, 0, nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(base, "/")+"/run", bytes.NewReader(body))
	if err != nil {
		return Response{}, 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := client.Do(hreq)
	if err != nil {
		return Response{}, 0, nil, err
	}
	defer hresp.Body.Close()
	var resp Response
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return Response{}, hresp.StatusCode, hresp.Header, err
	}
	return resp, hresp.StatusCode, hresp.Header, nil
}

// WaitReady polls /healthz until the service answers 200 or ctx dies —
// so a generator started alongside the server needs no sleep.
func WaitReady(ctx context.Context, client *http.Client, base string) error {
	if client == nil {
		client = http.DefaultClient
	}
	url := strings.TrimRight(base, "/") + "/healthz"
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return fmt.Errorf("serve: service at %s not ready: %w", base, ctx.Err())
		}
	}
}

func fetchStats(ctx context.Context, client *http.Client, base string) (Stats, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(base, "/")+"/stats", nil)
	if err != nil {
		return Stats{}, err
	}
	hresp, err := client.Do(hreq)
	if err != nil {
		return Stats{}, err
	}
	defer hresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(hresp.Body).Decode(&st); err != nil {
		return Stats{}, err
	}
	return st, nil
}
