// The stats surface: request counters, cache and queue snapshots, and
// a log-scale latency histogram. Everything is cheap enough to record
// on the hot path (atomics; the histogram bucket scan is a dozen
// compares) and everything is exported through GET /stats, which is
// what cmd/loadgen diffs to compute hit rates for BENCH_serve.json.
package serve

import (
	"runtime"
	"sync/atomic"
	"time"
)

// latencyBoundsUS are the histogram bucket upper bounds, in
// microseconds; one overflow bucket follows the last bound.
var latencyBoundsUS = []int64{
	100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
}

type histogram struct {
	buckets []atomic.Int64 // len(latencyBoundsUS)+1
	count   atomic.Int64
	sumUS   atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{buckets: make([]atomic.Int64, len(latencyBoundsUS)+1)}
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	h.count.Add(1)
	h.sumUS.Add(us)
	for i, b := range latencyBoundsUS {
		if us <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(latencyBoundsUS)].Add(1)
}

// Bucket is one histogram cell: count of requests with latency ≤ LeUS
// microseconds (and above the previous bound); LeUS 0 marks overflow.
type Bucket struct {
	LeUS  int64 `json:"le_us"`
	Count int64 `json:"count"`
}

// LatencyStats is the latency section of Stats. P50US/P95US/P99US are
// derived from the histogram by linear interpolation within the
// bucket holding the target rank, so they carry bucket-resolution
// error: the true percentile lies within the same bucket's bounds.
type LatencyStats struct {
	Count   int64    `json:"count"`
	MeanUS  int64    `json:"mean_us"`
	SumUS   int64    `json:"sum_us"`
	P50US   int64    `json:"p50_us"`
	P95US   int64    `json:"p95_us"`
	P99US   int64    `json:"p99_us"`
	Buckets []Bucket `json:"buckets"`
}

func (h *histogram) snapshot() LatencyStats {
	st := LatencyStats{Count: h.count.Load(), SumUS: h.sumUS.Load()}
	if st.Count > 0 {
		st.MeanUS = st.SumUS / st.Count
	}
	counts := make([]int64, len(h.buckets))
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	// Rank against the sum of bucket counts, not h.count: under
	// concurrent observes the two can be momentarily out of step, and
	// percentiles must rank within the samples actually bucketed.
	st.P50US = histPercentile(counts, total, 0.50)
	st.P95US = histPercentile(counts, total, 0.95)
	st.P99US = histPercentile(counts, total, 0.99)
	for i, n := range counts {
		if n == 0 {
			continue
		}
		b := Bucket{Count: n}
		if i < len(latencyBoundsUS) {
			b.LeUS = latencyBoundsUS[i]
		}
		st.Buckets = append(st.Buckets, b)
	}
	return st
}

// histPercentile locates the q-quantile in the bucketed counts: walk
// to the bucket holding the ceil(q×total)-th sample and interpolate
// linearly between its bounds. Samples in the overflow bucket report
// the last finite bound — the histogram cannot see further.
func histPercentile(counts []int64, total int64, q float64) int64 {
	if total <= 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if float64(rank) < q*float64(total) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i >= len(latencyBoundsUS) {
				return latencyBoundsUS[len(latencyBoundsUS)-1]
			}
			var lo int64
			if i > 0 {
				lo = latencyBoundsUS[i-1]
			}
			hi := latencyBoundsUS[i]
			return lo + int64(float64(hi-lo)*float64(rank-cum)/float64(c))
		}
		cum += c
	}
	return latencyBoundsUS[len(latencyBoundsUS)-1]
}

// Stats is the service-wide snapshot returned by Server.Stats and
// GET /stats.
type Stats struct {
	// Requests counts every Run call; Invalid the ones rejected as
	// malformed, Rejected the admission failures (queue full or
	// draining), Abandoned the admitted requests whose client gave up
	// while they were queued (never executed), Errors the executed
	// requests that failed (compile error, runtime error, or sandbox
	// kill).
	Requests  int64        `json:"requests"`
	Invalid   int64        `json:"invalid"`
	Rejected  int64        `json:"rejected"`
	Abandoned int64        `json:"abandoned"`
	Errors    int64        `json:"errors"`
	Cache     CacheStats   `json:"cache"`
	Queue     QueueStats   `json:"queue"`
	Latency   LatencyStats `json:"latency"`
	Runtime   RuntimeStats `json:"runtime"`
}

// RuntimeStats describes the serving process: how long it has been
// up and what it is running on. (How many requests it runs at once is
// Queue.Workers.)
type RuntimeStats struct {
	UptimeMS   int64  `json:"uptime_ms"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

func runtimeStats(start time.Time) RuntimeStats {
	return RuntimeStats{
		UptimeMS:   time.Since(start).Milliseconds(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:  s.requests.Load(),
		Invalid:   s.invalid.Load(),
		Rejected:  s.rejected.Load(),
		Abandoned: s.abandoned.Load(),
		Errors:    s.errors.Load(),
		Cache:     s.cache.stats(),
		Queue:     s.gate.stats(),
		Latency:   s.latency.snapshot(),
		Runtime:   runtimeStats(s.start),
	}
}
