// Tests for the observability surface: request traces (profile:true,
// sampling, /debug/traces), the parallel-efficiency report, the
// derived latency percentiles, and the Prometheus export — plus the
// overhead contract: with tracing off, the hot request path allocates
// exactly what it allocated before tracing existed.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// spanNames flattens a trace view's root span names in order.
func spanNames(v *obs.TraceView) []string {
	names := make([]string, len(v.Spans))
	for i, s := range v.Spans {
		names[i] = s.Name
	}
	return names
}

func findSpan(spans []obs.SpanView, name string) *obs.SpanView {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
	}
	return nil
}

// TestProfileTrace: "profile": true returns the span tree — admission,
// cache (with parse and compile children on a serial miss, none on a hit),
// execute, merge — with durations that fit inside the trace wall.
func TestProfileTrace(t *testing.T) {
	s := newTestServer(t, Config{})

	miss := mustRun(t, s, Request{Source: addSrc, Profile: true})
	if !miss.OK || miss.Trace == nil {
		t.Fatalf("profiled miss: %+v", miss)
	}
	if miss.Trace.ID == "" {
		t.Errorf("trace has no ID")
	}
	got := spanNames(miss.Trace)
	want := []string{"admission", "cache", "execute", "merge"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("spans %v, want %v", got, want)
	}
	cacheSp := findSpan(miss.Trace.Spans, "cache")
	if cacheSp.Attrs["hit"] != "false" {
		t.Errorf("miss trace cache attrs = %v, want hit=false", cacheSp.Attrs)
	}
	for _, child := range []string{"parse", "compile"} {
		if findSpan(cacheSp.Children, child) == nil {
			t.Errorf("miss trace cache span lacks %q child: %+v", child, cacheSp.Children)
		}
	}
	for _, sp := range miss.Trace.Spans {
		if sp.StartUS < 0 || sp.DurUS < 0 || sp.StartUS+sp.DurUS > miss.Trace.WallUS+1 {
			t.Errorf("span %s [%d +%d] escapes trace wall %d", sp.Name, sp.StartUS, sp.DurUS, miss.Trace.WallUS)
		}
	}

	hit := mustRun(t, s, Request{Source: addSrc, Profile: true})
	if !hit.Cached || hit.Trace == nil {
		t.Fatalf("profiled hit: %+v", hit)
	}
	cacheSp = findSpan(hit.Trace.Spans, "cache")
	if cacheSp.Attrs["hit"] != "true" || len(cacheSp.Children) != 0 {
		t.Errorf("hit trace cache span = %+v, want hit=true and no build children", cacheSp)
	}

	// An unprofiled request on an unsampled server returns no trace.
	if plain := mustRun(t, s, Request{Source: addSrc}); plain.Trace != nil {
		t.Errorf("unprofiled request returned a trace")
	}
}

// TestAutoMissTraceShape: the trace of an auto miss explains where the
// build went. The planner lowers the program it planned, so there is no
// compile stage beside plan; instead plan carries the planner's own
// stage timings — analyze (effect summaries included), depend,
// rewrite, lower — back to back and inside its span. A plan that
// approves nothing lowers nothing, and the miss compiles the input as a
// serial miss does.
func TestAutoMissTraceShape(t *testing.T) {
	s := newTestServer(t, Config{})
	childNames := func(sp *obs.SpanView) string {
		var names []string
		for _, c := range sp.Children {
			names = append(names, c.Name)
		}
		return strings.Join(names, ",")
	}

	miss := mustRun(t, s, Request{Source: scalePar + "// trace shape\n", Auto: true, PEs: 2, Profile: true})
	if !miss.OK || miss.Cached || miss.Trace == nil {
		t.Fatalf("profiled auto miss: %+v", miss)
	}
	cacheSp := findSpan(miss.Trace.Spans, "cache")
	if got := childNames(cacheSp); got != "parse,plan" {
		t.Fatalf("auto miss cache children %q, want parse,plan", got)
	}
	planSp := findSpan(cacheSp.Children, "plan")
	if got := childNames(planSp); got != "analyze,depend,rewrite,lower" {
		t.Fatalf("plan children %q, want analyze,depend,rewrite,lower", got)
	}
	at, sum := planSp.Children[0].StartUS, int64(0)
	if at < planSp.StartUS {
		t.Errorf("plan stages start at %d µs, before the plan span [%d +%d]", at, planSp.StartUS, planSp.DurUS)
	}
	for _, st := range planSp.Children {
		// Each stage starts where the one before ended, give or take the
		// microsecond each boundary is rounded to.
		if st.StartUS < at-1 || st.StartUS > at+1 {
			t.Errorf("stage %s starts at %d µs, the stage before it ended at %d", st.Name, st.StartUS, at)
		}
		at = st.StartUS + st.DurUS
		sum += st.DurUS
	}
	if at > planSp.StartUS+planSp.DurUS+1 {
		t.Errorf("plan stages end at %d µs, after the plan span [%d +%d]", at, planSp.StartUS, planSp.DurUS)
	}
	if lower := findSpan(planSp.Children, "lower"); sum == 0 || lower.DurUS == 0 {
		t.Errorf("plan stages sum to %d µs (lower %d): the timings were not filled", sum, lower.DurUS)
	}

	none := mustRun(t, s, Request{Source: addSrc + "// trace shape\n", Auto: true, PEs: 2, Profile: true})
	if !none.OK || none.Trace == nil {
		t.Fatalf("profiled auto miss, nothing to approve: %+v", none)
	}
	if got := childNames(findSpan(none.Trace.Spans, "cache")); got != "parse,plan,compile" {
		t.Errorf("auto miss with nothing approved: cache children %q, want parse,plan,compile", got)
	}
}

// TestProfileEfficiency: a profiled auto run returns the per-forall
// efficiency report, keyed to the plan's parallelized loop by source
// line and attributed to its function.
func TestProfileEfficiency(t *testing.T) {
	s := newTestServer(t, Config{})
	resp := mustRun(t, s, Request{Source: scalePar, Auto: true, PEs: 2, Profile: true})
	if !resp.OK || resp.Plan == nil || resp.Trace == nil {
		t.Fatalf("profiled auto run: %+v", resp)
	}
	if len(resp.Efficiency) == 0 {
		t.Fatalf("profiled auto run returned no efficiency report")
	}
	planned := resp.Plan.Parallelized[0]
	site := resp.Efficiency[0]
	if site.Line != planned.Line {
		t.Errorf("efficiency site line %d, plan parallelized line %d", site.Line, planned.Line)
	}
	if site.Fn != planned.Fn {
		t.Errorf("efficiency site fn %q, plan fn %q", site.Fn, planned.Fn)
	}
	if site.PEs != 2 {
		t.Errorf("site ran on %d PEs, want 2", site.PEs)
	}
	if site.Tasks == 0 || site.Barriers == 0 {
		t.Errorf("empty site counters: %+v", site)
	}
	if site.BusyPct < 0 || site.BusyPct > 100 || site.WaitPct < 0 || site.WaitPct > 100 {
		t.Errorf("shares out of range: busy %.1f wait %.1f", site.BusyPct, site.WaitPct)
	}
	if site.Imbalance < 1 {
		t.Errorf("imbalance %.2f < 1 (busiest/mean cannot undercut the mean)", site.Imbalance)
	}
	// Unprofiled requests never pay for the report.
	if again := mustRun(t, s, Request{Source: scalePar, Auto: true, PEs: 2}); len(again.Efficiency) != 0 {
		t.Errorf("unprofiled auto run returned an efficiency report")
	}
}

// TestDefaultPEsCappedByMaxPEs: pes 0 means this host capped at MaxPEs
// for the pool as well as for the auto strip width, so on a host with
// more CPUs than MaxPEs every forall site runs on MaxPEs PEs.
func TestDefaultPEsCappedByMaxPEs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := newTestServer(t, Config{MaxPEs: 1})
	const forallSrc = `
function int main() {
  forall i = 0 to 7 {
    print(i);
  }
  return 1;
}`
	for _, req := range []Request{
		{Source: forallSrc, Parallel: true, Profile: true},
		{Source: scalePar, Auto: true, Profile: true},
	} {
		resp := mustRun(t, s, req)
		if !resp.OK || len(resp.Efficiency) == 0 {
			t.Fatalf("profiled run (auto %t): %+v", req.Auto, resp)
		}
		for _, site := range resp.Efficiency {
			if site.PEs != 1 {
				t.Errorf("auto %t: site at line %d ran on %d PEs, MaxPEs is 1", req.Auto, site.Line, site.PEs)
			}
		}
	}
}

// TestTraceSampling: with TraceRate 1 every request lands in the
// /debug/traces ring, which keeps the last traceRing, without any
// response carrying a trace; with the rate unset the ring stays empty.
func TestTraceSampling(t *testing.T) {
	s := newTestServer(t, Config{TraceRate: 1})
	for i := 0; i < 5; i++ {
		if resp := mustRun(t, s, Request{Source: addSrc}); resp.Trace != nil {
			t.Fatalf("sampled (not profiled) request %d returned a trace in the response", i)
		}
	}
	if n := s.traces.Len(); n != 5 {
		t.Errorf("ring holds %d traces after 5 sampled requests, want 5", n)
	}
	for i := 5; i < traceRing+5; i++ {
		mustRun(t, s, Request{Source: addSrc})
	}
	if n := s.traces.Len(); n != traceRing {
		t.Errorf("ring holds %d traces after %d sampled requests, want its bound %d", n, traceRing+5, traceRing)
	}

	off := newTestServer(t, Config{})
	for i := 0; i < 5; i++ {
		mustRun(t, off, Request{Source: addSrc})
	}
	if n := off.traces.Len(); n != 0 {
		t.Errorf("ring holds %d traces with sampling off, want 0", n)
	}
}

// TestServeHotNoTraceAllocs pins the overhead contract of ISSUE 9's
// tracing: with sampling off and no profile flag, the trace decision
// is a field compare and a nil check — the hot cache-hit request path
// allocates the same small constant it allocated before tracing
// existed. The bound is the measured count (21; 22 under -race) plus
// two; the gate adds nothing to an uncontended request — no waiter, no
// channel. What it catches is a per-request Trace, Span, or
// time.Now-into-heap sneaking onto the untraced path, or a hand-off
// coming back.
func TestServeHotNoTraceAllocs(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	req := Request{Source: addSrc}
	if resp := mustRun(t, s, req); !resp.OK {
		t.Fatalf("warm: %+v", resp)
	}
	allocs := testing.AllocsPerRun(50, func() {
		resp, err := s.Run(context.Background(), req)
		if err != nil || !resp.OK {
			t.Fatal(err, resp.Error)
		}
	})
	if allocs > 23 {
		t.Errorf("untraced hot request allocates %.0f objects, want ≤ 23 (tracing and queueing must stay off the hot path)", allocs)
	}
}

// TestMetricsEndpoint: GET /metrics renders the same snapshot /stats
// serves, in Prometheus text format — counters match, the latency
// histogram is cumulative and ends in an +Inf bucket equal to the
// sample count, and the runtime gauges are present.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		if resp, status, _, err := postRun(context.Background(), ts.Client(), ts.URL, Request{Source: addSrc}); err != nil || status != http.StatusOK || !resp.OK {
			t.Fatalf("request %d: %v %d %+v", i, err, status, resp)
		}
	}

	r, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if ct := r.Header.Get("Content-Type"); ct != promContentType {
		t.Errorf("content type %q, want %q", ct, promContentType)
	}
	text := string(body)
	st := s.Stats()

	wantLines := map[string]float64{
		"psl_requests_total":                float64(st.Requests),
		"psl_cache_hits_total":              float64(st.Cache.Hits),
		"psl_cache_entries":                 float64(st.Cache.Entries),
		"psl_queue_workers":                 3,
		"psl_gomaxprocs":                    float64(st.Runtime.GoMaxProcs),
		"psl_request_latency_seconds_count": float64(st.Latency.Count),
	}
	for name, want := range wantLines {
		got, ok := promValue(text, name)
		if !ok {
			t.Errorf("/metrics lacks %s", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if inf, ok := promValue(text, `psl_request_latency_seconds_bucket{le="+Inf"}`); !ok || inf != float64(st.Latency.Count) {
		t.Errorf(`+Inf bucket = %v (present %v), want %d`, inf, ok, st.Latency.Count)
	}
	// Cumulative: bucket values never decrease down the bound list.
	prev := -1.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, `psl_request_latency_seconds_bucket{le="`) {
			continue
		}
		f := strings.Fields(line)
		var v float64
		if _, err := fmt.Sscan(f[len(f)-1], &v); err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("histogram not cumulative at %q (prev %v)", line, prev)
		}
		prev = v
	}
}

// promValue finds "name value" (or "name{labels} value") in exposition
// text.
func promValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || !strings.HasPrefix(rest, " ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(strings.TrimSpace(rest), &v); err == nil {
			return v, true
		}
	}
	return 0, false
}

// TestDebugTracesEndpoint: traced requests land in the bounded ring
// GET /debug/traces serves, newest first, and a propagated header ID
// is adopted verbatim.
func TestDebugTracesEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(Request{Source: addSrc, Profile: true})
	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/run", strings.NewReader(string(body)))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(obs.TraceHeader, "cafe0123cafe0123")
	r, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if resp.Trace == nil || resp.Trace.ID != "cafe0123cafe0123" {
		t.Fatalf("propagated trace ID not adopted: %+v", resp.Trace)
	}

	r, err = ts.Client().Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var views []obs.TraceView
	if err := json.NewDecoder(r.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(views) != 1 || views[0].ID != "cafe0123cafe0123" {
		t.Fatalf("/debug/traces = %+v, want the one traced request", views)
	}
	if len(views[0].Spans) == 0 {
		t.Errorf("ring trace has no spans")
	}
}

// TestHistogramPercentileBracket feeds a known latency population and
// asserts the histogram-derived percentiles land inside the bucket
// that holds the exact (sorted-sample) percentile — the resolution
// contract LatencyStats documents. The exact oracle is loadgen's
// percentile(), the same function the client-side report uses.
func TestHistogramPercentileBracket(t *testing.T) {
	h := newHistogram()
	var samples []int64
	add := func(us int64, n int) {
		for i := 0; i < n; i++ {
			samples = append(samples, us)
			h.observe(time.Duration(us) * time.Microsecond)
		}
	}
	add(80, 100)    // bucket ≤100
	add(300, 60)    // bucket ≤500
	add(3_000, 30)  // bucket ≤5000
	add(40_000, 10) // bucket ≤50000
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })

	st := h.snapshot()
	for _, tc := range []struct {
		q       float64
		derived int64
	}{{0.50, st.P50US}, {0.95, st.P95US}, {0.99, st.P99US}} {
		exact := percentile(samples, tc.q)
		lo, hi := bucketBounds(exact)
		if tc.derived < lo || tc.derived > hi {
			t.Errorf("p%d = %dµs outside bucket (%d, %d] holding exact %dµs",
				int(tc.q*100), tc.derived, lo, hi, exact)
		}
	}
	if st.SumUS != 100*80+60*300+30*3_000+10*40_000 {
		t.Errorf("sum %dµs", st.SumUS)
	}
}

// bucketBounds returns the (lo, hi] latency bucket containing us.
func bucketBounds(us int64) (int64, int64) {
	var lo int64
	for _, b := range latencyBoundsUS {
		if us <= b {
			return lo, b
		}
		lo = b
	}
	return lo, 1 << 62
}

// TestHistogramEdges: a sample exactly on a bucket bound counts into
// that bucket (bounds are ≤), and an over-range sample lands in the
// overflow bucket (LeUS 0), where percentiles saturate at the last
// finite bound rather than invent precision.
func TestHistogramEdges(t *testing.T) {
	h := newHistogram()
	h.observe(100 * time.Microsecond) // exactly the first bound
	st := h.snapshot()
	if len(st.Buckets) != 1 || st.Buckets[0].LeUS != 100 || st.Buckets[0].Count != 1 {
		t.Fatalf("on-bound sample: %+v, want one count in le_us=100", st.Buckets)
	}

	h = newHistogram()
	h.observe(6 * time.Second) // beyond the 5s last bound
	st = h.snapshot()
	if len(st.Buckets) != 1 || st.Buckets[0].LeUS != 0 || st.Buckets[0].Count != 1 {
		t.Fatalf("overflow sample: %+v, want one count in the le_us=0 overflow bucket", st.Buckets)
	}
	last := latencyBoundsUS[len(latencyBoundsUS)-1]
	if st.P50US != last || st.P99US != last {
		t.Errorf("overflow percentiles p50=%d p99=%d, want both saturated at %d", st.P50US, st.P99US, last)
	}

	if st := newHistogram().snapshot(); st.P50US != 0 || st.Count != 0 {
		t.Errorf("empty histogram: %+v", st)
	}
}

// TestHistogramConcurrent hammers observe against snapshot under the
// race detector: snapshots taken mid-stream must stay internally
// consistent (never more bucketed samples than observed ones).
func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram()
	const (
		writers = 4
		perW    = 2000
	)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := h.snapshot()
			var bucketed int64
			for _, b := range st.Buckets {
				bucketed += b.Count
			}
			if bucketed > writers*perW {
				t.Errorf("snapshot bucketed %d samples of max %d", bucketed, writers*perW)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.observe(time.Duration(50+w*200+i%7000) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	st := h.snapshot()
	if st.Count != writers*perW {
		t.Errorf("final count %d, want %d", st.Count, writers*perW)
	}
	var bucketed int64
	for _, b := range st.Buckets {
		bucketed += b.Count
	}
	if bucketed != st.Count {
		t.Errorf("final snapshot bucketed %d of %d samples", bucketed, st.Count)
	}
}

// TestRouterMetricsEndpoint: the router's /metrics renders its
// snapshot — requests handed to a replica and cache counters summed
// over the replicas.
func TestRouterMetricsEndpoint(t *testing.T) {
	r, replicas := newTestRouter(t, 2)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if resp, status, _, err := postRun(context.Background(), ts.Client(), ts.URL, Request{Source: addSrc}); err != nil || status != http.StatusOK || !resp.OK {
			t.Fatalf("request %d: %v %d %+v", i, err, status, resp)
		}
	}

	hr, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); ct != promContentType {
		t.Errorf("content type %q", ct)
	}
	text := string(body)
	var hits, compiles int64
	for _, s := range replicas {
		hits += s.Stats().Cache.Hits
		compiles += s.Stats().Cache.Compiles
	}
	for name, want := range map[string]float64{
		"psl_router_requests_total":       3,
		"psl_router_cache_hits_total":     float64(hits),
		"psl_router_cache_compiles_total": float64(compiles),
	} {
		if got, ok := promValue(text, name); !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}

// TestLoadTraceMix: the generator's trace-rate mix — profiled requests
// under concurrent load, every one answered with a span tree (a
// missing trace counts as an error and fails the run).
func TestLoadTraceMix(t *testing.T) {
	corpus, err := LoadCorpus(filepath.Join("..", "..", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 8, QueueDepth: 128})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, err := RunLoad(context.Background(), LoadConfig{
		URL:         ts.URL,
		Corpus:      corpus,
		Concurrency: 16,
		Duration:    400 * time.Millisecond,
		ColdRatio:   0.02,
		TraceRate:   0.3,
		Seed:        1,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("trace-mix load run had %d errors (of %d requests)", res.Errors, res.Requests)
	}
	if res.ProfiledRequests == 0 {
		t.Errorf("trace mix sent no profiled requests (of %d)", res.Requests)
	}
	if res.HotHitRate < 0.95 {
		t.Errorf("hot-phase hit rate %.3f, want >= 0.95", res.HotHitRate)
	}
	t.Logf("trace mix: %d req (%d profiled), %.0f rps", res.Requests, res.ProfiledRequests, res.RPS)
}
