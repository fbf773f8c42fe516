// The Prometheus surface: GET /metrics on pslserved and pslrouter
// render the same Stats / RouterStats snapshots the JSON /stats
// endpoints serve, in text exposition format. The metrics are derived
// from the snapshot — there is no second set of counters to drift from
// the JSON numbers, and scraping costs one snapshot, same as /stats.
package serve

import (
	"fmt"
	"net/http"

	"repro/internal/obs"
)

// promLatency renders a LatencyStats as a Prometheus histogram. The
// snapshot omits empty buckets, so the counts are re-spread over the
// full bound list (the exposition format wants every bucket,
// cumulative).
func promLatency(p *obs.Prom, name, help string, ls LatencyStats) {
	counts := make([]int64, len(latencyBoundsUS))
	var overflow int64
	for _, b := range ls.Buckets {
		if b.LeUS == 0 {
			overflow = b.Count
			continue
		}
		for i, bound := range latencyBoundsUS {
			if bound == b.LeUS {
				counts[i] = b.Count
				break
			}
		}
	}
	p.HistogramUS(name, help, latencyBoundsUS, counts, overflow, ls.Count, ls.SumUS)
}

func promRuntime(p *obs.Prom, rt RuntimeStats) {
	p.Gauge("psl_uptime_seconds", "Seconds since the process started serving.", float64(rt.UptimeMS)/1e3)
	p.Gauge("psl_gomaxprocs", "GOMAXPROCS of the serving process.", float64(rt.GoMaxProcs))
	p.Gauge("psl_num_cpu", "Logical CPUs visible to the process.", float64(rt.NumCPU))
	if rt.PEs > 0 {
		p.Gauge("psl_pes", "Requests the service executes at once.", float64(rt.PEs))
	}
}

// writeMetrics renders one backend's Stats.
func writeMetrics(p *obs.Prom, st Stats) {
	p.Counter("psl_requests_total", "Run calls, including rejected and invalid ones.", float64(st.Requests))
	p.Counter("psl_invalid_requests_total", "Requests rejected as malformed.", float64(st.Invalid))
	p.Counter("psl_rejected_requests_total", "Admission rejections (queue full or draining).", float64(st.Rejected))
	p.Counter("psl_abandoned_requests_total", "Admitted requests cancelled by the client while queued.", float64(st.Abandoned))
	p.Counter("psl_request_errors_total", "Executed requests that failed.", float64(st.Errors))
	p.Counter("psl_cache_hits_total", "Program cache hits.", float64(st.Cache.Hits))
	p.Counter("psl_cache_misses_total", "Program cache misses.", float64(st.Cache.Misses))
	p.Counter("psl_cache_evictions_total", "Program cache evictions.", float64(st.Cache.Evictions))
	p.Counter("psl_cache_compiles_total", "Front-end builds (parse + check + codegen).", float64(st.Cache.Compiles))
	p.Gauge("psl_cache_entries", "Programs currently cached.", float64(st.Cache.Entries))
	p.Gauge("psl_cache_capacity", "Program cache capacity.", float64(st.Cache.Capacity))
	p.Gauge("psl_queue_depth", "Requests waiting for a slot.", float64(st.Queue.Depth))
	p.Gauge("psl_queue_capacity", "Admission queue capacity.", float64(st.Queue.Capacity))
	p.Gauge("psl_queue_running", "Requests executing now.", float64(st.Queue.Running))
	p.Gauge("psl_queue_workers", "Requests that may execute at once.", float64(st.Queue.Workers))
	p.Gauge("psl_queue_tenants", "Tenants with queued requests.", float64(st.Queue.Tenants))
	p.Counter("psl_tenant_rejected_total", "Admissions refused because the tenant's quota was full.", float64(st.Queue.TenantRejected))
	promLatency(p, "psl_request_latency_seconds", "Latency of executed requests.", st.Latency)
	promRuntime(p, st.Runtime)
}

// writeRouterMetrics renders the router's RouterStats, with per-backend
// series labeled by backend URL.
func writeRouterMetrics(p *obs.Prom, st RouterStats) {
	p.Counter("psl_router_requests_total", "Requests the router received.", float64(st.Requests))
	p.Counter("psl_router_retries_total", "Failover retries to another backend.", float64(st.Retries))
	p.Counter("psl_router_unroutable_total", "Requests with no healthy backend to try.", float64(st.Unroutable))
	p.Counter("psl_router_cache_hits_total", "Fleet-aggregate program cache hits.", float64(st.Cache.Hits))
	p.Counter("psl_router_cache_misses_total", "Fleet-aggregate program cache misses.", float64(st.Cache.Misses))
	p.Counter("psl_router_cache_compiles_total", "Fleet-aggregate front-end builds.", float64(st.Cache.Compiles))
	healthy := make([]obs.Labeled, 0, len(st.Backends))
	routed := make([]obs.Labeled, 0, len(st.Backends))
	failures := make([]obs.Labeled, 0, len(st.Backends))
	for _, b := range st.Backends {
		l := fmt.Sprintf("backend=%q", obs.EscapeLabel(b.URL))
		h := 0.0
		if b.Healthy {
			h = 1
		}
		healthy = append(healthy, obs.Labeled{Labels: l, Value: h})
		routed = append(routed, obs.Labeled{Labels: l, Value: float64(b.Routed)})
		failures = append(failures, obs.Labeled{Labels: l, Value: float64(b.Failures)})
	}
	p.LabeledGauge("psl_router_backend_healthy", "1 while the backend passes health checks.", healthy)
	p.LabeledCounter("psl_router_backend_routed_total", "Requests routed to the backend.", routed)
	p.LabeledCounter("psl_router_backend_failures_total", "Transport failures talking to the backend.", failures)
	promRuntime(p, st.Runtime)
}

const promContentType = "text/plain; version=0.0.4; charset=utf-8"

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", promContentType)
	writeMetrics(obs.NewProm(w), s.Stats())
}

// handleTraces serves the bounded ring of recent traces, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.traces.Snapshot())
}
