// The fleet router: the horizontal scale-out front of the execution
// service, served by cmd/pslrouter. One process is the throughput
// ceiling (BENCH_serve.json records rps *falling* from concurrency 8
// to 64); the router turns N pslserved processes into one service:
//
//   - cache-affinity sharding: requests are routed by the content hash
//     of their program source over a consistent-hash ring (ring.go),
//     so every variant of one program — serial, auto-planned at any
//     width, any engine — lives on exactly one replica's LRU and is
//     compiled exactly once fleet-wide (TestRouterNoDuplicateCompiles
//     pins it).
//   - health-checked failover: a background probe marks backends up or
//     down, a transport failure marks them down immediately, and a
//     routed request retries on the next ring owner — so killing a
//     replica mid-load costs a bounded rehash (only its keys move),
//     not an outage. When the replica returns, exactly those keys move
//     back to its still-warm cache.
//
// There is one way in, POST /run, and a routed request runs where it
// arrives: on the net/http goroutine that read it, which proxies it to
// the owning backend or — in the embedded fleet — calls that replica's
// Run directly. The router holds no program state and no queue of its
// own — backends own their caches and their admission gates — so its
// per-request work is one decode of the body (DecodeRequest, the
// decoder the backend runs), one ring lookup, and one hop; the only
// goroutine it starts is the health loop, and that is all Close waits
// for.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// RouterConfig sizes a Router. Zero values select the documented
// defaults.
type RouterConfig struct {
	// Backends are the pslserved base URLs the router shards across.
	Backends []string
	// Replicas is the virtual-node count per backend on the hash ring
	// (0 = 512).
	Replicas int
	// HealthInterval is the /healthz probe period (0 = 250ms); a probe
	// also times out after one interval.
	HealthInterval time.Duration
	// Retries is how many *additional* backends a request tries after a
	// transport failure before giving up (0 = 2, -1 = no failover: the
	// client sees the 503 and retries itself). Only transport failures
	// re-route: an executed-but-failed program or a 503 from a live
	// backend is relayed as-is, preserving cache affinity.
	Retries int
	// MaxBodyBytes bounds the request body (0 = 6 MiB + 64 KiB, the
	// same envelope pslserved itself admits).
	MaxBodyBytes int64
	// Client overrides the backend HTTP client, which stays the caller's
	// (nil = a pooled default, whose idle connections Close drops).
	Client *http.Client
	// TraceRate samples routed requests for tracing, like
	// Config.TraceRate does on a backend: a sampled request gets a
	// fresh trace ID that rides the X-PSL-Trace header to the backend
	// (and, unchanged, to every failover retry), so the router's
	// per-attempt spans and the backend's execution spans share one
	// logical trace. 0 disables sampling; requests arriving with the
	// header or "profile": true are always traced.
	TraceRate float64
	// TraceBuffer bounds the router's /debug/traces ring (0 = 64).
	TraceBuffer int
	// Embedded runs the fleet in-process instead of over the network:
	// Embedded[i] becomes backend i ("embedded-i" on the ring), and a
	// routed request runs on its owner by a direct call, on the
	// goroutine it arrived on — same sharding, no second HTTP hop. This
	// is the single-machine deployment of the fleet (and how
	// BENCH_serve.json's fleet row is measured on one box): admission
	// gates, caches, and latency histograms are split N ways while the
	// request path stays one network hop, like the single-process
	// server it is compared against. The servers remain owned by the
	// caller — Close them after the router.
	// Mutually exclusive with Backends.
	Embedded []*Server
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Replicas <= 0 {
		c.Replicas = defaultRingReplicas
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 6*(1<<20) + 64*1024
	}
	if c.TraceBuffer <= 0 {
		c.TraceBuffer = 64
	}
	return c
}

// routerBackend is one replica's live state. healthy flips down on a
// probe failure or a transport error, up on the next successful probe;
// the ring itself never changes, so health transitions move exactly
// the affected keys (ring.go's minimal-disruption property).
type routerBackend struct {
	url      string
	healthy  atomic.Bool
	routed   atomic.Int64 // requests this backend answered (any status)
	failures atomic.Int64 // transport failures observed against it

	// local is the in-process server of an embedded fleet; nil for
	// network backends.
	local *Server
}

var errNoBackend = errors.New("serve: no healthy backend")

// Router fronts a fleet of pslserved backends. Create with NewRouter,
// expose over HTTP with Handler, retire with Close.
type Router struct {
	cfg      RouterConfig
	ring     *hashRing
	backends map[string]*routerBackend
	order    []string // config order, the ring-building and Stats order
	client   *http.Client
	start    time.Time
	sampler  *obs.Sampler
	traces   *obs.Ring

	draining atomic.Bool
	stop     context.CancelFunc // ends the health loop, mid-probe if need be
	wg       sync.WaitGroup     // the health loop

	requests   atomic.Int64 // /run proxies attempted
	retries    atomic.Int64 // re-routes after a transport failure
	unroutable atomic.Int64 // requests that found no healthy backend
}

// NewRouter builds and starts a Router: the ring is built over the
// configured backends (all optimistically healthy until the first
// probe says otherwise) and the health loop starts immediately.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Embedded) > 0 && len(cfg.Backends) > 0 {
		return nil, fmt.Errorf("serve: Embedded and Backends are mutually exclusive")
	}
	if len(cfg.Backends) == 0 && len(cfg.Embedded) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one backend")
	}
	urls := make([]string, 0, len(cfg.Backends)+len(cfg.Embedded))
	backends := make(map[string]*routerBackend, len(cfg.Backends)+len(cfg.Embedded))
	for _, u := range cfg.Backends {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("serve: empty backend URL")
		}
		if backends[u] != nil {
			return nil, fmt.Errorf("serve: duplicate backend %s", u)
		}
		b := &routerBackend{url: u}
		b.healthy.Store(true)
		backends[u] = b
		urls = append(urls, u)
	}
	for i, s := range cfg.Embedded {
		u := fmt.Sprintf("http://embedded-%d", i)
		b := &routerBackend{url: u, local: s}
		b.healthy.Store(true)
		backends[u] = b
		urls = append(urls, u)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
		}}
	}
	r := &Router{
		cfg:      cfg,
		ring:     newHashRing(urls, cfg.Replicas),
		backends: backends,
		order:    urls,
		client:   client,
		start:    time.Now(),
		sampler:  obs.NewSampler(cfg.TraceRate),
		traces:   obs.NewRing(cfg.TraceBuffer),
	}
	ctx, stop := context.WithCancel(context.Background())
	r.stop = stop
	r.wg.Add(1)
	go r.healthLoop(ctx)
	return r, nil
}

// Close stops admission and the health loop, returns when the loop has
// exited, and drops the idle connections of the client NewRouter built
// — the router owns nothing else. Requests already inside the handler
// finish on their own goroutines (http.Server.Shutdown waits for those;
// an embedded replica's Close does too).
func (r *Router) Close() {
	if r.draining.Swap(true) {
		return
	}
	r.stop()
	r.wg.Wait()
	if r.cfg.Client == nil {
		r.client.CloseIdleConnections()
	}
}

func (r *Router) healthLoop(ctx context.Context) {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for _, b := range r.backends {
			if b.local != nil {
				continue // in-process backends cannot vanish
			}
			probe, cancel := context.WithTimeout(ctx, r.cfg.HealthInterval)
			req, err := http.NewRequestWithContext(probe, http.MethodGet, b.url+"/healthz", nil)
			if err != nil {
				cancel()
				continue
			}
			resp, err := r.client.Do(req)
			up := false
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				up = resp.StatusCode == http.StatusOK
			}
			cancel()
			b.healthy.Store(up)
		}
	}
}

// pick resolves the ring owner of key among healthy, non-excluded
// backends.
func (r *Router) pick(key uint64, exclude map[string]bool) *routerBackend {
	name := r.ring.owner(key, func(u string) bool {
		return !exclude[u] && r.backends[u].healthy.Load()
	})
	if name == "" {
		return nil
	}
	return r.backends[name]
}

// post sends body to url and returns the response whole; a non-nil
// error is a transport failure (the backend never answered). A
// non-empty traceID rides the X-PSL-Trace header, telling the backend
// to trace and under which ID.
func (r *Router) post(ctx context.Context, url string, body []byte, traceID string) (int, []byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(string(body)))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, respBody, resp.Header, nil
}

// proxyRun routes one /run body to the ring owner of its source key,
// failing over to the next owner on transport failure (marking the
// dead backend down as it goes). Responses from a live backend —
// including program errors and 503 back-pressure — are relayed, not
// retried: re-running them elsewhere would shatter cache affinity.
//
// A non-nil tr records one "attempt" span per backend tried — the
// failed ones carry the transport error — and every attempt forwards
// the same trace ID, so the backend spans of a failed-over request
// stitch into one trace across replicas.
func (r *Router) proxyRun(ctx context.Context, source string, body []byte, tr *obs.Trace) (int, []byte, http.Header, error) {
	key := sourceKey(source)
	exclude := map[string]bool{}
	var lastErr error
	for attempt := 0; attempt <= r.cfg.Retries; attempt++ {
		b := r.pick(key, exclude)
		if b == nil {
			r.unroutable.Add(1)
			if lastErr != nil {
				return 0, nil, nil, fmt.Errorf("%w (last transport error: %v)", errNoBackend, lastErr)
			}
			return 0, nil, nil, errNoBackend
		}
		sp := tr.Start("attempt")
		sp.SetAttr("backend", b.url)
		status, respBody, hdr, err := r.post(ctx, b.url+"/run", body, tr.ID())
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
			if ctx.Err() != nil {
				// The client gave up — not the backend's fault.
				return 0, nil, nil, err
			}
			b.healthy.Store(false)
			b.failures.Add(1)
			r.retries.Add(1)
			exclude[b.url] = true
			lastErr = err
			continue
		}
		sp.End()
		b.routed.Add(1)
		return status, respBody, hdr, nil
	}
	r.unroutable.Add(1)
	return 0, nil, nil, fmt.Errorf("%w after %d attempts (last transport error: %v)",
		errNoBackend, r.cfg.Retries+1, lastErr)
}

// runEmbedded is the embedded fleet's fast path: pick the ring owner of
// the decoded Request's source and let that replica execute and write
// the response itself — a routed request costs one content hash and one
// ring lookup over a direct hit, with no second decode, hop, or
// response copy.
func (r *Router) runEmbedded(w http.ResponseWriter, hreq *http.Request, req Request) {
	r.requests.Add(1)
	// Trace propagation, in-process: the header (or the router's own
	// sampler) sets the Request's TraceID directly — the owning
	// replica traces under it, no second decode or HTTP hop.
	req.TraceID = hreq.Header.Get(obs.TraceHeader)
	if req.TraceID == "" && !req.Profile && r.sampler.Sample() {
		req.TraceID = obs.NewID()
	}
	b := r.pick(sourceKey(req.Source), nil)
	if b == nil {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: errNoBackend.Error()})
		return
	}
	b.routed.Add(1)
	b.local.finishRun(hreq.Context(), w, req)
}

// Handler returns the router's HTTP mux:
//
//	POST /run          — route a Request to its owner, relay the Response
//	GET  /stats        — RouterStats (fleet-aggregated cache counters)
//	GET  /metrics      — the same snapshot in Prometheus text format
//	GET  /debug/traces — recent routed-request traces (bounded ring)
//	GET  /healthz      — 200 while routable, 503 when draining or dark
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", r.handleRun)
	mux.HandleFunc("/stats", r.handleStats)
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/debug/traces", r.handleTraces)
	mux.HandleFunc("/healthz", r.handleHealthz)
	return mux
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", promContentType)
	writeRouterMetrics(obs.NewProm(w), r.Stats(req.Context()))
}

func (r *Router) handleTraces(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.traces.Snapshot())
}

func (r *Router) handleRun(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	if r.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: ErrDraining.Error()})
		return
	}
	// One read and one decode, by the decoder the backend runs: the
	// router rejects exactly the bodies the backend would (an empty
	// source, which has no ring owner, by hand) and hashes for the ring
	// the source the backend hashes for its cache.
	run, buf, ok := readRun(w, req, r.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	if len(r.cfg.Embedded) > 0 {
		releaseBody(buf) // the Request owns its strings
		r.runEmbedded(w, req, run)
		return
	}
	defer releaseBody(buf) // after the last failover attempt has sent it
	if run.Source == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty source"})
		return
	}
	r.requests.Add(1)
	// Trace decision, mirroring the backend's: an incoming header
	// propagates, "profile": true and the sampler's share start fresh
	// traces. The same ID is forwarded to every failover attempt.
	var tr *obs.Trace
	if id := req.Header.Get(obs.TraceHeader); id != "" || run.Profile || r.sampler.Sample() {
		tr = obs.NewTrace(id)
	}
	status, respBody, hdr, err := r.proxyRun(req.Context(), run.Source, buf.Bytes(), tr)
	if tr != nil {
		tr.Finish()
		r.traces.Add(tr.View())
	}
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "router: " + err.Error()})
		return
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(respBody)
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.Stats(req.Context()))
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	for _, b := range r.backends {
		if b.healthy.Load() {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no healthy backend"})
}

// BackendStats is one replica's slice of RouterStats. Cache is the
// backend's own /stats cache section, fetched live; nil when the
// backend was unreachable at snapshot time.
type BackendStats struct {
	URL      string      `json:"url"`
	Healthy  bool        `json:"healthy"`
	Routed   int64       `json:"routed"`
	Failures int64       `json:"failures"`
	Cache    *CacheStats `json:"cache,omitempty"`
}

// RouterStats is the fleet-wide snapshot returned by GET /stats. The
// top-level Cache section sums the reachable backends' counters, in
// the same shape a single pslserved reports — so cmd/loadgen computes
// hit rates against a router exactly as against one backend.
type RouterStats struct {
	Requests   int64          `json:"requests"`
	Retries    int64          `json:"retries"`
	Unroutable int64          `json:"unroutable"`
	Cache      CacheStats     `json:"cache"`
	Backends   []BackendStats `json:"backends"`
	Runtime    RuntimeStats   `json:"runtime"`
}

// Stats snapshots the router and polls every backend's /stats (500ms
// cap) to aggregate the fleet-wide cache counters.
func (r *Router) Stats(ctx context.Context) RouterStats {
	st := RouterStats{
		Requests:   r.requests.Load(),
		Retries:    r.retries.Load(),
		Unroutable: r.unroutable.Load(),
		Runtime:    runtimeStats(r.start, 0),
	}
	ctx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
	defer cancel()
	// Deterministic order: ring-building order is the config order.
	for _, u := range r.order {
		b := r.backends[u]
		bs := BackendStats{
			URL:      b.url,
			Healthy:  b.healthy.Load(),
			Routed:   b.routed.Load(),
			Failures: b.failures.Load(),
		}
		if cs := r.fetchBackendCache(ctx, b); cs != nil {
			bs.Cache = cs
			st.Cache.Hits += cs.Hits
			st.Cache.Misses += cs.Misses
			st.Cache.Evictions += cs.Evictions
			st.Cache.Compiles += cs.Compiles
			st.Cache.Entries += cs.Entries
			st.Cache.Shards += cs.Shards
			st.Cache.Capacity += cs.Capacity
		}
		st.Backends = append(st.Backends, bs)
	}
	return st
}

func (r *Router) fetchBackendCache(ctx context.Context, b *routerBackend) *CacheStats {
	if b.local != nil {
		cs := b.local.Stats().Cache
		return &cs
	}
	url := b.url
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/stats", nil)
	if err != nil {
		return nil
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil
	}
	return &st.Cache
}
