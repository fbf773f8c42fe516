// The embedded router: N in-process Servers behind one HTTP handler.
// A request runs on the replica its program source hashes to, so every
// variant of one program — serial, auto-planned at any width, either
// engine — lives in exactly one replica's cache and is compiled once
// across the replicas (TestRouterNoDuplicateCompiles pins it). Its one
// caller outside this package's tests is the benchmark's
// serve.router_us probe.
//
// A routed request runs where it arrives: on the net/http goroutine
// that read it, which decodes the body once (readRun, the decoder a
// Server's own /run uses) and hands the Request to the owner's
// finishRun. The replicas own their caches and admission gates; the
// router holds no program state, no queue and no goroutine, so Close
// only stops admission.
package serve

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// RouterConfig names a Router's replicas.
type RouterConfig struct {
	// Embedded are the replicas; Embedded[i] is replica i. They remain
	// owned by the caller — Close them after the router.
	Embedded []*Server
}

// Router fronts a fixed set of in-process replicas. Create with
// NewRouter, expose over HTTP with Handler, retire with Close.
type Router struct {
	replicas []*Server
	start    time.Time
	draining atomic.Bool
	requests atomic.Int64 // /run requests handed to a replica
}

// NewRouter builds a Router over cfg.Embedded.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Embedded) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one replica")
	}
	return &Router{replicas: cfg.Embedded, start: time.Now()}, nil
}

// Close stops admission: later /run requests are answered 503.
// Requests already inside the handler finish on their own goroutines
// (http.Server.Shutdown waits for those; a replica's Close does too).
func (r *Router) Close() { r.draining.Store(true) }

// owner is the replica every variant of source runs on: the source's
// serial cache key, modulo the replica count. The set of replicas never
// changes, so plain hashing places each program once and for good.
func (r *Router) owner(source string) *Server {
	key := serialKey(source)
	return r.replicas[binary.BigEndian.Uint64(key[:8])%uint64(len(r.replicas))]
}

// Handler returns the router's HTTP mux:
//
//	POST /run     — run a Request on its owner, reply as the owner would
//	GET  /stats   — RouterStats (cache counters summed over the replicas)
//	GET  /metrics — the same snapshot in Prometheus text format
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", r.handleRun)
	mux.HandleFunc("/stats", r.handleStats)
	mux.HandleFunc("/metrics", r.handleMetrics)
	return mux
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
	run, ok := readRun(w, req, bodyLimit(defaultMaxSourceBytes))
	if !ok {
		return
	}
	// A replica would answer an empty source 400 too, but only after
	// counting it; the router keeps malformed requests off the replicas.
	if run.Source == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty source"})
		return
	}
	r.requests.Add(1)
	run.TraceID = req.Header.Get(obs.TraceHeader)
	r.owner(run.Source).finishRun(req.Context(), w, run)
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.Stats())
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", promContentType)
	writeRouterMetrics(obs.NewProm(w), r.Stats())
}

// RouterStats is the snapshot returned by GET /stats. Cache sums the
// replicas' counters, in the shape a single pslserved reports, so
// cmd/loadgen computes hit rates against a router exactly as against
// one server.
type RouterStats struct {
	Requests int64        `json:"requests"`
	Cache    CacheStats   `json:"cache"`
	Runtime  RuntimeStats `json:"runtime"`
}

// Stats snapshots the router and its replicas' caches.
func (r *Router) Stats() RouterStats {
	st := RouterStats{Requests: r.requests.Load(), Runtime: runtimeStats(r.start)}
	for _, s := range r.replicas {
		cs := s.cache.stats()
		st.Cache.Hits += cs.Hits
		st.Cache.Misses += cs.Misses
		st.Cache.Evictions += cs.Evictions
		st.Cache.Compiles += cs.Compiles
		st.Cache.Entries += cs.Entries
		st.Cache.Shards += cs.Shards
		st.Cache.Capacity += cs.Capacity
	}
	return st
}
