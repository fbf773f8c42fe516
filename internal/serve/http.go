// The HTTP surface of the service, served by cmd/pslserved:
//
//	POST /run          — execute a Request (JSON body), returns a Response
//	GET  /stats        — the Stats snapshot
//	GET  /metrics      — the same snapshot in Prometheus text format
//	GET  /debug/traces — recent request traces (bounded ring)
//	GET  /healthz      — 200 while serving, 503 once draining
//
// Error mapping: malformed requests are 400 (413 over the body cap);
// an "engine" ParseEngine does not list is one of them, "compiled"
// included. Admission rejections are 503 (queue full, draining) or 429
// (tenant over quota) with Retry-After (back-pressure the load
// generator honors), and every admitted request is 200 — including
// failed programs, whose Response carries ok=false and the error
// string. A failed program is a successful service interaction; what
// "error" begins with says which:
//
//   - "compile: …": the program could not be built — a parse or check
//     error, or for an auto request a failed plan: path-matrix analysis
//     of the input (the only analysis a request runs — nothing here
//     analyses the planned program) or a planned program that does not
//     compile. No plan in the reply; the failure is cached.
//   - "interp: bytecode engine: …": it compiled but did not lower to
//     bytecode. An auto reply still carries its plan, each approved
//     loop's vector_reason reading "kernel lowering unavailable: …";
//     only "engine": "walk" still runs it.
//   - "<line>:<col>: interp: …": the run failed — a fault or a budget.
//   - "serve: cancelled while …": the client or the deadline gave up
//     before the run began; "… while queued" is counted as abandoned,
//     not as an error, and nothing ran.
package serve

import (
	"context"
	"encoding/json"
	"net/http"

	"repro/internal/obs"
)

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/traces", s.handleTraces)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	// JSON escaping expands a source byte to at most 6 bytes (\uXXXX), so
	// 6× the source cap plus envelope slack admits every request Run
	// itself would accept while still hard-bounding memory.
	req, buf, ok := readRun(w, r, 6*int64(s.cfg.MaxSourceBytes)+64*1024)
	if !ok {
		return
	}
	releaseBody(buf)
	// A propagated trace ID (the router's, or any upstream's) forces
	// tracing and stitches this backend's spans into the caller's trace.
	req.TraceID = r.Header.Get(obs.TraceHeader)
	s.finishRun(r.Context(), w, req)
}

// finishRun executes an already-decoded Request and writes the
// Response under the documented error mapping. It is handleRun minus
// the decode: the Router's embedded fast path calls it directly, so a
// routed request decodes its body exactly once — same as a direct one.
func (s *Server) finishRun(ctx context.Context, w http.ResponseWriter, req Request) {
	resp, err := s.Run(ctx, req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, resp)
	case err == ErrBusy || err == ErrDraining:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case err == ErrTenantBusy:
		// Over-quota is the tenant's condition, not the service's: 429,
		// so clients can tell "slow down, you" from "the fleet is full".
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
