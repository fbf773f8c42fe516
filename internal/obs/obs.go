// Package obs is the observability layer of the repository: request
// tracing, parallel-efficiency profiling, and metrics export. Every
// other layer produces the signal — serve records per-request stage
// spans, parexec records per-PE forall timings, the routers record
// per-attempt failover spans — and this package owns the shared
// vocabulary those layers speak:
//
//   - Trace / Span (trace.go in spirit, this file): a cheap
//     monotonic-clock span tree recorded per request. The whole API is
//     nil-safe — a nil *Trace or *Span swallows every call — so the
//     instrumented hot paths carry no "if tracing" branches beyond the
//     single decision to allocate a Trace. When sampling is off that
//     decision is a plain field compare: zero atomics, zero
//     allocations (internal/serve pins it with an alloc test).
//   - Sampler (sampler.go): the 1-in-N trace-rate decision.
//   - Ring (ring.go): a bounded buffer of recent trace snapshots,
//     served at GET /debug/traces.
//   - ForallProfiler (prof.go): per-forall-site parallel-efficiency
//     accounting — per-PE busy time, barrier wait, task counts, and
//     the derived efficiency/imbalance scores — keyed by the source
//     line the planner's Plan reports, so "the planner approved this
//     loop" and "here is its measured PE utilization" join on one key.
//   - Prom (prom.go): the Prometheus text exposition writer behind
//     GET /metrics on pslserved and pslrouter.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// TraceHeader is the HTTP header that propagates a trace ID from
// pslrouter to its backends (and from any client that wants to stitch
// a request into its own trace): a backend that receives it records
// its spans under the caller's ID, so the router's per-attempt spans
// and the owning backend's per-stage spans form one fleet-wide trace.
const TraceHeader = "X-PSL-Trace"

// NewID returns a fresh 16-hex-digit trace ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a
		// time-derived ID keeps tracing alive rather than panicking.
		now := time.Now().UnixNano()
		for i := range b {
			b[i] = byte(now >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// Trace is one request's span record: an ID, a monotonic start
// instant, and a tree of spans measured as offsets from that start.
// All methods are safe on a nil receiver (no-ops), safe for concurrent
// use, and cheap — the mutex is only ever contended when a request is
// actually being traced.
type Trace struct {
	id string
	t0 time.Time

	mu     sync.Mutex
	spans  []*Span
	wallUS int64 // set by Finish; 0 while the trace is open
}

// NewTrace starts a trace. id == "" generates one; a non-empty id is
// adopted verbatim (the propagated-from-the-router case).
func NewTrace(id string) *Trace {
	if id == "" {
		id = NewID()
	}
	return &Trace{id: id, t0: time.Now()}
}

// ID returns the trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start opens a root span. Returns nil (harmless) on a nil trace.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, Name: name, start: time.Now()}
	s.StartUS = s.start.Sub(t.t0).Microseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Finish stamps the trace's wall time and closes any span left open.
// Idempotent; later spans are still accepted (they would simply extend
// past the recorded wall — callers finish before snapshotting).
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if t.wallUS == 0 {
		t.wallUS = now.Sub(t.t0).Microseconds()
	}
	for _, s := range t.spans {
		s.finishOpen(now)
	}
	t.mu.Unlock()
}

// View snapshots the trace for serialization. Safe to call while spans
// are still being recorded (open spans report their duration so far).
func (t *Trace) View() TraceView {
	if t == nil {
		return TraceView{}
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	v := TraceView{
		ID:          t.id,
		StartUnixUS: t.t0.UnixMicro(),
		WallUS:      t.wallUS,
	}
	if v.WallUS == 0 {
		v.WallUS = now.Sub(t.t0).Microseconds()
	}
	v.Spans = make([]SpanView, len(t.spans))
	for i, s := range t.spans {
		v.Spans[i] = s.view(now)
	}
	return v
}

// Span is one timed stage of a trace. Exported fields are fixed at
// Start; duration and children are guarded by the owning trace's
// mutex.
type Span struct {
	tr *Trace

	Name    string
	StartUS int64

	start    time.Time
	durUS    int64 // -1 while open
	attrs    map[string]string
	children []*Span
}

// Start opens a child span. Nil-safe.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, Name: name, start: time.Now()}
	c.StartUS = c.start.Sub(s.tr.t0).Microseconds()
	s.tr.mu.Lock()
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// Record adds a closed child span for a stage the callee timed itself:
// it began at start and took d. Nil-safe.
func (s *Span) Record(name string, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	c := &Span{tr: s.tr, Name: name, start: start, durUS: d.Microseconds()}
	if c.durUS <= 0 {
		c.durUS = -1 // closed, sub-microsecond
	}
	c.StartUS = start.Sub(s.tr.t0).Microseconds()
	s.tr.mu.Lock()
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
}

// End closes the span. Nil-safe; idempotent (first End wins).
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.tr.mu.Lock()
	if s.durUS == 0 {
		if d := now.Sub(s.start).Microseconds(); d > 0 {
			s.durUS = d
		} else {
			s.durUS = -1 // closed, sub-microsecond
		}
	}
	s.tr.mu.Unlock()
}

// SetAttr attaches a key/value annotation. Nil-safe.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[k] = v
	s.tr.mu.Unlock()
}

// finishOpen closes the span (and its children) at now if still open.
// Caller holds the trace mutex.
func (s *Span) finishOpen(now time.Time) {
	if s.durUS == 0 {
		if d := now.Sub(s.start).Microseconds(); d > 0 {
			s.durUS = d
		} else {
			s.durUS = -1
		}
	}
	for _, c := range s.children {
		c.finishOpen(now)
	}
}

// view deep-copies the span subtree. Caller holds the trace mutex.
func (s *Span) view(now time.Time) SpanView {
	v := SpanView{Name: s.Name, StartUS: s.StartUS, DurUS: s.durUS}
	switch {
	case v.DurUS == 0: // still open: duration so far
		v.DurUS = now.Sub(s.start).Microseconds()
	case v.DurUS < 0: // closed, rounded to zero
		v.DurUS = 0
	}
	if len(s.attrs) > 0 {
		v.Attrs = make(map[string]string, len(s.attrs))
		for k, val := range s.attrs {
			v.Attrs[k] = val
		}
	}
	for _, c := range s.children {
		v.Children = append(v.Children, c.view(now))
	}
	return v
}

// TraceView is the wire form of a trace: what POST /run returns under
// "trace" for profiled requests and what GET /debug/traces lists.
type TraceView struct {
	ID          string     `json:"id"`
	StartUnixUS int64      `json:"start_unix_us"`
	WallUS      int64      `json:"wall_us"`
	Spans       []SpanView `json:"spans,omitempty"`
}

// SpanView is the wire form of one span.
type SpanView struct {
	Name     string            `json:"name"`
	StartUS  int64             `json:"start_us"`
	DurUS    int64             `json:"dur_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []SpanView        `json:"children,omitempty"`
}
