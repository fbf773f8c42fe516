package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, as the benchmark saw it from
// outside: the spans live in the benchmark, around its calls, not in
// the program under test.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = a root span (one per op)
	Op     int    `json:"op"`     // spans of one op share this
	Name   string `json:"name"`
	// StartUS/EndUS are microseconds since the recorder was made.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	// Standalone marks a layer call made on its own, beside the op that
	// also runs it internally (analysis, effects and depend inside
	// transform.plan; compile and lower inside interp.codegen). Its
	// time is not part of its parent's: never sum it with its siblings.
	Standalone bool `json:"standalone,omitempty"`
	// Counts are read at the same boundary as the clock.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing: the untraced pass calls the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// op opens a root span and returns its id, which is also its op id.
func (r *recorder) op(name string) int {
	if r == nil {
		return 0
	}
	return r.start(0, name)
}

// start opens a child of parent (0 opens a root).
func (r *recorder) start(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := float64(time.Since(r.t0).Nanoseconds()) / 1e3
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	op := id
	if parent > 0 {
		op = r.spans[parent-1].Op
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartUS: now})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := float64(time.Since(r.t0).Nanoseconds()) / 1e3
	r.mu.Lock()
	r.spans[id-1].EndUS = now
	r.mu.Unlock()
}

// count attaches a count to an open or closed span.
func (r *recorder) count(id int, name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	sp := &r.spans[id-1]
	if sp.Counts == nil {
		sp.Counts = map[string]float64{}
	}
	sp.Counts[name] = v
	r.mu.Unlock()
}

// child records an already-measured interval under parent: the server's
// own spans of a profiled request arrive this way, placed at the offset
// the server reported.
func (r *recorder) child(parent int, name string, startUS, durUS float64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: p.Op, Name: name,
		StartUS: p.StartUS + startUS, EndUS: p.StartUS + startUS + durUS})
	return id
}

func (r *recorder) standalone(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Standalone = true
	r.mu.Unlock()
}

// traceFile is what a traced run writes: the environment it ran in,
// every span, and per span name the summed self time (duration minus
// the part its non-stand-alone children cover).
type traceFile struct {
	Workload string             `json:"workload"`
	Env      environment        `json:"env"`
	SelfUS   map[string]float64 `json:"self_us_by_name"`
	CountBy  map[string]int     `json:"spans_by_name"`
	Spans    []span             `json:"spans"`
}

func (r *recorder) write(dir, workload string, env environment) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]float64, len(r.spans)+1)
	for _, sp := range r.spans {
		if sp.Parent > 0 && !sp.Standalone {
			covered[sp.Parent] += sp.EndUS - sp.StartUS
		}
	}
	tf := traceFile{Workload: workload, Env: env, Spans: r.spans,
		SelfUS: map[string]float64{}, CountBy: map[string]int{}}
	for _, sp := range r.spans {
		tf.SelfUS[sp.Name] += sp.EndUS - sp.StartUS - covered[sp.ID]
		tf.CountBy[sp.Name]++
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
