package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetryAfterDelay(t *testing.T) {
	h := func(v string) http.Header {
		hdr := http.Header{}
		if v != "" {
			hdr.Set("Retry-After", v)
		}
		return hdr
	}
	fallback := 2 * time.Millisecond
	cases := []struct {
		value string
		want  time.Duration
	}{
		{"1", time.Second},
		{"0", 0},
		{"", fallback},
		{"soon", fallback},
		{"-3", fallback},
		{"9999", 5 * time.Second}, // capped
	}
	for _, c := range cases {
		if got := retryAfterDelay(h(c.value), fallback); got != c.want {
			t.Errorf("retryAfterDelay(%q) = %v, want %v", c.value, got, c.want)
		}
	}
}

// TestLoadgenHonorsRetryAfter pins the back-pressure contract from the
// client side: a service answering 503 with Retry-After: 1 sees each
// closed-loop worker back off for the advertised second instead of
// hammering — at most one rejected attempt per worker fits in a
// sub-second hot phase.
func TestLoadgenHonorsRetryAfter(t *testing.T) {
	var runs atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Stats{})
	})
	mux.HandleFunc("/run", func(w http.ResponseWriter, r *http.Request) {
		// The cold phase's single first-touch succeeds; every hot-phase
		// attempt is told the service is full, try again in a second.
		if runs.Add(1) == 1 {
			writeJSON(w, http.StatusOK, Response{OK: true, Result: "42"})
			return
		}
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: ErrBusy.Error()})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	const workers = 4
	res, err := RunLoad(context.Background(), LoadConfig{
		URL:         ts.URL,
		Corpus:      []Program{{Name: "add.psl", Source: addSrc}},
		Concurrency: workers,
		Duration:    400 * time.Millisecond,
		Seed:        1,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 0 || res.Errors != 0 {
		t.Errorf("only rejections were on offer, got %d requests / %d errors", res.Requests, res.Errors)
	}
	if res.Rejected == 0 {
		t.Fatalf("no rejected attempts recorded — the 503 path never ran")
	}
	// One back-off per worker spans the whole phase; without honoring
	// Retry-After the old 2ms loop would record hundreds of attempts.
	if res.Rejected > workers {
		t.Errorf("%d rejected attempts from %d workers in 400ms — Retry-After not honored", res.Rejected, workers)
	}
}

// TestLoadResultJSONShape guards the BENCH_serve.json row schema: a row
// measures one server, so it names no backend count, and the generator
// sends no "engine", so it has no engine mix.
func TestLoadResultJSONShape(t *testing.T) {
	row, err := json.Marshal(LoadResult{Concurrency: 1, AutoRate: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"concurrency", "auto_rate", "rps", "hot_hit_rate"} {
		if !jsonHasField(t, row, key) {
			t.Errorf("row lost its %q field: %s", key, row)
		}
	}
	for _, key := range []string{"backends", "bytecode_rate", "bytecode_requests"} {
		if jsonHasField(t, row, key) {
			t.Errorf("row still carries %q: %s", key, row)
		}
	}
}

func jsonHasField(t *testing.T, data []byte, field string) bool {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	_, ok := m[field]
	return ok
}
