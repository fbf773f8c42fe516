package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

// newTestRouter builds a Router over n fresh replicas. Cleanup closes
// the router before the replicas.
func newTestRouter(t *testing.T, n int) (*Router, []*Server) {
	t.Helper()
	replicas := make([]*Server, n)
	for i := range replicas {
		replicas[i] = newTestServer(t, Config{})
	}
	r, err := NewRouter(RouterConfig{Embedded: replicas})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, replicas
}

func routerCorpus(t *testing.T) []Program {
	t.Helper()
	corpus, err := LoadCorpus(filepath.Join("..", "..", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// TestRouterNoDuplicateCompiles: with every corpus program requested
// repeatedly through the router — as serial, parallel, and auto
// requests — the compile count summed over the replicas equals the
// unique-variant count, and each program's entries sit on its owner
// alone. Hashing on the source alone puts every variant of a program
// on one replica; no replica compiles a program another one owns.
func TestRouterNoDuplicateCompiles(t *testing.T) {
	r, replicas := newTestRouter(t, 3)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	corpus := routerCorpus(t)
	for round := 0; round < 3; round++ {
		for _, p := range corpus {
			for _, req := range []Request{
				{Source: p.Source},
				{Source: p.Source, Parallel: true, PEs: 2},
				{Source: p.Source, Auto: true, PEs: 2},
			} {
				resp, status, _, err := postRun(context.Background(), ts.Client(), ts.URL, req)
				if err != nil || status != http.StatusOK || !resp.OK {
					t.Fatalf("%s round %d: %v %d %+v", p.Name, round, err, status, resp)
				}
				if round > 0 && !resp.Cached {
					t.Errorf("%s round %d: repeat request missed its replica's cache", p.Name, round)
				}
			}
		}
	}

	// Serial and parallel share one cache entry per program; auto adds one.
	wantVariants := 2 * len(corpus)
	wantEntries := map[*Server]int{}
	for _, p := range corpus {
		wantEntries[r.owner(p.Source)] += 2
	}
	var compiles int64
	for i, s := range replicas {
		cs := s.Stats().Cache
		compiles += cs.Compiles
		if cs.Entries != wantEntries[s] {
			t.Errorf("replica %d holds %d cache entries, owns %d variants — programs ran off their owner", i, cs.Entries, wantEntries[s])
		}
		t.Logf("replica %d: %d compiles, %d entries, %d hits", i, cs.Compiles, cs.Entries, cs.Hits)
	}
	if compiles != int64(wantVariants) {
		t.Errorf("replicas compiled %d times for %d unique variants — duplicate compiles", compiles, wantVariants)
	}
}

// TestRouterVsDirectDifferential: for the full corpus, serial and auto
// responses through the router are identical to a single server's —
// the router changes where programs run, never what they compute.
func TestRouterVsDirectDifferential(t *testing.T) {
	r, _ := newTestRouter(t, 3)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	direct := newTestServer(t, Config{})

	for _, p := range routerCorpus(t) {
		for _, req := range []Request{
			{Source: p.Source},
			{Source: p.Source, Auto: true, PEs: 2},
		} {
			want := mustRun(t, direct, req)
			got, status, _, err := postRun(context.Background(), ts.Client(), ts.URL, req)
			if err != nil || status != http.StatusOK {
				t.Fatalf("%s (auto=%v): %v %d", p.Name, req.Auto, err, status)
			}
			if got.OK != want.OK || got.Result != want.Result || got.Kind != want.Kind || got.Output != want.Output {
				t.Errorf("%s (auto=%v): router diverged from direct:\n got %+v\nwant %+v",
					p.Name, req.Auto, got, want)
			}
		}
	}
}

// TestRouterEmbedded: the router's /stats reports the cache counters a
// single server would — the replicas' sum — and an X-PSL-Trace header
// reaches the owner, which traces the request under the client's ID.
func TestRouterEmbedded(t *testing.T) {
	r, replicas := newTestRouter(t, 3)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	corpus := routerCorpus(t)
	for round := 0; round < 2; round++ {
		for _, p := range corpus {
			if resp, status, _, err := postRun(context.Background(), ts.Client(), ts.URL, Request{Source: p.Source}); err != nil || status != http.StatusOK || !resp.OK {
				t.Fatalf("%s: %v %d %+v", p.Name, err, status, resp)
			}
		}
	}

	agg, err := fetchStats(context.Background(), ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	var sum CacheStats
	for _, s := range replicas {
		cs := s.Stats().Cache
		sum.Hits += cs.Hits
		sum.Misses += cs.Misses
		sum.Evictions += cs.Evictions
		sum.Compiles += cs.Compiles
		sum.Entries += cs.Entries
		sum.Shards += cs.Shards
		sum.Capacity += cs.Capacity
	}
	if agg.Cache != sum || st.Cache != sum {
		t.Errorf("router /stats cache %+v (Stats %+v), replicas sum to %+v", agg.Cache, st.Cache, sum)
	}
	if want := int64(2 * len(corpus)); st.Requests != want || sum.Hits != int64(len(corpus)) {
		t.Errorf("router counted %d requests and %d hits, want %d and %d", st.Requests, sum.Hits, want, len(corpus))
	}

	const id = "0123456789abcdef"
	hreq := httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(`{"source":`+jsonString(addSrc)+`}`))
	hreq.Header.Set(obs.TraceHeader, id)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, hreq)
	if rec.Code != http.StatusOK {
		t.Fatalf("traced request: %d %s", rec.Code, rec.Body)
	}
	views := r.owner(addSrc).traces.Snapshot()
	if len(views) != 1 || views[0].ID != id {
		t.Errorf("owner traced %+v, want one trace with ID %s", views, id)
	}
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestRouterCloseLeavesNoGoroutines: a Router starts no goroutine, so
// building it, routing the corpus through it and closing it leaves the
// goroutine count where it was; once closed it answers /run 503.
// Requests go straight into the handler, so no front listener's
// goroutines blur the count.
func TestRouterCloseLeavesNoGoroutines(t *testing.T) {
	replicas := []*Server{newTestServer(t, Config{}), newTestServer(t, Config{})}
	base := runtime.NumGoroutine()
	r, err := NewRouter(RouterConfig{Embedded: replicas})
	if err != nil {
		t.Fatal(err)
	}
	h := r.Handler()
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
		return rec
	}
	for _, p := range routerCorpus(t) {
		body, _ := json.Marshal(Request{Source: p.Source, Auto: true, PEs: 2})
		if rec := post(body); rec.Code != http.StatusOK {
			t.Fatalf("%s answered %d %s", p.Name, rec.Code, rec.Body)
		}
	}
	r.Close()
	waitFor(t, "router's goroutines gone", func() bool { return runtime.NumGoroutine() <= base })
	body, _ := json.Marshal(Request{Source: addSrc})
	if rec := post(body); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("closed router answered %d %s, want 503", rec.Code, rec.Body)
	}
}

// TestRouterValidation: malformed bodies and empty sources are 400 at
// the router — they never reach a replica.
func TestRouterValidation(t *testing.T) {
	r, replicas := newTestRouter(t, 2)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	for _, body := range []string{"{", `{"source":""}`, `{"fn":"main"}`} {
		resp, err := ts.Client().Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	for i, s := range replicas {
		if st := s.Stats(); st.Requests != 0 {
			t.Errorf("malformed requests reached replica %d: %d", i, st.Requests)
		}
	}
	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Errorf("router with no replicas built")
	}
}
