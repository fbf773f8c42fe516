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
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fleetBackend is one replica in a test fleet: a real Server behind a
// real HTTP listener.
type fleetBackend struct {
	s  *Server
	ts *httptest.Server
}

// kill takes the backend off the network abruptly: live connections
// are severed (proxied requests in flight see a transport error), then
// the process drains.
func (b *fleetBackend) kill() {
	b.ts.CloseClientConnections()
	b.ts.Close()
	b.s.Close()
}

func startFleet(t *testing.T, n int, cfg Config) ([]*fleetBackend, []string) {
	t.Helper()
	fleet := make([]*fleetBackend, n)
	urls := make([]string, n)
	for i := range fleet {
		s := New(cfg)
		ts := httptest.NewServer(s.Handler())
		fleet[i] = &fleetBackend{s: s, ts: ts}
		urls[i] = ts.URL
		t.Cleanup(func() { ts.Close(); s.Close() })
	}
	return fleet, urls
}

func newTestRouter(t *testing.T, cfg RouterConfig) *Router {
	t.Helper()
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func routerCorpus(t *testing.T) []Program {
	t.Helper()
	corpus, err := LoadCorpus(filepath.Join("..", "..", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// TestRouterNoDuplicateCompiles is the fleet's acceptance guard: with
// every corpus program requested repeatedly through the router — as
// serial, bytecode, and auto variants — the fleet-wide compile count
// equals the unique-variant count. Consistent hashing on the source
// content key means each variant lives on exactly one replica; no
// backend ever compiles a program another backend already owns.
func TestRouterNoDuplicateCompiles(t *testing.T) {
	fleet, urls := startFleet(t, 3, Config{})
	r := newTestRouter(t, RouterConfig{Backends: urls, HealthInterval: 10 * time.Second})
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	corpus := routerCorpus(t)
	for round := 0; round < 3; round++ {
		for _, p := range corpus {
			for _, req := range []Request{
				{Source: p.Source},
				{Source: p.Source, Engine: "bytecode"},
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

	// Serial+bytecode share one cache entry per program; auto adds one.
	wantVariants := 2 * len(corpus)
	var compiles, entries int64
	var populated int
	for i, b := range fleet {
		cs := b.s.Stats().Cache
		compiles += cs.Compiles
		entries += int64(cs.Entries)
		if cs.Entries > 0 {
			populated++
		}
		t.Logf("backend %d: %d compiles, %d entries, %d hits", i, cs.Compiles, cs.Entries, cs.Hits)
	}
	if compiles != int64(wantVariants) {
		t.Errorf("fleet compiled %d times for %d unique variants — duplicate compiles", compiles, wantVariants)
	}
	if entries != int64(wantVariants) {
		t.Errorf("fleet holds %d cache entries for %d unique variants — a variant is resident twice", entries, wantVariants)
	}
	// Each program must live exactly where the ring says it lives. (A
	// fixed populated-backend floor is flaky: httptest ports randomize
	// ring ownership per run, and a small corpus occasionally hashes
	// entirely onto one replica.)
	owners := map[string]bool{}
	for _, p := range corpus {
		owners[r.ring.owner(sourceKey(p.Source), nil)] = true
	}
	if populated != len(owners) {
		t.Errorf("%d backends hold cache entries, ring assigns the corpus to %d — programs ran off their shard",
			populated, len(owners))
	}

	// The router's aggregated /stats reports the same fleet-wide view a
	// single backend would, so loadgen's hit-rate math works unchanged.
	agg, err := fetchStats(context.Background(), ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Cache.Compiles != compiles {
		t.Errorf("router /stats aggregates %d compiles, backends report %d", agg.Cache.Compiles, compiles)
	}
	if agg.Cache.Hits == 0 {
		t.Errorf("router /stats aggregated no cache hits across %d hot requests", 3*3*len(corpus))
	}
}

// TestRouterVsDirectDifferential: for the full corpus, serial and auto
// responses through the router are byte-identical to a single-process
// server — the fleet changes where programs run, never what they
// compute.
func TestRouterVsDirectDifferential(t *testing.T) {
	_, urls := startFleet(t, 3, Config{})
	r := newTestRouter(t, RouterConfig{Backends: urls, HealthInterval: 10 * time.Second})
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	direct := newTestServer(t, Config{})

	assertFleetMatchesDirect(t, ts, direct, routerCorpus(t))
}

func assertFleetMatchesDirect(t *testing.T, ts *httptest.Server, direct *Server, corpus []Program) {
	t.Helper()
	for _, p := range corpus {
		for _, req := range []Request{
			{Source: p.Source},
			{Source: p.Source, Auto: true, PEs: 2, Width: 8},
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

// TestRouterFaultInjection kills one of three backends mid-load and
// asserts the fleet contract: the router rehashes the dead replica's
// keys onto survivors (bounded rehash — the ring is fixed, only its
// arcs move), the client-visible error rate stays within budget
// (transport failures are retried on the next owner), and after the
// dust settles the full corpus still answers byte-identically to a
// single-process server.
func TestRouterFaultInjection(t *testing.T) {
	fleet, urls := startFleet(t, 3, Config{})
	// The health interval outlasts the load phase, so the kill is first
	// seen by a request, never by a probe that would mark the victim
	// down before any request could be re-routed off it.
	r := newTestRouter(t, RouterConfig{Backends: urls, HealthInterval: 10 * time.Second})
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	corpus := routerCorpus(t)

	// Warm every replica so the kill hits a working fleet.
	for _, p := range corpus {
		if resp, status, _, err := postRun(context.Background(), ts.Client(), ts.URL, Request{Source: p.Source}); err != nil || status != 200 || !resp.OK {
			t.Fatalf("warm %s: %v %d %+v", p.Name, err, status, resp)
		}
	}

	const workers = 8
	var requests, failures atomic.Int64
	lctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; lctx.Err() == nil; i++ {
				p := corpus[(w+i)%len(corpus)]
				resp, status, _, err := postRun(lctx, ts.Client(), ts.URL, Request{Source: p.Source})
				if lctx.Err() != nil && err != nil {
					return // cut off by the phase deadline, not a service error
				}
				requests.Add(1)
				if err != nil || status != http.StatusOK || !resp.OK {
					failures.Add(1)
				}
			}
		}(w)
	}
	// Kill the backend that owns corpus[0]: the workers request it
	// continuously, so the kill is guaranteed to be observed on the
	// request path. (A fixed victim index is flaky — httptest ports
	// randomize ring ownership per run, and a victim owning no corpus
	// keys makes its death invisible to the load.)
	victim := 0
	ownerURL := r.ring.owner(sourceKey(corpus[0].Source), nil)
	for i, u := range urls {
		if strings.TrimRight(u, "/") == ownerURL {
			victim = i
		}
	}
	time.Sleep(200 * time.Millisecond)
	fleet[victim].kill()
	wg.Wait()

	req := requests.Load()
	fail := failures.Load()
	if req == 0 {
		t.Fatal("load phase made no requests")
	}
	if budget := req / 50; fail > budget { // 2% error budget
		t.Errorf("%d of %d requests failed across the kill (budget %d)", fail, req, budget)
	}

	// The request that found the corpse marked it down, and the dead
	// replica's keys were retried onto survivors.
	if r.retries.Load() == 0 {
		t.Errorf("no re-routes recorded — the kill was never observed on the request path")
	}
	if r.backends[strings.TrimRight(urls[victim], "/")].healthy.Load() {
		t.Errorf("victim backend still marked healthy after %d re-routes", r.retries.Load())
	}
	st := r.Stats(context.Background())
	healthy := 0
	for _, b := range st.Backends {
		if b.Healthy {
			healthy++
		}
	}
	if healthy != 2 {
		t.Errorf("%d healthy backends after the kill, want 2 (%+v)", healthy, st.Backends)
	}

	// Post-recovery differential: every corpus program, serial and
	// auto, still matches single-process serve byte for byte.
	direct := newTestServer(t, Config{})
	assertFleetMatchesDirect(t, ts, direct, corpus)
	t.Logf("fault run: %d requests, %d failures, %d re-routes", req, fail, r.retries.Load())
}

// TestRouterEmbedded covers the in-process fleet: same sharding
// guarantees as the networked topology — byte-identical responses,
// no duplicate compiles, aggregated stats — through the decode-once
// fast path instead of a proxied hop.
func TestRouterEmbedded(t *testing.T) {
	replicas := make([]*Server, 3)
	for i := range replicas {
		replicas[i] = New(Config{})
		t.Cleanup(replicas[i].Close)
	}
	r := newTestRouter(t, RouterConfig{Embedded: replicas, HealthInterval: 10 * time.Second})
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	corpus := routerCorpus(t)

	direct := newTestServer(t, Config{})
	assertFleetMatchesDirect(t, ts, direct, corpus)

	// Two more hot rounds, then the compile audit.
	for round := 0; round < 2; round++ {
		for _, p := range corpus {
			resp, status, _, err := postRun(context.Background(), ts.Client(), ts.URL, Request{Source: p.Source})
			if err != nil || status != http.StatusOK || !resp.Cached {
				t.Fatalf("%s: %v %d cached=%v", p.Name, err, status, resp.Cached)
			}
		}
	}
	wantVariants := 2 * len(corpus) // serial + auto entry per program (differential ran both)
	var compiles int64
	for _, s := range replicas {
		compiles += s.Stats().Cache.Compiles
	}
	if compiles != int64(wantVariants) {
		t.Errorf("embedded fleet compiled %d times for %d unique variants", compiles, wantVariants)
	}
	agg, err := fetchStats(context.Background(), ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Cache.Compiles != compiles {
		t.Errorf("embedded /stats aggregates %d compiles, replicas report %d", agg.Cache.Compiles, compiles)
	}

	if _, err := NewRouter(RouterConfig{Embedded: replicas, Backends: []string{"http://x"}}); err == nil {
		t.Errorf("router accepted Embedded and Backends together")
	}
}

// TestRouterCloseLeavesNoGoroutines: the health loop is the one
// goroutine a Router starts, and Close takes it — and the idle backend
// connections the proxy path opened — back down, in both deployments.
// Requests go straight into the handler, so no front listener's
// goroutines blur the count.
func TestRouterCloseLeavesNoGoroutines(t *testing.T) {
	_, urls := startFleet(t, 2, Config{})
	for name, cfg := range map[string]RouterConfig{
		"embedded": {Embedded: []*Server{newTestServer(t, Config{}), newTestServer(t, Config{})}},
		"network":  {Backends: urls},
	} {
		cfg.HealthInterval = 5 * time.Millisecond
		base := runtime.NumGoroutine()
		r, err := NewRouter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := r.Handler()
		for _, p := range routerCorpus(t) {
			body, _ := json.Marshal(Request{Source: p.Source, Auto: true, PEs: 2})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %s answered %d %s", name, p.Name, rec.Code, rec.Body)
			}
		}
		r.Close()
		waitFor(t, name+" router's goroutines gone", func() bool { return runtime.NumGoroutine() <= base })
	}
}

// idleSpy records whether its client was told to drop idle connections.
type idleSpy struct {
	http.RoundTripper
	closed atomic.Bool
}

func (s *idleSpy) CloseIdleConnections() { s.closed.Store(true) }

// TestRouterCloseLeavesCallersClient: a RouterConfig.Client may be
// shared with the rest of the process, so Close drops idle connections
// only on the client NewRouter built itself.
func TestRouterCloseLeavesCallersClient(t *testing.T) {
	_, urls := startFleet(t, 1, Config{})
	spy := &idleSpy{RoundTripper: http.DefaultTransport}
	r := newTestRouter(t, RouterConfig{Backends: urls, HealthInterval: 10 * time.Second,
		Client: &http.Client{Transport: spy}})
	r.Close()
	if spy.closed.Load() {
		t.Errorf("Close dropped the idle connections of a client the router does not own")
	}
}

// TestRouterValidation: malformed bodies and empty sources are 400 at
// the router — they never reach a backend.
func TestRouterValidation(t *testing.T) {
	fleet, urls := startFleet(t, 1, Config{})
	r := newTestRouter(t, RouterConfig{Backends: urls, HealthInterval: 10 * time.Second})
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
	if st := fleet[0].s.Stats(); st.Requests != 0 {
		t.Errorf("malformed requests reached the backend: %d", st.Requests)
	}
	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Errorf("router with no backends built")
	}
	if _, err := NewRouter(RouterConfig{Backends: []string{"http://x", "http://x"}}); err == nil {
		t.Errorf("router with duplicate backends built")
	}
}
