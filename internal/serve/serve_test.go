package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/transform"
)

const addSrc = `
function int add(int a, int b) {
  return a + b;
}

function int main() {
  print("sum", add(2, 3));
  return add(40, 2);
}
`

const spinSrc = `
function int spin(int n) {
  var int i = 0;
  while i < n {
    i = i + 1;
  }
  return i;
}
`

const allocSrc = `
type Cell [X]
{ int v;
  Cell *next is uniquely forward along X;
};

function int boom(int n) {
  var int i = 0;
  while i < n {
    var Cell *t = new Cell;
    t->v = i;
    i = i + 1;
  }
  return i;
}
`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func mustRun(t *testing.T, s *Server, req Request) Response {
	t.Helper()
	resp, err := s.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return resp
}

func TestRunBasic(t *testing.T) {
	s := newTestServer(t, Config{})
	resp := mustRun(t, s, Request{Source: addSrc})
	if !resp.OK || resp.Result != "42" || resp.Kind != "int" {
		t.Fatalf("resp = %+v, want ok result 42", resp)
	}
	if resp.Output != "sum 5\n" {
		t.Errorf("output %q", resp.Output)
	}
	if resp.Cached {
		t.Errorf("first request reported cached")
	}
	resp = mustRun(t, s, Request{Source: addSrc, Fn: "add", Args: []json.Number{"20", "22"}})
	if !resp.OK || resp.Result != "42" {
		t.Fatalf("add(20,22) = %+v", resp)
	}
	if !resp.Cached {
		t.Errorf("second request for the same source should hit the cache")
	}
	// Walk engine answers identically (the served differential check).
	w := mustRun(t, s, Request{Source: addSrc, Engine: "walk"})
	if w.Result != "42" || w.Output != "sum 5\n" {
		t.Errorf("walk engine diverged: %+v", w)
	}
	// So does a request that names the VM — and it hits the same cache
	// entry (entries are engine-independent).
	bc := mustRun(t, s, Request{Source: addSrc, Engine: "bytecode"})
	if bc.Result != "42" || bc.Output != "sum 5\n" {
		t.Errorf("bytecode engine diverged: %+v", bc)
	}
	if !bc.Cached {
		t.Errorf("bytecode request missed the engine-independent program cache")
	}
}

func TestRunValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []Request{
		{},                                   // empty source
		{Source: addSrc, Engine: "quantum"},  // unknown engine
		{Source: addSrc, Engine: "compiled"}, // the closure engine's name went with it
		{Source: addSrc, Parallel: true, Sched: "psychic"},
		{Source: addSrc, Args: []json.Number{json.Number("nope")}},
	}
	for i, req := range cases {
		_, err := s.Run(context.Background(), req)
		if _, ok := err.(*RequestError); !ok {
			t.Errorf("case %d: err = %v, want *RequestError", i, err)
		}
	}
	if st := s.Stats(); st.Invalid != int64(len(cases)) {
		t.Errorf("Invalid = %d, want %d", st.Invalid, len(cases))
	}
	// A program that fails to parse is an executed (error) response,
	// not a request error — and the failure is cached.
	resp := mustRun(t, s, Request{Source: "function int main( {"})
	if resp.OK || !strings.Contains(resp.Error, "compile:") {
		t.Errorf("parse failure resp = %+v", resp)
	}
	resp = mustRun(t, s, Request{Source: "function int main( {"})
	if !resp.Cached {
		t.Errorf("repeated broken program should hit the negative cache")
	}
}

// TestCacheHitMissEviction pins the cache accounting: distinct sources
// miss, repeats hit, and capacity overflow evicts the LRU entry so a
// later repeat misses again.
func TestCacheHitMissEviction(t *testing.T) {
	s := newTestServer(t, Config{CacheEntries: 2, CacheShards: 1})
	srcs := make([]string, 3)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("%s\n// variant %d\n", addSrc, i)
	}
	mustRun(t, s, Request{Source: srcs[0]}) // miss
	mustRun(t, s, Request{Source: srcs[0]}) // hit
	mustRun(t, s, Request{Source: srcs[1]}) // miss (cache full now)
	mustRun(t, s, Request{Source: srcs[2]}) // miss, evicts srcs[0]
	st := s.Stats().Cache
	if st.Hits != 1 || st.Misses != 3 || st.Evictions != 1 || st.Compiles != 3 {
		t.Fatalf("after fill: %+v", st)
	}
	resp := mustRun(t, s, Request{Source: srcs[0]}) // miss again: was evicted
	if resp.Cached {
		t.Errorf("evicted program reported cached")
	}
	st = s.Stats().Cache
	if st.Misses != 4 || st.Evictions != 2 || st.Entries != 2 {
		t.Fatalf("after re-touch: %+v", st)
	}
}

// TestSingleflight: N concurrent cold requests for one source compile
// once — one miss, N-1 hits that wait on the in-flight build.
func TestSingleflight(t *testing.T) {
	s := newTestServer(t, Config{Workers: 8, QueueDepth: 64})
	src := addSrc + "\n// singleflight variant\n"
	before := interp.CompileCount()
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Run(context.Background(), Request{Source: src})
			if err == nil && !resp.OK {
				err = fmt.Errorf("resp not ok: %s", resp.Error)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := s.Stats().Cache
	if st.Misses != 1 || st.Compiles != 1 || st.Hits != n-1 {
		t.Fatalf("singleflight accounting: %+v", st)
	}
	if d := interp.CompileCount() - before; d != 1 {
		t.Errorf("code built %d times, want exactly 1", d)
	}
}

// TestCorpusCachedVsFresh: across the full testdata corpus, a cache-hit
// run is byte-identical (result, kind, output) to the cold run and to a
// direct interpreter reference run.
func TestCorpusCachedVsFresh(t *testing.T) {
	corpus, err := LoadCorpus(filepath.Join("..", "..", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	for _, p := range corpus {
		cold := mustRun(t, s, Request{Source: p.Source})
		hot := mustRun(t, s, Request{Source: p.Source})
		if !cold.OK || !hot.OK {
			t.Fatalf("%s: cold/hot errors %q / %q", p.Name, cold.Error, hot.Error)
		}
		if cold.Cached || !hot.Cached {
			t.Errorf("%s: cached flags cold=%v hot=%v", p.Name, cold.Cached, hot.Cached)
		}
		if cold.Result != hot.Result || cold.Kind != hot.Kind || cold.Output != hot.Output {
			t.Errorf("%s: cached run diverged from fresh: %+v vs %+v", p.Name, cold, hot)
		}
		// Reference: a direct interpreter run outside the service.
		prog, err := lang.Parse(p.Source)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		v, _, err := interp.Run(prog, interp.Config{Output: &out}, "main")
		if err != nil {
			t.Fatalf("%s reference: %v", p.Name, err)
		}
		if hot.Result != v.String() || hot.Output != out.String() {
			t.Errorf("%s: served run diverged from direct run", p.Name)
		}
	}
}

// TestHotPathZeroCompileWork is the acceptance guard: once a program
// is resident, further requests do zero front-end work — no parses, no
// checks, no code builds — observable as flat compile counters at both
// the serve and interp layers, whichever engine name the request
// carries. "compiled" is a second name for the bytecode VM: its reply
// is the "bytecode" reply, byte for byte.
func TestHotPathZeroCompileWork(t *testing.T) {
	s := newTestServer(t, Config{})
	mustRun(t, s, Request{Source: addSrc}) // warm
	st0 := s.Stats().Cache
	c0 := interp.CompileCount()
	const hot = 50
	for i := 0; i < hot; i++ {
		resp := mustRun(t, s, Request{Source: addSrc})
		if !resp.OK || !resp.Cached {
			t.Fatalf("hot request %d: %+v", i, resp)
		}
	}
	reply := func(engine string) string {
		resp := mustRun(t, s, Request{Source: addSrc, Engine: engine})
		if !resp.OK || !resp.Cached {
			t.Fatalf("hot %s request: %+v", engine, resp)
		}
		resp.ElapsedUS = 0
		body, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if bc, def := reply("bytecode"), reply(""); def != bc {
		t.Errorf("engine-less reply\n%s\nengine bytecode\n%s", def, bc)
	}
	st := s.Stats().Cache
	if st.Compiles != st0.Compiles || st.Misses != st0.Misses {
		t.Errorf("hot requests compiled: %+v vs %+v", st, st0)
	}
	if st.Hits != st0.Hits+hot+2 {
		t.Errorf("hits %d, want %d", st.Hits, st0.Hits+hot+2)
	}
	if d := interp.CompileCount() - c0; d != 0 {
		t.Errorf("front end ran %d times on the hot path", d)
	}
}

// TestDefaultEngineOnTheWire: the server owns the engine. A POST /run
// body without "engine", with "kernel" and with "bytecode" all run the
// kernel engine; only "walk" selects something else (the name table
// itself is pinned by the root TestDefaultEngine). Results
// cannot tell engines apart, but a profiled auto run can: only the
// kernel engine reports the vectorized loop's forall site as a kernel
// site.
func TestDefaultEngineOnTheWire(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	kernelSite := func(engine string) bool {
		t.Helper()
		req := Request{Source: scalePar, Engine: engine, Auto: true, PEs: 2, Profile: true}
		if body, _ := json.Marshal(req); engine == "" && bytes.Contains(body, []byte("engine")) {
			t.Fatalf("request body %s carries an engine", body)
		}
		resp, status, _, err := postRun(context.Background(), ts.Client(), ts.URL, req)
		if err != nil || status != http.StatusOK || !resp.OK || resp.Result != "630" {
			t.Fatalf("engine %q: %v %d %+v", engine, err, status, resp)
		}
		if len(resp.Efficiency) != 1 || len(resp.Plan.Parallelized) != 1 || !resp.Plan.Parallelized[0].Vectorized {
			t.Fatalf("engine %q: plan %+v efficiency %+v, want one vectorized loop and its site", engine, resp.Plan, resp.Efficiency)
		}
		return resp.Efficiency[0].Kernel
	}
	for _, name := range []string{"", "kernel", "bytecode"} {
		if !kernelSite(name) {
			t.Errorf("engine %q did not run the vectorized strip as a kernel", name)
		}
	}
	if kernelSite("walk") {
		t.Errorf("the oracle reported a kernel site: the probe cannot tell engines apart")
	}
}

// TestHotPathSurvivesCodeCacheChurn: a serve-cache entry holds its
// program's code — the only place it lives, interp keeps no cache of
// its own — so a hit does zero compile work however many other
// programs have been compiled since.
func TestHotPathSurvivesCodeCacheChurn(t *testing.T) {
	s := newTestServer(t, Config{})
	if resp := mustRun(t, s, Request{Source: addSrc}); !resp.OK {
		t.Fatalf("warm: %+v", resp)
	}
	// Churn: compile 600 distinct throwaway programs beside the server.
	for i := 0; i < 600; i++ {
		prog, err := lang.Parse(fmt.Sprintf("function int main() { return %d; }", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := interp.CompileProgram(prog).Err(); err != nil {
			t.Fatal(err)
		}
	}
	c0 := interp.CompileCount()
	resp := mustRun(t, s, Request{Source: addSrc})
	if !resp.OK || !resp.Cached || resp.Result != "42" {
		t.Fatalf("post-churn hit: %+v", resp)
	}
	if d := interp.CompileCount() - c0; d != 0 {
		t.Errorf("cache hit recompiled %d times after 600 other compiles", d)
	}
}

// scalePar is an auto-parallelizable program: the scale loop is
// approved by the dependence test, the reduction in total is not.
const scalePar = `
type OneWayList [X]
{ int data;
  OneWayList *next is uniquely forward along X;
};

function OneWayList * build(int n) {
  var OneWayList *head = NULL;
  var int i = n;
  while i > 0 {
    var OneWayList *node = new OneWayList;
    node->data = i;
    node->next = head;
    head = node;
    i = i - 1;
  }
  return head;
}

procedure scale(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data * c;
    p = p->next;
  }
}

function int total(OneWayList *head) {
  var int s = 0;
  var OneWayList *p = head;
  while p != NULL {
    s = s + p->data;
    p = p->next;
  }
  return s;
}

function int main() {
  var OneWayList *h = build(20);
  scale(h, 3);
  return total(h);
}
`

// TestAutoRun: an auto request runs the planner-transformed program,
// reproduces the serial result, and reports the plan — which loops
// were parallelized and why the rest were rejected.
func TestAutoRun(t *testing.T) {
	s := newTestServer(t, Config{})
	serial := mustRun(t, s, Request{Source: scalePar})
	if !serial.OK || serial.Result != "630" { // sum(1..20)*3
		t.Fatalf("serial: %+v", serial)
	}
	auto := mustRun(t, s, Request{Source: scalePar, Auto: true, PEs: 4, Width: 16})
	if !auto.OK || auto.Result != serial.Result || auto.Output != serial.Output {
		t.Fatalf("auto run diverged from serial: %+v", auto)
	}
	if auto.Cached {
		t.Errorf("first auto request reported cached")
	}
	if auto.Plan == nil {
		t.Fatalf("auto response lacks a plan")
	}
	if auto.Plan.Width != 16 || len(auto.Plan.Parallelized) != 1 {
		t.Fatalf("plan: %+v", auto.Plan)
	}
	if got := auto.Plan.Parallelized[0]; got.Fn != "scale" || got.Loop != 0 || got.Helper == "" {
		t.Errorf("parallelized entry: %+v", got)
	}
	var sawReduction bool
	for _, r := range auto.Plan.Rejected {
		if r.Fn == "total" && strings.Contains(r.Reason, "loop-carried") {
			sawReduction = true
		}
		if r.Reason == "" {
			t.Errorf("rejected loop without a reason: %+v", r)
		}
	}
	if !sawReduction {
		t.Errorf("plan does not explain the rejected reduction: %+v", auto.Plan.Rejected)
	}
	// The serial entry is still its own cache slot: a repeat serial
	// request hits, and a repeat auto request hits with the plan intact.
	if resp := mustRun(t, s, Request{Source: scalePar}); !resp.Cached || resp.Plan != nil {
		t.Errorf("serial repeat: cached=%v plan=%v", resp.Cached, resp.Plan)
	}
	again := mustRun(t, s, Request{Source: scalePar, Auto: true, PEs: 4, Width: 16})
	if !again.Cached || again.Plan == nil || again.Result != serial.Result {
		t.Errorf("auto repeat: %+v", again)
	}
}

// TestAutoNameClash: a valid program that already uses a name the
// strip-mine rewrite introduces (_pe as a parameter the loop reads, the
// helper procedure's own name) is planned and run over HTTP like any
// other — not answered with a compile error.
func TestAutoNameClash(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for name, src := range map[string]string{
		"_pe parameter": strings.Replace(scalePar, `procedure scale(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data * c;`, `procedure scale(OneWayList *head, int _pe) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data * _pe;`, 1),
		"helper name": scalePar + "procedure _scale_L0_iteration(int a) { }\n",
	} {
		if src == scalePar {
			t.Fatalf("%s: scalePar no longer holds the text this test rewrites", name)
		}
		resp, status, _, err := postRun(context.Background(), ts.Client(), ts.URL, Request{Source: src, Auto: true, PEs: 2})
		if err != nil || status != http.StatusOK || !resp.OK || resp.Result != "630" {
			t.Errorf("%s: POST /run auto: %v %d %+v", name, err, status, resp)
			continue
		}
		if resp.Plan == nil || len(resp.Plan.Parallelized) != 1 || resp.Plan.Parallelized[0].Fn != "scale" {
			t.Errorf("%s: plan: %+v", name, resp.Plan)
		}
	}
}

// TestAutoValidation: width out of range and PEs beyond the cap are
// malformed, not executed.
func TestAutoValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	for i, req := range []Request{
		{Source: scalePar, Auto: true, Width: -1},
		{Source: scalePar, Auto: true, Width: 1 << 20},
		{Source: scalePar, Auto: true, PEs: 1 << 30},
		{Source: scalePar, Auto: true, Sched: "psychic"},
	} {
		if _, err := s.Run(context.Background(), req); err == nil {
			t.Errorf("case %d: accepted", i)
		} else if _, ok := err.(*RequestError); !ok {
			t.Errorf("case %d: err = %v, want *RequestError", i, err)
		}
	}
}

// TestAutoHotPathZeroCompileWork is the planner's acceptance guard:
// once an (auto, width) variant is resident, further auto requests do
// zero front-end work — no parses, no analysis, no planning, no
// code builds — observable as flat compile counters at both the
// serve and interp layers.
func TestAutoHotPathZeroCompileWork(t *testing.T) {
	s := newTestServer(t, Config{})
	warm := mustRun(t, s, Request{Source: scalePar, Auto: true, PEs: 2})
	if !warm.OK || warm.Plan == nil {
		t.Fatalf("warm: %+v", warm)
	}
	st0 := s.Stats().Cache
	c0 := interp.CompileCount()
	const hot = 50
	for i := 0; i < hot; i++ {
		resp := mustRun(t, s, Request{Source: scalePar, Auto: true, PEs: 2})
		if !resp.OK || !resp.Cached || resp.Plan == nil {
			t.Fatalf("hot auto request %d: %+v", i, resp)
		}
	}
	st := s.Stats().Cache
	if st.Compiles != st0.Compiles || st.Misses != st0.Misses {
		t.Errorf("hot auto requests compiled: %+v vs %+v", st, st0)
	}
	if st.Hits != st0.Hits+hot {
		t.Errorf("hits %d, want %d", st.Hits, st0.Hits+hot)
	}
	if d := interp.CompileCount() - c0; d != 0 {
		t.Errorf("front end ran %d times on the auto hot path", d)
	}
}

// TestParallelPEsCap: a parallel request cannot ask for an unbounded
// worker-pool size — the one resource no other budget bounds.
func TestParallelPEsCap(t *testing.T) {
	s := newTestServer(t, Config{})
	_, err := s.Run(context.Background(), Request{Source: addSrc, Parallel: true, PEs: 1 << 30})
	if _, ok := err.(*RequestError); !ok {
		t.Fatalf("err = %v, want *RequestError", err)
	}
	resp := mustRun(t, s, Request{Source: addSrc, Parallel: true, PEs: 4, Sched: "cyclic"})
	if !resp.OK || resp.Result != "42" {
		t.Fatalf("parallel run: %+v", resp)
	}
}

// TestSandbox covers the per-request kill switches: wall-clock
// deadline, step budget, allocation budget, output budget.
func TestSandbox(t *testing.T) {
	t.Run("deadline", func(t *testing.T) {
		s := newTestServer(t, Config{MaxSteps: 1 << 40})
		resp := mustRun(t, s, Request{Source: spinSrc, Fn: "spin",
			Args: []json.Number{"4000000000"}, TimeoutMS: 50})
		if resp.OK || !strings.Contains(resp.Error, "run cancelled") {
			t.Errorf("deadline resp: %+v", resp)
		}
	})
	t.Run("steps", func(t *testing.T) {
		s := newTestServer(t, Config{MaxSteps: 1000})
		resp := mustRun(t, s, Request{Source: spinSrc, Fn: "spin",
			Args: []json.Number{"1000000"}})
		if resp.OK || !strings.Contains(resp.Error, "step limit exceeded") {
			t.Errorf("step resp: %+v", resp)
		}
	})
	t.Run("allocs", func(t *testing.T) {
		s := newTestServer(t, Config{MaxAllocs: 100})
		resp := mustRun(t, s, Request{Source: allocSrc, Fn: "boom",
			Args: []json.Number{"100000"}})
		if resp.OK || !strings.Contains(resp.Error, "allocation limit exceeded") {
			t.Errorf("alloc resp: %+v", resp)
		}
	})
	t.Run("output", func(t *testing.T) {
		s := newTestServer(t, Config{MaxOutputBytes: 64})
		resp := mustRun(t, s, Request{Source: addSrc + `
function int chatty(int n) {
  var int i = 0;
  while i < n {
    print("spam line number", i);
    i = i + 1;
  }
  return i;
}
`, Fn: "chatty", Args: []json.Number{"100000"}})
		if resp.OK || !strings.Contains(resp.Error, "output limit exceeded") {
			t.Errorf("output resp: %+v", resp)
		}
		if len(resp.Output) > 64 {
			t.Errorf("returned %d output bytes past the cap", len(resp.Output))
		}
	})
}

// slowRequest keeps a worker busy until its deadline: a spin far
// beyond the step budget with a short wall clock.
func slowRequest(timeoutMS int64) Request {
	return Request{Source: spinSrc, Fn: "spin",
		Args: []json.Number{"4000000000"}, TimeoutMS: timeoutMS}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionControl: with one worker and a queue of one, a third
// concurrent request is rejected with ErrBusy, not buffered.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, MaxSteps: 1 << 40})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); s.Run(context.Background(), slowRequest(400)) }()
	waitFor(t, "worker busy", func() bool { return s.Stats().Queue.Running == 1 })
	go func() { defer wg.Done(); s.Run(context.Background(), slowRequest(400)) }()
	waitFor(t, "queue depth 1", func() bool { return s.Stats().Queue.Depth == 1 })
	_, err := s.Run(context.Background(), Request{Source: addSrc})
	if err != ErrBusy {
		t.Errorf("err = %v, want ErrBusy", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	wg.Wait()
}

// runReply is what Run returned, handed back from the goroutine a test
// ran it on.
type runReply struct {
	resp Response
	err  error
}

// TestGracefulDrain: Close waits for running and queued work alike —
// one request holds the only slot, a second is parked behind it — and
// a request arriving once Close has begun is refused with ErrDraining
// while those two are still on their way.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, MaxSteps: 1 << 40})
	replies := make(chan runReply, 2)
	run := func() {
		resp, err := s.Run(context.Background(), slowRequest(200))
		replies <- runReply{resp, err}
	}
	go run()
	waitFor(t, "slot taken", func() bool { return s.Stats().Queue.Running == 1 })
	go run()
	waitFor(t, "second request queued", func() bool { return s.Stats().Queue.Depth == 1 })

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	waitFor(t, "drain begun", s.draining.Load)
	if _, err := s.Run(context.Background(), Request{Source: addSrc}); err != ErrDraining {
		t.Errorf("request arriving mid-drain: err = %v, want ErrDraining", err)
	}
	<-closed
	if st := s.Stats().Queue; st.Running != 0 || st.Depth != 0 {
		t.Errorf("Close returned with %d running and %d queued", st.Running, st.Depth)
	}
	// When Close returns both requests have left the gate; their
	// goroutines just need a beat to hand the replies over.
	for i := 0; i < 2; i++ {
		select {
		case r := <-replies:
			if r.err != nil {
				t.Fatalf("drained request err: %v", r.err)
			}
			if r.resp.OK || !strings.Contains(r.resp.Error, "run cancelled") {
				t.Errorf("drained request should have hit its own deadline: %+v", r.resp)
			}
		case <-time.After(time.Second):
			t.Fatalf("Close returned while a request was still in flight")
		}
	}
	if _, err := s.Run(context.Background(), Request{Source: addSrc}); err != ErrDraining {
		t.Errorf("post-drain err = %v, want ErrDraining", err)
	}
}

// TestAbandonedWhileQueued: a request whose client gives up while it is
// parked at the gate never runs. When the slot frees it is answered
// ok:false "cancelled while queued", counted as abandoned — not as an
// error, not as a latency sample — the gate is idle afterwards, and a
// profiled one still gets its trace, whose admission span is the wait.
func TestAbandonedWhileQueued(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4, MaxSteps: 1 << 40})
	pinCtx, unpin := context.WithCancel(context.Background())
	defer unpin()
	pinned := make(chan struct{})
	go func() {
		defer close(pinned)
		s.Run(pinCtx, slowRequest(10_000))
	}()
	waitFor(t, "slot pinned", func() bool { return s.Stats().Queue.Running == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make(chan runReply, 1)
	go func() {
		resp, err := s.Run(ctx, Request{Source: addSrc, Profile: true})
		got <- runReply{resp, err}
	}()
	waitFor(t, "second request queued", func() bool { return s.Stats().Queue.Depth == 1 })
	cancel()
	unpin()
	<-pinned
	r := <-got

	if r.err != nil || r.resp.OK || r.resp.Error != "serve: cancelled while queued: context canceled" {
		t.Errorf("abandoned request answered %+v, %v", r.resp, r.err)
	}
	if r.resp.Steps != 0 || r.resp.Cached || r.resp.Result != "" {
		t.Errorf("abandoned request ran: %+v", r.resp)
	}
	if r.resp.Trace == nil || findSpan(r.resp.Trace.Spans, "admission") == nil {
		t.Errorf("profiled abandoned request lost its trace: %+v", r.resp.Trace)
	} else if names := spanNames(r.resp.Trace); len(names) != 1 {
		t.Errorf("abandoned request's trace has spans %v, want admission alone", names)
	}
	// The pinning request is the one execution: cut short by its client,
	// so the one error and the one latency sample are its own.
	st := s.Stats()
	if st.Abandoned != 1 || st.Errors != 1 || st.Latency.Count != 1 || st.Rejected != 0 {
		t.Errorf("abandoned %d errors %d latency samples %d rejected %d, want 1 / 1 / 1 / 0",
			st.Abandoned, st.Errors, st.Latency.Count, st.Rejected)
	}
	if st.Queue.Running != 0 || st.Queue.Depth != 0 || st.Queue.Tenants != 0 {
		t.Errorf("gate not idle afterwards: %+v", st.Queue)
	}
	if resp := mustRun(t, s, Request{Source: addSrc}); !resp.OK {
		t.Errorf("server stopped serving after an abandoned request: %+v", resp)
	}
}

// TestServerOwnsNoGoroutines: New starts none, and after a hundred
// serial, parallel and auto runs plus Close the process is back where
// it began — a request runs on its caller's goroutine, and parexec
// joins the PEs it started before Run returns.
func TestServerOwnsNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{})
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("New started %d goroutines, want 0", n-base)
	}
	for i := 0; i < 100; i++ {
		req := Request{Source: scalePar}
		switch i % 3 {
		case 1:
			req.Parallel, req.PEs = true, 2
		case 2:
			req.Auto, req.PEs = true, 2
		}
		if resp := mustRun(t, s, req); !resp.OK || resp.Result != "630" {
			t.Fatalf("run %d: %+v", i, resp)
		}
	}
	s.Close()
	waitFor(t, "goroutines back at baseline", func() bool { return runtime.NumGoroutine() <= base })
}

// TestHTTP drives the wire surface end to end.
func TestHTTP(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, status, _, err := postRun(context.Background(), ts.Client(), ts.URL, Request{Source: addSrc})
	if err != nil || status != http.StatusOK || !resp.OK || resp.Result != "42" {
		t.Fatalf("POST /run: %v %d %+v", err, status, resp)
	}

	r, err := ts.Client().Post(ts.URL+"/run", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", r.StatusCode)
	}

	r, err = ts.Client().Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: status %d, want 405", r.StatusCode)
	}

	st, err := fetchStats(context.Background(), ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests < 1 || st.Latency.Count < 1 {
		t.Errorf("stats: %+v", st)
	}

	r, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", r.StatusCode)
	}
}

// TestLoadConcurrency64 is the acceptance run: the load generator
// against the HTTP service at concurrency 64 over the testdata corpus,
// race-clean (CI runs -race), zero errors, ≥95% hot-phase hit rate.
func TestLoadConcurrency64(t *testing.T) {
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
		Concurrency: 64,
		Duration:    400 * time.Millisecond,
		ColdRatio:   0.02,
		Seed:        1,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("load run had %d errors (of %d requests)", res.Errors, res.Requests)
	}
	if res.Requests == 0 {
		t.Fatalf("load run made no requests")
	}
	if res.HotHitRate < 0.95 {
		t.Errorf("hot-phase hit rate %.3f, want >= 0.95", res.HotHitRate)
	}
	t.Logf("concurrency 64: %d req, %.0f rps, hit rate %.3f, p50 %dµs p99 %dµs",
		res.Requests, res.RPS, res.HotHitRate, res.P50US, res.P99US)
}

// TestLoadAutoMix: the generator's auto-rate mix against the HTTP
// service — parallel planner-transformed execution under concurrent
// load, zero errors, and the hot-path guarantee intact (the cold phase
// first-touches the auto variants, so hot auto requests hit).
func TestLoadAutoMix(t *testing.T) {
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
		AutoRate:    0.3,
		Seed:        1,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("auto-mix load run had %d errors (of %d requests)", res.Errors, res.Requests)
	}
	if res.AutoRequests == 0 {
		t.Errorf("auto mix sent no auto requests (of %d)", res.Requests)
	}
	if res.HotHitRate < 0.95 {
		t.Errorf("hot-phase hit rate %.3f, want >= 0.95", res.HotHitRate)
	}
	t.Logf("auto mix: %d req (%d auto), %.0f rps, hit rate %.3f",
		res.Requests, res.AutoRequests, res.RPS, res.HotHitRate)
}

// BenchmarkServeHot measures the cache-hit request path end to end
// (no HTTP): admission, cache lookup, sandboxed execution.
func BenchmarkServeHot(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	req := Request{Source: addSrc}
	if resp, err := s.Run(context.Background(), req); err != nil || !resp.OK {
		b.Fatalf("warm: %v %+v", err, resp)
	}
	c0 := interp.CompileCount()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Run(context.Background(), req)
		if err != nil || !resp.OK {
			b.Fatal(err, resp.Error)
		}
	}
	b.StopTimer()
	if d := interp.CompileCount() - c0; d != 0 {
		b.Fatalf("hot benchmark compiled %d times", d)
	}
}

// BenchmarkServeHotParallel is BenchmarkServeHot from GOMAXPROCS callers
// at once — the case a cross-goroutine hand-off costs most, and what
// the gate's one mutex has to carry.
func BenchmarkServeHotParallel(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	req := Request{Source: addSrc}
	if resp, err := s.Run(context.Background(), req); err != nil || !resp.OK {
		b.Fatalf("warm: %v %+v", err, resp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := s.Run(context.Background(), req)
			if err != nil || !resp.OK {
				b.Error(err, resp.Error)
				return
			}
		}
	})
}

// BenchmarkServeColdAuto measures the cache-miss path of an auto request
// end to end (no HTTP): every iteration sends a never-seen variant of
// the vector-force source, so it parses, plans (lowering included) and
// runs a small sweep — the work behind the benchmark's cold_p25_ms.
func BenchmarkServeColdAuto(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	req := Request{Fn: nbody.VecForceFunc, Auto: true, Args: []json.Number{"64", "4", "0.5"}}
	c0 := interp.CompileCount()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Source = nbody.VecForcePSL + "\n// cold " + strconv.Itoa(i) + "\n"
		resp, err := s.Run(context.Background(), req)
		if err != nil || !resp.OK || resp.Cached {
			b.Fatal(err, resp.Error, resp.Cached)
		}
	}
	b.StopTimer()
	if d := interp.CompileCount() - c0; d != int64(b.N) {
		b.Fatalf("%d misses built code %d times", b.N, d)
	}
}

// TestAutoMissCompilesOnce: a miss lowers its program once, whatever it
// is — a serial request builds the input, an auto request pins the code
// the planner lowered to read the classifier's verdicts (it used to
// build the planned program a second time), and an auto request whose
// plan approved nothing builds the input it falls back to.
func TestAutoMissCompilesOnce(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, c := range []struct {
		name     string
		req      Request
		approved int
	}{
		{"serial", Request{Source: scalePar + "// once: serial\n"}, 0},
		{"auto", Request{Source: scalePar + "// once: auto\n", Auto: true, PEs: 2}, 1},
		{"auto, nothing approved", Request{Source: addSrc + "// once: none\n", Auto: true, PEs: 2}, 0},
	} {
		c0 := interp.CompileCount()
		resp := mustRun(t, s, c.req)
		if !resp.OK || resp.Cached {
			t.Fatalf("%s: %+v", c.name, resp)
		}
		if d := interp.CompileCount() - c0; d != 1 {
			t.Errorf("%s: the miss built code %d times, want 1", c.name, d)
		}
		if c.req.Auto && (resp.Plan == nil || len(resp.Plan.Parallelized) != c.approved) {
			t.Errorf("%s: plan %+v, want %d loop(s) parallelized", c.name, resp.Plan, c.approved)
		}
		if again := mustRun(t, s, c.req); !again.Cached || interp.CompileCount()-c0 != 1 {
			t.Errorf("%s: the repeat request was not a free hit", c.name)
		}
	}
}

// TestBuildReportsPlannedCompileFailure: a program whose planned form
// does not compile fails the build with exactly the error building that
// form by hand gives — what the miss reported when it compiled the plan
// itself — and pins nothing. No source text gets there (a checked
// program compiles), so the AST is damaged by hand, in a function the
// planner's rewrite does not touch and so does not re-check.
func TestBuildReportsPlannedCompileFailure(t *testing.T) {
	p := lang.MustParse(scalePar)
	ret := p.Func("total").Body.Stmts[len(p.Func("total").Body.Stmts)-1].(*lang.ReturnStmt)
	ret.Value.(*lang.Ident).Name = "nosuch"

	plan, err := transform.AutoParallelize(p, 8)
	if err != nil || plan.Parallelized != 1 {
		t.Fatalf("plan = %+v, %v", plan, err)
	}
	want := interp.CompileProgram(plan.Program).Err()
	if want == nil {
		t.Fatal("the damaged program compiles")
	}
	cp, summary, err := build(p, true, 8, nil)
	if cp != nil || summary != nil || err == nil || err.Error() != want.Error() {
		t.Errorf("build = %v, %v, %v; want nil, nil, %q", cp, summary, err, want)
	}
	if _, _, err := build(p, false, 0, nil); err == nil {
		t.Error("the serial build of the damaged program succeeded")
	}
}

// TestPlanFailureReplies pins, through POST /run, the status and reply
// of the three ways a plan can fail to become a running program. No
// source text reaches them (a checked, normalized program analyses,
// compiles and lowers), so each cache entry is planted by a miss whose
// parse result was damaged by hand, in `total`, which the planner's
// rewrite does not touch and so does not re-check; the request over the
// wire is then a hit on it.
//
//   - the input fails path-matrix analysis: no plan, 200 ok:false
//     "compile: …". That is the only analysis a request can fail: the
//     planner reads the input's analysis and nothing in serve analyses
//     the planned program (core.AutoParallel's callers may, and then see
//     the error at that first use — internal/core pins it). A serial
//     request for the same program runs: nothing analyses it.
//   - the planned program does not compile: 200 ok:false "compile: …",
//     no plan; the failure is cached.
//   - the planned program compiles but does not lower to bytecode: the
//     entry is cached with its plan, every approved loop saying
//     "kernel lowering unavailable: …" for a vector verdict, and runs on
//     the server's engine, under any of its names, are 200 ok:false
//     "interp: bytecode engine: …"; the walker, which needs no
//     bytecode, still runs it.
func TestPlanFailureReplies(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const width = 8
	// plant caches, under src's key, what a miss would have built had
	// its parse produced scalePar damaged by damage.
	plant := func(src string, auto bool, damage func(total *lang.FuncDecl)) {
		t.Helper()
		p := lang.MustParse(scalePar)
		damage(p.Func("total"))
		key := serialKey(src)
		if auto {
			key = autoKey(src, width)
		}
		s.cache.get(context.Background(), key, func() (*interp.CompiledProgram, *PlanSummary, error) {
			return build(p, auto, width, nil)
		})
	}
	post := func(req Request) Response {
		t.Helper()
		req.Width, req.PEs = width, 2
		resp, status, _, err := postRun(context.Background(), ts.Client(), ts.URL, req)
		if err != nil || status != http.StatusOK {
			t.Fatalf("POST /run: %v, status %d, want 200", err, status)
		}
		if !resp.Cached {
			t.Fatalf("the request missed the planted entry: %+v", resp)
		}
		return resp
	}

	chainLoad := func(total *lang.FuncDecl) { // p = p->next  →  p = p->next->next
		loop := total.Body.Stmts[2].(*lang.WhileStmt)
		advance := loop.Body.Stmts[len(loop.Body.Stmts)-1].(*lang.AssignStmt)
		inner := advance.RHS.(*lang.FieldExpr)
		outer := &lang.FieldExpr{X: inner, Field: "next"}
		outer.SetType(inner.Type())
		advance.RHS = outer
	}
	src := scalePar + "// input fails analysis\n"
	plant(src, true, chainLoad)
	plant(src, false, chainLoad)
	resp := post(Request{Source: src, Auto: true})
	if resp.OK || !strings.HasPrefix(resp.Error, "compile: ") || !strings.Contains(resp.Error, "chained load not normalized") ||
		resp.Plan != nil || resp.Steps != 0 {
		t.Errorf("input fails analysis: %+v", resp)
	}
	if resp := post(Request{Source: src}); !resp.OK || resp.Result != "300" { // every other cell
		t.Errorf("the same program, serial: %+v", resp)
	}

	src = scalePar + "// planned program does not compile\n"
	plant(src, true, func(total *lang.FuncDecl) {
		ret := total.Body.Stmts[len(total.Body.Stmts)-1].(*lang.ReturnStmt)
		ret.Value.(*lang.Ident).Name = "nosuch"
	})
	resp = post(Request{Source: src, Auto: true})
	if resp.OK || !strings.HasPrefix(resp.Error, "compile: ") || !strings.Contains(resp.Error, `unresolved variable "nosuch"`) ||
		resp.Plan != nil || resp.Steps != 0 {
		t.Errorf("planned program does not compile: %+v", resp)
	}

	src = scalePar + "// planned program does not lower\n"
	plant(src, true, func(total *lang.FuncDecl) {
		total.Body.Stmts[0].(*lang.VarStmt).DeclType = &lang.Scalar{Kind: 9} // no register bank holds it
	})
	for _, eng := range []string{"", "kernel", "bytecode"} {
		resp = post(Request{Source: src, Auto: true, Engine: eng})
		if resp.OK || !strings.HasPrefix(resp.Error, "interp: bytecode engine: bytecode: total: ") {
			t.Errorf("planned program does not lower, engine %q: %+v", eng, resp)
		}
		if resp.Plan == nil || len(resp.Plan.Parallelized) != 1 || resp.Plan.Parallelized[0].Vectorized ||
			!strings.HasPrefix(resp.Plan.Parallelized[0].VectorReason, "kernel lowering unavailable: bytecode: total: ") {
			t.Errorf("planned program does not lower, engine %q: plan %+v", eng, resp.Plan)
		}
	}
	if resp = post(Request{Source: src, Auto: true, Engine: "walk"}); !resp.OK || resp.Result != "630" || resp.Plan == nil {
		t.Errorf("planned program does not lower, engine walk: %+v", resp)
	}
	if st := s.Stats(); st.Invalid != 0 || st.Rejected != 0 {
		t.Errorf("a plan failure was counted as a bad or refused request: %+v", st)
	}
}
