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

	"repro/internal/core"
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
}

func TestRunValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []Request{
		{}, // empty source
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

// TestMismatchedArgsFail: an argument whose kind does not fit its
// parameter is a failed run naming it, serial and on the pool, where it
// once ran as its parameter's zero (a real for an int as 0, an int for a
// bool as false, an int for a pointer as NULL).
func TestMismatchedArgsFail(t *testing.T) {
	s := newTestServer(t, Config{})
	src := `
type Cell [X] { int v; Cell *next is uniquely forward along X; };
function int twice(int x) { return x + x; }
function bool not(bool b) { return !b; }
function bool empty(Cell *c) { return c == NULL; }
`
	for _, c := range []struct {
		fn, arg, want string
	}{
		{"twice", "1.5", "interp: twice: argument 1 is real, not int"},
		{"not", "1", "interp: not: argument 1 is int, not bool"},
		{"empty", "0", "interp: empty: argument 1 is int, not Cell*"},
	} {
		for _, parallel := range []bool{false, true} {
			resp := mustRun(t, s, Request{Source: src, Fn: c.fn, Args: []json.Number{json.Number(c.arg)}, Parallel: parallel})
			if resp.OK || resp.Error != c.want || resp.Result != "" {
				t.Errorf("%s(%s), parallel %t: %+v, want error %q", c.fn, c.arg, parallel, resp, c.want)
			}
		}
	}
	if resp := mustRun(t, s, Request{Source: src, Fn: "twice", Args: []json.Number{"21"}}); !resp.OK || resp.Result != "42" {
		t.Errorf("twice(21) = %+v", resp)
	}
}

// TestDeepNestingIsACompileError: a source of 500 000 nested
// parentheses, 1 000 030 bytes and so under the default source cap,
// once took the process down with a goroutine stack overflow, which no
// recover catches. The parser's nesting limit makes it a compile error
// like any other, and the server goes on answering. A flat chain of
// binary operators builds a tree as deep as it is long, so it is held to
// the same limit: one at the limit is planned and run, one far longer is
// a compile error naming the expression's depth.
func TestDeepNestingIsACompileError(t *testing.T) {
	s := newTestServer(t, Config{})
	const n = 500000
	deep := "function int main(){return " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ";}"
	if len(deep) != 1000030 {
		t.Fatalf("source is %d bytes, want 1000030", len(deep))
	}
	status, resp := postBody(t, s, `{"source":`+jsonString(deep)+`}`)
	if status != http.StatusOK || resp.OK || !strings.HasPrefix(resp.Error, "compile: ") ||
		!strings.HasSuffix(resp.Error, "nesting deeper than 1000") {
		t.Fatalf("deep source: %d %+v, want a compile error naming the nesting limit", status, resp)
	}
	if status, resp := postBody(t, s, `{"source":`+jsonString(addSrc)+`}`); status != http.StatusOK || !resp.OK || resp.Result != "42" {
		t.Fatalf("request after the deep source: %d %+v", status, resp)
	}
	const terms = 20000
	flat := "function int main(){return " + strings.Repeat("1+", terms-1) + "1;}"
	if status, resp := postBody(t, s, `{"source":`+jsonString(flat)+`,"auto":true}`); status != http.StatusOK || resp.OK ||
		!strings.HasPrefix(resp.Error, "compile: ") || !strings.HasSuffix(resp.Error, "expression deeper than 1000") {
		t.Fatalf("flat chain of %d terms: %d %+v, want a compile error naming the expression's depth", terms, status, resp)
	}
	// main's body is the first level, each + one more.
	flat = "function int main(){return " + strings.Repeat("1+", 999) + "1;}"
	if status, resp := postBody(t, s, `{"source":`+jsonString(flat)+`,"auto":true}`); status != http.StatusOK || !resp.OK || resp.Result != "1000" {
		t.Fatalf("flat chain at the limit: %d %+v", status, resp)
	}
}

// TestCacheHitMissEviction pins the cache accounting: distinct sources
// miss, repeats hit, and capacity overflow evicts the LRU entry so a
// later repeat misses again.
func TestCacheHitMissEviction(t *testing.T) {
	c := newCache(2, 1)
	builds := 0
	get := func(src string) (cached bool) {
		_, _, cached, err := c.get(context.Background(), serialKey(src), func() (*interp.CompiledProgram, *PlanSummary, error) {
			builds++
			return nil, nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return cached
	}
	get("a") // miss
	get("a") // hit
	get("b") // miss (cache full now)
	get("c") // miss, evicts a
	st := c.stats()
	if st.Hits != 1 || st.Misses != 3 || st.Evictions != 1 || st.Compiles != 3 || builds != 3 {
		t.Fatalf("after fill: %+v, %d builds", st, builds)
	}
	if get("a") { // miss again: was evicted
		t.Errorf("evicted program reported cached")
	}
	st = c.stats()
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
// the serve and interp layers.
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
	st := s.Stats().Cache
	if st.Compiles != st0.Compiles || st.Misses != st0.Misses {
		t.Errorf("hot requests compiled: %+v vs %+v", st, st0)
	}
	if st.Hits != st0.Hits+hot {
		t.Errorf("hits %d, want %d", st.Hits, st0.Hits+hot)
	}
	if d := interp.CompileCount() - c0; d != 0 {
		t.Errorf("front end ran %d times on the hot path", d)
	}
}

// postBody sends body to s's POST /run and returns the status and the
// reply, its elapsed time zeroed so that two replies can be compared.
func postBody(t *testing.T, s *Server, body string) (int, Response) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("%s: %v (%q)", body, err, rec.Body.String())
	}
	resp.ElapsedUS = 0
	return rec.Code, resp
}

// TestDefaultEngineOnTheWire: the server owns the engine. A POST /run
// body runs the kernel engine whatever "engine" key it carries — none,
// "kernel", "bytecode" or "walk" (the name table of the zero engine is
// pinned by the root TestDefaultEngine). Results cannot tell engines
// apart, but a profiled auto run can: only the kernel engine reports
// the vectorized loop's forall site as a kernel site.
func TestDefaultEngineOnTheWire(t *testing.T) {
	s := newTestServer(t, Config{})
	src := jsonString(scalePar)
	for _, extra := range []string{"", `,"engine":"kernel"`, `,"engine":"bytecode"`, `,"engine":"walk"`} {
		status, resp := postBody(t, s, `{"source":`+src+`,"auto":true,"pes":2,"profile":true`+extra+`}`)
		if status != http.StatusOK || !resp.OK || resp.Result != "630" {
			t.Fatalf("body with %q: %d %+v", extra, status, resp)
		}
		if len(resp.Efficiency) != 1 || len(resp.Plan.Parallelized) != 1 || !resp.Plan.Parallelized[0].Vectorized {
			t.Fatalf("body with %q: plan %+v efficiency %+v, want one vectorized loop and its site", extra, resp.Plan, resp.Efficiency)
		}
		if !resp.Efficiency[0].Kernel {
			t.Errorf("body with %q did not run the vectorized strip as a kernel", extra)
		}
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
	auto := mustRun(t, s, Request{Source: scalePar, Auto: true, PEs: 4})
	if !auto.OK || auto.Result != serial.Result || auto.Output != serial.Output {
		t.Fatalf("auto run diverged from serial: %+v", auto)
	}
	if auto.Cached {
		t.Errorf("first auto request reported cached")
	}
	if auto.Plan == nil {
		t.Fatalf("auto response lacks a plan")
	}
	if auto.Plan.Width != transform.DefaultWidth(4) || len(auto.Plan.Parallelized) != 1 {
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
	again := mustRun(t, s, Request{Source: scalePar, Auto: true, PEs: 4})
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

// TestAutoValidation: PEs out of range are malformed, not executed.
func TestAutoValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	for i, req := range []Request{
		{Source: scalePar, Auto: true, PEs: -1},
		{Source: scalePar, Auto: true, PEs: 1 << 30},
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
	resp := mustRun(t, s, Request{Source: addSrc, Parallel: true, PEs: 4})
	if !resp.OK || resp.Result != "42" {
		t.Fatalf("parallel run: %+v", resp)
	}
}

// TestScheduleKeysIgnored: the server owns every execution choice, so
// a body that still names one — "sched" and "chunk", "engine", "width"
// and "tenant", keys the wire used to read — is answered exactly as the
// same body without them: same status, same reply but for the elapsed
// time. That holds for a value the wire once refused, too.
func TestScheduleKeysIgnored(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, base := range []string{
		`{"source":` + jsonString(addSrc) + `,"parallel":true`,
		`{"source":` + jsonString(scalePar) + `,"auto":true,"pes":2`,
	} {
		postBody(t, s, base+"}") // warm the cache, so every answer below is a hit
		wantCode, want := postBody(t, s, base+"}")
		if wantCode != http.StatusOK || !want.OK || !want.Cached {
			t.Fatalf("%s}: HTTP %d %+v", base, wantCode, want)
		}
		wantJSON, _ := json.Marshal(want)
		for _, extra := range []string{
			`,"sched":"psychic","chunk":3`,
			`,"engine":"walk"`,
			`,"engine":"compiled"`,
			`,"width":8`,
			`,"width":-1`,
			`,"tenant":"a"`,
		} {
			code, got := postBody(t, s, base+extra+"}")
			if gotJSON, _ := json.Marshal(got); code != wantCode || string(gotJSON) != string(wantJSON) {
				t.Errorf("%s}: with %s: HTTP %d %s, want HTTP %d %s", base[:30], extra, code, gotJSON, wantCode, wantJSON)
			}
		}
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
	if st.Queue.Running != 0 || st.Queue.Depth != 0 {
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

// BenchmarkServeHotAuto is BenchmarkServeHot for a hot auto request,
// the vector-force sweep at 64 bodies and 4 steps: a cache hit on the
// planned variant, run on the pool.
func BenchmarkServeHotAuto(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	req := Request{Source: nbody.VecForcePSL, Fn: nbody.VecForceFunc, Auto: true, Args: []json.Number{"64", "4", "0.5"}}
	if resp, err := s.Run(context.Background(), req); err != nil || !resp.OK {
		b.Fatalf("warm: %v %+v", err, resp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp, err := s.Run(context.Background(), req); err != nil || !resp.OK || !resp.Cached {
			b.Fatal(err, resp.Error)
		}
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
//   - the planned program does not compile — a use the lowering cannot
//     resolve, or a type no register bank holds: 200 ok:false
//     "compile: bytecode: …", no plan; the failure is cached, not an
//     entry every hit would fail to run. The plan itself still says
//     "kernel lowering unavailable: …" for each approved loop's vector
//     verdict, and the walker, which needs no bytecode, still runs the
//     planned program in process.
func TestPlanFailureReplies(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	width := transform.DefaultWidth(2)
	// plant caches, under src's key, what a miss would have built had
	// its parse produced scalePar damaged by damage.
	plant := func(src string, auto bool, damage func(total *lang.FuncDecl)) {
		t.Helper()
		p := lang.MustParse(scalePar)
		damage(p.Func("total"))
		s.cache.get(context.Background(), requestKey(src, auto, width), func() (*interp.CompiledProgram, *PlanSummary, error) {
			return build(p, auto, width, nil)
		})
	}
	post := func(req Request) Response {
		t.Helper()
		req.PEs = 2 // the planted entries' width
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
		outer := &lang.FieldExpr{X: inner, Field: "next", FieldID: inner.FieldID}
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
	noBank := func(total *lang.FuncDecl) {
		total.Body.Stmts[0].(*lang.VarStmt).DeclType = &lang.Scalar{Kind: 9} // no register bank holds it
	}
	plant(src, true, noBank)
	resp = post(Request{Source: src, Auto: true})
	if resp.OK || !strings.HasPrefix(resp.Error, "compile: bytecode: total: ") || !strings.Contains(resp.Error, "unbankable type") ||
		resp.Plan != nil || resp.Steps != 0 {
		t.Errorf("planned program does not lower: %+v", resp)
	}
	// The walker, which needs no bytecode, still runs the planned program.
	p := lang.MustParse(scalePar)
	noBank(p.Func("total"))
	c, err := core.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := c.AutoParallel(width)
	if err != nil {
		t.Fatal(err)
	}
	for _, lp := range ap.Plan.Loops {
		if lp.Parallelized && (lp.Vectorized || !strings.HasPrefix(lp.VectorReason, "kernel lowering unavailable: bytecode: total: ")) {
			t.Errorf("planned program does not lower: loop %+v", lp)
		}
	}
	if v, _, err := ap.Run(core.RunConfig{Engine: interp.EngineWalk}, "main"); err != nil || v.String() != "630" {
		t.Errorf("planned program does not lower, on the walker: %v, %v; want 630", v, err)
	}
	if st := s.Stats(); st.Invalid != 0 || st.Rejected != 0 {
		t.Errorf("a plan failure was counted as a bad or refused request: %+v", st)
	}
}
