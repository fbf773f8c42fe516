package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceSpanTree: spans nest, offsets are monotonic, Finish closes
// open spans, and the view is a self-contained deep copy.
func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("")
	if id := tr.View().ID; len(id) != 16 {
		t.Fatalf("generated ID %q, want 16 hex digits", id)
	}
	a := tr.Start("admission")
	time.Sleep(2 * time.Millisecond)
	a.End()
	b := tr.Start("execute")
	c := b.Start("cache")
	time.Sleep(1 * time.Millisecond)
	c.SetAttr("hit", "true")
	c.End()
	// b left open: Finish must close it.
	tr.Finish()

	v := tr.View()
	if v.WallUS <= 0 {
		t.Fatalf("wall %d, want > 0", v.WallUS)
	}
	if len(v.Spans) != 2 {
		t.Fatalf("got %d root spans, want 2", len(v.Spans))
	}
	adm, ex := v.Spans[0], v.Spans[1]
	if adm.Name != "admission" || ex.Name != "execute" {
		t.Fatalf("span names %q, %q", adm.Name, ex.Name)
	}
	if adm.DurUS <= 0 {
		t.Errorf("admission dur %d, want > 0", adm.DurUS)
	}
	if ex.StartUS < adm.StartUS {
		t.Errorf("execute starts (%d) before admission (%d)", ex.StartUS, adm.StartUS)
	}
	if ex.DurUS <= 0 {
		t.Errorf("open span not closed by Finish: dur %d", ex.DurUS)
	}
	if len(ex.Children) != 1 || ex.Children[0].Name != "cache" {
		t.Fatalf("execute children: %+v", ex.Children)
	}
	if got := ex.Children[0].Attrs["hit"]; got != "true" {
		t.Errorf("cache attr hit = %q, want true", got)
	}
	// Spans within the recorded wall.
	for _, s := range v.Spans {
		if s.StartUS+s.DurUS > v.WallUS+1 {
			t.Errorf("span %s [%d +%d] exceeds wall %d", s.Name, s.StartUS, s.DurUS, v.WallUS)
		}
	}
}

// TestTraceAdoptedID: a client-supplied ID is used verbatim (the
// X-PSL-Trace stitching contract).
func TestTraceAdoptedID(t *testing.T) {
	tr := NewTrace("deadbeef00112233")
	if id := tr.View().ID; id != "deadbeef00112233" {
		t.Fatalf("adopted ID %q", id)
	}
}

// TestTraceNilSafe: the whole API is a no-op on nil receivers — the
// contract that lets instrumented code skip "if tracing" branches.
func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	if tr.View().ID != "" {
		t.Error("nil trace has an ID")
	}
	s := tr.Start("x")
	if s != nil {
		t.Fatal("nil trace returned a span")
	}
	s.End()
	s.SetAttr("k", "v")
	c := s.Start("child")
	c.End()
	tr.Finish()
	if v := tr.View(); v.ID != "" || len(v.Spans) != 0 {
		t.Errorf("nil trace view: %+v", v)
	}
	var sampler *Sampler
	if sampler.Sample() {
		t.Error("nil sampler sampled")
	}
	var ring *Ring
	ring.Add(TraceView{})
	if ring.Snapshot() != nil || ring.Len() != 0 {
		t.Error("nil ring not empty")
	}
	var prof *ForallProfiler
	prof.Record(1, 1, nil, nil, nil)
	if prof.Report() != nil {
		t.Error("nil profiler reported")
	}
}

// TestSampler: rate 0 never fires, rate 1 always, rate 0.25 exactly
// 1-in-4 (deterministic counter, not a coin flip).
func TestSampler(t *testing.T) {
	if s := NewSampler(0); s != nil {
		t.Fatal("rate 0 should build a nil sampler")
	}
	s := NewSampler(1)
	for i := 0; i < 10; i++ {
		if !s.Sample() {
			t.Fatal("rate 1 must always sample")
		}
	}
	s = NewSampler(0.25)
	got := 0
	for i := 0; i < 400; i++ {
		if s.Sample() {
			got++
		}
	}
	if got != 100 {
		t.Fatalf("rate 0.25 sampled %d of 400, want exactly 100", got)
	}
}

// TestRing: bounded, newest-first, overwrites oldest.
func TestRing(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(TraceView{WallUS: int64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("len %d, want 3", r.Len())
	}
	snap := r.Snapshot()
	want := []int64{5, 4, 3}
	for i, v := range snap {
		if v.WallUS != want[i] {
			t.Fatalf("snapshot[%d].WallUS = %d, want %d (%+v)", i, v.WallUS, want[i], snap)
		}
	}
}

// TestForallProfilerMath: known timings produce the documented busy%,
// wait%, and imbalance scores, aggregated across barriers.
func TestForallProfilerMath(t *testing.T) {
	p := NewForallProfiler()
	// 2 PEs, wall 100µs: PE0 busy 80µs done at 90µs, PE1 busy 40µs
	// done at 50µs → busy = (80+40)/200 = 60%, wait = (10+50)/200 =
	// 30%, imbalance = 80/60 = 1.333.
	us := int64(1000) // ns per µs
	p.Record(7, 100*us, []int64{80 * us, 40 * us}, []int64{90 * us, 50 * us}, []int64{8, 4})
	p.Record(7, 100*us, []int64{80 * us, 40 * us}, []int64{90 * us, 50 * us}, []int64{8, 4})
	rep := p.Report()
	if len(rep) != 1 {
		t.Fatalf("%d sites, want 1", len(rep))
	}
	r := rep[0]
	if r.Line != 7 || r.PEs != 2 || r.Barriers != 2 || r.Tasks != 24 {
		t.Fatalf("header fields: %+v", r)
	}
	approx := func(got, want float64) bool { return got > want-0.01 && got < want+0.01 }
	if !approx(r.BusyPct, 60) {
		t.Errorf("busy %.2f%%, want 60%%", r.BusyPct)
	}
	if !approx(r.WaitPct, 30) {
		t.Errorf("wait %.2f%%, want 30%%", r.WaitPct)
	}
	if !approx(r.Imbalance, 80.0/60.0) {
		t.Errorf("imbalance %.3f, want %.3f", r.Imbalance, 80.0/60.0)
	}
	if len(r.PerPE) != 2 || r.PerPE[0].Tasks != 16 || r.PerPE[1].BusyUS != 80 {
		t.Errorf("per-PE rows: %+v", r.PerPE)
	}
	if !strings.Contains(r.String(), "imbalance=1.33") {
		t.Errorf("String() = %q", r.String())
	}

	// A second site sorts after by line.
	p.Record(3, 10*us, []int64{5 * us}, []int64{5 * us}, []int64{1})
	rep = p.Report()
	if len(rep) != 2 || rep[0].Line != 3 || rep[1].Line != 7 {
		t.Fatalf("sites not sorted by line: %+v", rep)
	}
}

// TestForallProfilerConcurrent: Record and Report race-free under -race.
func TestForallProfilerConcurrent(t *testing.T) {
	p := NewForallProfiler()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Record(9, 100, []int64{50, 50}, []int64{60, 60}, []int64{1, 1})
				_ = p.Report()
			}
		}()
	}
	wg.Wait()
	rep := p.Report()
	if len(rep) != 1 || rep[0].Barriers != 800 {
		t.Fatalf("after concurrent records: %+v", rep)
	}
}

// TestPromFormat: the text exposition output is exactly what a
// Prometheus scraper expects — HELP/TYPE heads, cumulative histogram
// buckets with a +Inf cap, seconds units.
func TestPromFormat(t *testing.T) {
	var b strings.Builder
	p := NewProm(&b)
	p.Counter("psl_requests_total", "Requests.", 42)
	p.Gauge("psl_queue_depth", "Queue depth.", 3)
	p.HistogramUS("psl_latency_seconds", "Latency.",
		[]int64{100, 1000}, []int64{5, 3}, 2, 10, 12345)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"# HELP psl_requests_total Requests.\n# TYPE psl_requests_total counter\npsl_requests_total 42\n",
		"# TYPE psl_queue_depth gauge\npsl_queue_depth 3\n",
		`psl_latency_seconds_bucket{le="0.0001"} 5`,
		`psl_latency_seconds_bucket{le="0.001"} 8`,
		`psl_latency_seconds_bucket{le="+Inf"} 10`,
		"psl_latency_seconds_sum 0.012345\n",
		"psl_latency_seconds_count 10\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}
