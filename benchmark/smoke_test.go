package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalog checks the metric and workload tables against the limits
// the driver enforces and against each other: every prediction names an
// end-to-end metric and a workload that exist.
func TestCatalog(t *testing.T) {
	ws := workloads()
	if len(ws) < 2 || len(ws) > 8 {
		t.Errorf("%d workloads, want 2..8", len(ws))
	}
	if len(endToEndDefs) > 16 || len(perLayerDefs) > 128 {
		t.Errorf("%d end-to-end and %d layer metrics, limits are 16 and 128", len(endToEndDefs), len(perLayerDefs))
	}
	names := map[string]bool{}
	workloadNames := map[string]bool{}
	for _, w := range ws {
		if !nameRE.MatchString(w.name) || names[w.name] {
			t.Errorf("workload name %q is malformed or reused", w.name)
		}
		names[w.name], workloadNames[w.name] = true, true
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, want 1..200", w.name, len(w.why))
		}
		sum := 0.0
		for _, s := range w.share {
			sum += s
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: phase shares sum to %g", w.name, sum)
		}
	}
	endToEnd := map[string]bool{}
	hasSetup := false
	for _, d := range endToEndDefs {
		endToEnd[d.Name] = true
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if !nameRE.MatchString(d.Name) || names[d.Name] {
			t.Errorf("metric name %q is malformed or reused", d.Name)
		}
		names[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
		if d.Doc == "" {
			t.Errorf("%s: no definition", d.Name)
		}
	}
	for _, d := range perLayerDefs {
		if len(d.Moves) == 0 {
			t.Errorf("%s: predicts no end-to-end metric", d.Name)
		}
		for _, m := range d.Moves {
			if !endToEnd[m.metric] || !workloadNames[m.workload] {
				t.Errorf("%s: predicts %s on %s, which does not exist", d.Name, m.metric, m.workload)
			}
		}
	}
}

// TestManifest checks that BENCHMARK.json says what the tables say.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("BENCHMARK.json does not parse: %v", err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the default -seconds is %d", m.RunSeconds, defaultSeconds)
	}
	ws := workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, m.Workloads[i].Name, w.name)
		}
	}
	if len(m.EndToEnd) != len(endToEndDefs) || len(m.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark %d+%d",
			len(m.EndToEnd), len(m.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	for i, d := range endToEndDefs {
		if g := m.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the benchmark has %s [%s, %s, %g]", i, g, d.Name, d.Unit, d.Better, d.Bound)
		}
	}
	for i, d := range perLayerDefs {
		if g := m.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the benchmark has %s [%s, %s]", i, g, d.Name, d.Unit, d.Better)
		}
	}
}

// TestWorkloads runs every workload briefly — one set-up and a pass of
// a fraction of a second — and requires every op to match its
// reference and every end-to-end metric to come out positive. No time
// is asserted.
func TestWorkloads(t *testing.T) {
	env := newEnvironment(expectedSeed, 0.6)
	for _, w := range workloads() {
		b, err := setUp(w, env)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		p := b.runPass(nil, env.Seconds)
		b.close()
		if b.failed > 0 || b.attempted < 10 {
			t.Errorf("%s: %d of %d ops failed; first: %v", w.name, b.failed, b.attempted, b.firstErr)
		}
		got := p.endToEnd()
		for _, d := range endToEndDefs {
			if d.Name == "setup_s" {
				continue
			}
			if m, ok := got[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", w.name, d.Name, m)
			}
		}
		o := &outcome{workload: w.name, env: env, refs: b.refs, oracle: b.oracle}
		if checkExpected(o, false); !o.correct() {
			t.Errorf("%s: %v", w.name, o.firstErr)
		}
	}
}

// TestTraced runs the traced mode on the cheapest workload: every
// layer metric is reported, the exact counts repeat, and the span file
// is written and parses.
func TestTraced(t *testing.T) {
	env := newEnvironment(expectedSeed, 0.3)
	dir := t.TempDir()
	var w *workload
	for _, c := range workloads() {
		if c.name == "serve_mix" {
			w = c
		}
	}
	o := runTraced(w, env, dir)
	if !o.correct() {
		t.Fatalf("%d of %d ops failed; first: %v", o.failed, o.attempted, o.firstErr)
	}
	for _, d := range perLayerDefs {
		if m, ok := o.metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: not reported, or in %q instead of %q", d.Name, m.Unit, d.Unit)
		}
	}
	if len(o.metrics) != len(perLayerDefs) {
		t.Errorf("%d metrics reported, %d defined", len(o.metrics), len(perLayerDefs))
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace-serve_mix.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	roots := 0
	for _, sp := range tf.Spans {
		if sp.Parent == 0 {
			roots++
		} else if tf.Spans[sp.Parent-1].Op != sp.Op {
			t.Fatalf("span %d (%s) has op %d, its parent op %d", sp.ID, sp.Name, sp.Op, tf.Spans[sp.Parent-1].Op)
		}
	}
	if roots == 0 || tf.SelfUS["serve.http"] <= 0 || tf.SelfUS["lang.parse"] <= 0 {
		t.Errorf("trace has %d root spans, self time serve.http=%g lang.parse=%g", roots, tf.SelfUS["serve.http"], tf.SelfUS["lang.parse"])
	}
}
