package analysis_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/lang"
)

// costShapes are two straight-line shapes with n pointer handles, whose
// analysis turns cubic if a declaration or a load costs a copy of the
// matrix: n pointer declarations before a list loop, and one chain of n
// field accesses, which normalization turns into n pointer temporaries.
var costShapes = []struct {
	name string
	src  func(n int) string
}{
	{"declarations", func(n int) string {
		var b strings.Builder
		b.WriteString("type L [X] { int v; L *next is uniquely forward along X; };\nprocedure f(L *h) {\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "  var L *p%d = h;\n", i)
		}
		b.WriteString("  var L *r = h;\n  while r != NULL { r->v = 1; r = r->next; }\n}\n")
		return b.String()
	}},
	{"chain", func(n int) string {
		return "type L [X] { int v; L *next is uniquely forward along X; };\n" +
			"procedure f(L *h) {\n  var L *q = NULL;\n  q = h" + strings.Repeat("->next", n) + ";\n}\n"
	}},
}

// analyzeBytes returns the bytes one AnalyzeAll of src allocates (the
// least of three runs).
func analyzeBytes(t *testing.T, src string) uint64 {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	least := ^uint64(0)
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := analysis.New(prog).AnalyzeAll(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestAnalysisCostBounded: a function's path matrices are sized once, so
// a straight-line declaration or load costs O(n) and the whole analysis
// O(n²) in its pointer handles. Doubling the handles from 100 to 200
// may grow AnalyzeAll's allocated bytes at most 4.5× (a cubic analysis
// grows them about 8×). Bytes, not time, so the gate holds on any host.
func TestAnalysisCostBounded(t *testing.T) {
	const maxGrowth = 4.5
	for _, shape := range costShapes {
		small, large := analyzeBytes(t, shape.src(100)), analyzeBytes(t, shape.src(200))
		growth := float64(large) / float64(small)
		t.Logf("%s: %d B at n=100, %d B at n=200: ×%.2f", shape.name, small, large, growth)
		if growth > maxGrowth {
			t.Errorf("%s: AnalyzeAll's bytes grow ×%.2f from 100 to 200 handles, want ≤ ×%.1f", shape.name, growth, maxGrowth)
		}
	}
}
