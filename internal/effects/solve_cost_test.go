package effects

import (
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/lang"
)

// costGates opts in to TestEffectsSolveCostLinear's wall-clock ratio;
// CI's cost-gate step passes it.
var costGates = flag.Bool("cost-gates", false, "also assert the analyzer's wall-clock cost ratio (a timing gate; CI's cost-gate step)")

// ringPSL is n procedures that call each other in a ring, one
// recursive component: p0 calls p1, ..., p(n-1) calls p0.
func ringPSL(n int) string {
	var b strings.Builder
	b.WriteString("type L [X] { int v; L *next is uniquely forward along X; };\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "procedure p%d(L *x) {\n  if x != NULL {\n    x->v = x->v + 1;\n    p%d(x->next);\n  }\n}\n", i, (i+1)%n)
	}
	return b.String()
}

// TestEffectsSolveCostLinear: closing the summaries of one recursive
// component costs the same per member at 4x the members. No member of
// the ring is walked more often at one size than at the other (the
// work list re-queues a member once per growth of a callee's summary,
// which does not depend on the ring's length); under -cost-gates the
// time per member at 4n must stay within 1.5x of that at n, which a
// solve that scans the component's callee lists and its queue on every
// walk does not (it grew about 3.4x per doubling).
func TestEffectsSolveCostLinear(t *testing.T) {
	const n = 200
	small, large := lang.MustParse(ringPSL(n)), lang.MustParse(ringPSL(4*n))
	mostWalks := func(prog *lang.Program) int {
		a := NewAnalyzer(prog)
		if len(a.comps) != 1 {
			t.Fatalf("the ring of %d is %d components, want 1", len(prog.Funcs), len(a.comps))
		}
		most := 0
		for _, w := range a.walks {
			most = max(most, w)
		}
		return most
	}
	ws, wl := mostWalks(small), mostWalks(large)
	t.Logf("most walks of a member: %d at %d, %d at %d", ws, n, wl, 4*n)
	if ws != wl {
		t.Errorf("a member is walked up to %d times in a ring of %d but up to %d in a ring of %d", ws, n, wl, 4*n)
	}

	if !*costGates {
		return
	}
	solve := func(prog *lang.Program, k int) time.Duration {
		start := time.Now()
		for i := 0; i < k; i++ {
			NewAnalyzer(prog)
		}
		return time.Since(start)
	}
	var tSmall, tLarge time.Duration
	for round := 0; round < 5; round++ {
		tSmall += solve(small, 8)
		tLarge += solve(large, 2)
	}
	perSmall := float64(tSmall) / (5 * 8 * n)
	perLarge := float64(tLarge) / (5 * 2 * 4 * n)
	t.Logf("per member: %.0f ns at %d, %.0f ns at %d (%.2fx)", perSmall, n, perLarge, 4*n, perLarge/perSmall)
	if perLarge > 1.5*perSmall {
		t.Errorf("a member costs %.2fx as much to solve in a ring of %d as in one of %d (want at most 1.5x): %.0f ns vs %.0f ns",
			perLarge/perSmall, 4*n, n, perLarge, perSmall)
	}
}

// fanPSL is n empty procedures and a procedure main that calls each of
// them twice: p0 ... p(n-1), then p(n-1) ... p0.
func fanPSL(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "procedure p%d() { }\n", i)
	}
	b.WriteString("procedure main() {\n")
	for i := 0; i < 2*n; i++ {
		fmt.Fprintf(&b, "  p%d();\n", min(i, 2*n-1-i))
	}
	b.WriteString("}\n")
	return b.String()
}

// TestEffectsScanCostLinear: collecting the callees of a procedure that
// calls k distinct procedures costs the same per callee at 4k. The list
// holds each callee once, in first-call order; under -cost-gates the
// time per callee at 4k must stay within 1.5x of that at k, which a scan
// that searches the callees found so far for each call does not (about
// 3x, 2-vCPU host, go1.24).
func TestEffectsScanCostLinear(t *testing.T) {
	const k = 1000
	small, large := lang.MustParse(fanPSL(k)), lang.MustParse(fanPSL(4*k))
	a := NewAnalyzer(large)
	got := a.callees[len(large.Funcs)-1] // main's
	if len(got) != 4*k {
		t.Fatalf("main calls %d distinct procedures, scan found %d", 4*k, len(got))
	}
	for i, c := range got {
		if name, want := large.Funcs[c].Name, fmt.Sprintf("p%d", i); name != want {
			t.Fatalf("callee %d is %s, want %s (first-call order)", i, name, want)
		}
	}

	if !*costGates {
		return
	}
	// The best of several rounds per size: one scan is tens of
	// microseconds, so a single round reads the machine's noise.
	perCallee := func(prog *lang.Program, n, reps int) float64 {
		a := NewAnalyzer(prog)
		main := prog.Funcs[len(prog.Funcs)-1]
		best := time.Duration(1 << 62)
		for round := 0; round < 9; round++ {
			start := time.Now()
			for i := 0; i < reps; i++ {
				a.scan(main)
			}
			best = min(best, time.Since(start))
		}
		return float64(best) / float64(reps*n)
	}
	perSmall, perLarge := perCallee(small, k, 32), perCallee(large, 4*k, 8)
	t.Logf("per callee: %.0f ns at %d, %.0f ns at %d (%.2fx)", perSmall, k, perLarge, 4*k, perLarge/perSmall)
	if perLarge > 1.5*perSmall {
		t.Errorf("a callee costs %.2fx as much to scan among %d as among %d (want at most 1.5x): %.0f ns vs %.0f ns",
			perLarge/perSmall, 4*k, k, perLarge, perSmall)
	}
}
