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
