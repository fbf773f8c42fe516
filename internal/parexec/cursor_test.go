package parexec

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/interp"
	"repro/internal/lang"
)

// TestPolicyCoverage: the pool's one schedule, the shared cursor, hands
// out each iteration of a forall exactly once, for ranges smaller than,
// equal to, larger than and not divisible by the PE count, over several
// foralls in a row (the cursor is reset, not rebuilt) — both with live
// workers racing the interpreting goroutine for iterations and with
// workers that never turn up, whose shares the interpreting goroutine
// closes, running every iteration itself.
func TestPolicyCoverage(t *testing.T) {
	root := interp.New(lang.MustParse(`procedure main() { }`), interp.Config{})
	for _, tc := range []struct {
		from, to int64
		pes      int
	}{
		{0, 0, 4}, {0, 2, 4}, {0, 3, 4}, {0, 14, 4}, {5, 21, 3}, {0, 63, 8}, {0, 6, 1},
	} {
		for _, late := range []bool{false, true} {
			name := fmt.Sprintf("[%d,%d] pes=%d late=%t", tc.from, tc.to, tc.pes, late)
			rs := &runState{pes: tc.pes}
			if late {
				rs.self = root.Fork(nil)
				rs.workers = make([]worker, tc.pes-1)
			} else {
				rs.start(root)
			}
			for round := 0; round < 3; round++ {
				hits := make([]atomic.Int32, tc.to-tc.from+1)
				onSelf := atomic.Int64{}
				rs.forall(lang.Pos{}, tc.from, tc.to, func(w *interp.Interp, k int64) error {
					hits[k-tc.from].Add(1)
					if w == rs.self {
						onSelf.Add(1)
					}
					return nil
				})
				for i := range hits {
					if n := hits[i].Load(); n != 1 {
						t.Errorf("%s round %d: iteration %d handed out %d times", name, round, tc.from+int64(i), n)
					}
				}
				if late && onSelf.Load() != int64(len(hits)) {
					t.Errorf("%s round %d: the interpreting goroutine ran %d of %d iterations, want all",
						name, round, onSelf.Load(), len(hits))
				}
			}
			if !late {
				rs.stop()
			}
		}
	}
}
