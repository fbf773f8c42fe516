package parexec

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEachCoversAllIndices: every index in [0, n) runs exactly once,
// for serial, modest, and oversubscribed PE counts.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, tc := range []struct{ pes, n int }{
		{1, 17},  // serial fallback
		{3, 100}, // fewer PEs than work
		{8, 5},   // more PEs than work
		{0, 64},  // pes<=0 means GOMAXPROCS
		{4, 0},   // no work at all
		{1, 0},   // nor anybody to do it
		{4, 1},   // single item
		{64, 3},  // far more PEs than work
	} {
		hits := make([]int64, tc.n)
		ForEach(tc.pes, tc.n, func(k int) {
			atomic.AddInt64(&hits[k], 1)
		})
		for k, h := range hits {
			if h != 1 {
				t.Errorf("pes=%d n=%d: index %d ran %d times, want 1", tc.pes, tc.n, k, h)
			}
		}
	}
}

// TestForEachConcurrent: with several PEs the callbacks genuinely
// overlap-safely aggregate — a race here would trip the -race runs of
// the planner, which batches depend.AnalyzeLoop calls through ForEach.
func TestForEachConcurrent(t *testing.T) {
	var sum int64
	const n = 10000
	ForEach(4, n, func(k int) {
		atomic.AddInt64(&sum, int64(k))
	})
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

// TestForEachCallerIsPE0: the calling goroutine takes a share of the
// work, so pes PEs are pes−1 goroutines beside it.
func TestForEachCallerIsPE0(t *testing.T) {
	const pes = 4
	baseline := int64(runtime.NumGoroutine())
	var peak atomic.Int64
	ForEach(pes, 256, func(int) {
		if n := int64(runtime.NumGoroutine()); n > peak.Load() {
			peak.Store(n)
		}
	})
	if got := peak.Load() - baseline; got > pes-1 {
		t.Errorf("%d goroutines started for %d PEs, want at most %d", got, pes, pes-1)
	}
}
