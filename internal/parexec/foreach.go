package parexec

import (
	"runtime"
	"sync"
)

// ForEach runs fn(0), …, fn(n-1) on pes PEs — the calling goroutine,
// which is PE 0, and pes−1 goroutines started for the call — each
// taking the next index from one shared cursor, the schedule of the
// pool that runs transformed forall loops, here applied to the
// toolchain's own work (e.g. the planner testing independent loops in
// parallel). fn must be safe to call concurrently; ForEach returns when
// every call has completed. pes ≤ 0 means GOMAXPROCS.
func ForEach(pes, n int, fn func(k int)) {
	if n <= 0 {
		return
	}
	if pes <= 0 {
		pes = runtime.GOMAXPROCS(0)
	}
	if pes > n {
		pes = n
	}
	if pes == 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var c cursor
	c.reset(0, int64(n-1))
	drain := func() {
		for k, ok := c.take(); ok; k, ok = c.take() {
			fn(int(k))
		}
	}
	var wg sync.WaitGroup
	wg.Add(pes - 1)
	for pe := 1; pe < pes; pe++ {
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
}
