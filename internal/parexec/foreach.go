package parexec

import (
	"runtime"
	"sync"
)

// ForEach runs fn(0), …, fn(n-1) on pes PEs — the calling goroutine,
// which is PE 0, and pes−1 goroutines started for the call —
// self-scheduled with the package's Dynamic policy: the same machinery
// that schedules transformed forall loops, here applied to the
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
	asn := Dynamic(1).Assign(0, int64(n-1), pes)
	drain := func(pe int) {
		for {
			k, ok := asn.Next(pe)
			if !ok {
				return
			}
			fn(int(k))
		}
	}
	var wg sync.WaitGroup
	wg.Add(pes - 1)
	for pe := 1; pe < pes; pe++ {
		go func(pe int) {
			defer wg.Done()
			drain(pe)
		}(pe)
	}
	drain(0)
	wg.Wait()
}
