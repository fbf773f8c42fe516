// Package sched holds the repository's two parallel schedules, one per
// shape of work: ForEach shares out an index range from one cursor,
// and Stride walks a linked structure in strides, the shape of the
// paper's transformed loop (§4.3.3). In both the calling goroutine is
// PE 0 and pes−1 goroutines are started for the call and joined before
// it returns; pes ≤ 0 means GOMAXPROCS. The package imports nothing
// from this module, so every layer — the PE pool, the planner, the
// simulated machine and the native structures — can share it.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Cursor hands out the iterations of one range, next through to, one
// at a time to whoever asks first. It is ForEach's schedule, and the
// one schedule of parexec's pool.
type Cursor struct {
	next atomic.Int64
	to   int64
}

// Reset makes the cursor hand out from through to.
func (c *Cursor) Reset(from, to int64) {
	c.next.Store(from)
	c.to = to
}

// Take claims the next iteration; ok is false once the range is drained.
func (c *Cursor) Take() (k int64, ok bool) {
	k = c.next.Add(1) - 1
	return k, k <= c.to
}

// ForEach runs fn(0), …, fn(n-1) on pes PEs, each taking the next index
// from one shared Cursor, so a PE that finishes early takes more (e.g.
// the planner testing independent loops in parallel). fn must be safe
// to call concurrently; ForEach returns when every call has completed.
func ForEach(pes, n int, fn func(k int)) {
	if n <= 0 {
		return
	}
	pes = min(procs(pes), n)
	if pes == 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var c Cursor
	c.Reset(0, int64(n-1))
	drain := func() {
		for k, ok := c.Take(); ok; k, ok = c.Take() {
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

// Stride runs fn on every node of the chain that starts at head and
// follows next, on pes PEs: PE i starts at node i (the paper's FOR2
// skip) and after each fn advances pes nodes (FOR1's advance), so it
// visits nodes i, i+pes, i+2·pes, …. No PE waits for another between
// trips: fn must touch only the node it is given, the condition under
// which the dependence test approves such a loop. A PE whose start lies
// past the end of the chain is not started.
func Stride[T any](pes int, head *T, next func(*T) *T, fn func(*T)) {
	pes = procs(pes)
	walk := func(p *T) {
		for p != nil {
			fn(p)
			for k := 0; k < pes && p != nil; k++ {
				p = next(p)
			}
		}
	}
	var wg sync.WaitGroup
	start := head
	for pe := 1; pe < pes && start != nil; pe++ {
		if start = next(start); start != nil {
			wg.Add(1)
			go func(p *T) {
				defer wg.Done()
				walk(p)
			}(start)
		}
	}
	walk(head)
	wg.Wait()
}

// procs is the PE count pes asks for: pes ≤ 0 means GOMAXPROCS.
func procs(pes int) int {
	if pes <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return pes
}
