// The admission gate: a count of running requests in front of one
// bounded FIFO of waiting ones. A request runs on the goroutine that
// brought it — the gate starts none. enter lets the caller through at
// once while fewer than `workers` requests run; otherwise the caller
// parks until a leaving request hands it the slot, or — the queue full —
// is rejected with ErrBusy without blocking. close() drains: every
// request admitted, running or parked, is answered first.
package serve

import (
	"context"
	"errors"
	"sync"
)

// errAbandoned is enter's answer to a waiter whose ctx died while it
// was parked. It was given no slot, so it must not call leave.
var errAbandoned = errors.New("serve: cancelled while queued")

// waiter is one parked request: leave, under the gate's mutex, gives it
// the slot or — its ctx dead — skips it, then closes wake.
type waiter struct {
	ctx     context.Context
	wake    chan struct{}
	skipped bool
}

type gate struct {
	mu     sync.Mutex
	idle   *sync.Cond // tells close that the last request left
	closed bool

	// running counts requests between enter and leave. Waiters exist
	// only while it equals workers: enter parks nobody below that, and
	// leave refills the slot it frees before it lets go of mu.
	running int
	waiters []*waiter // FIFO

	workers int // requests that may run at once
	depth   int // queue capacity
}

func newGate(workers, depth int) *gate {
	g := &gate{workers: workers, depth: depth}
	g.idle = sync.NewCond(&g.mu)
	return g
}

// enter admits the caller — at once, or after a wait in the FIFO — or
// rejects it without blocking. A nil return is a held slot: the caller
// runs its request and then calls leave, exactly once.
func (g *gate) enter(ctx context.Context) error {
	w, err := g.admit(ctx)
	if w == nil {
		return err
	}
	<-w.wake
	if w.skipped {
		return errAbandoned
	}
	return nil
}

// admit is enter's critical section: (nil, nil) is a slot taken,
// (nil, err) a rejection, and a waiter is parked for leave to wake.
func (g *gate) admit(ctx context.Context) (*waiter, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrDraining
	}
	if g.running < g.workers {
		g.running++
		return nil, nil
	}
	if len(g.waiters) >= g.depth {
		return nil, ErrBusy
	}
	w := &waiter{ctx: ctx, wake: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	return w, nil
}

// leave gives the caller's slot to the longest-waiting live waiter,
// answering the dead ones it passes on the way.
func (g *gate) leave() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.running--
	for len(g.waiters) > 0 && g.running < g.workers {
		w := g.waiters[0]
		g.waiters[0] = nil
		g.waiters = g.waiters[1:]
		w.skipped = w.ctx.Err() != nil
		if !w.skipped {
			g.running++
		}
		close(w.wake)
	}
	if g.closed && g.running == 0 {
		g.idle.Broadcast()
	}
}

// close stops admission and returns once every request that was
// running or parked has left.
func (g *gate) close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	for g.running > 0 {
		g.idle.Wait()
	}
}

// QueueStats is the gate section of Stats.
type QueueStats struct {
	Depth    int `json:"depth"` // requests waiting (snapshot)
	Capacity int `json:"capacity"`
	Running  int `json:"running"` // requests executing (snapshot)
	Workers  int `json:"workers"` // requests that may execute at once
}

func (g *gate) stats() QueueStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return QueueStats{Depth: len(g.waiters), Capacity: g.depth, Running: g.running, Workers: g.workers}
}
