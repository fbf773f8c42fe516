// The admission gate: a count of running requests in front of bounded
// per-tenant FIFOs of waiting ones. A request runs on the goroutine
// that brought it — the gate starts none. enter lets the caller through
// at once while fewer than `workers` requests run; otherwise the caller
// parks until a leaving request hands it the slot, or is rejected
// without blocking: ErrBusy when the global queue is full, ErrTenantBusy
// when its tenant's own quota is, even if the global queue has room —
// so one tenant cannot starve the fleet. Hand-off is round-robin over
// the queued tenants' FIFO heads, so a tenant with one queued request
// waits behind at most one request per other active tenant, not behind
// a flood. Requests without a tenant share the "" tenant. close()
// drains: every request admitted, running or parked, is answered first.
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

// tenantQ is one tenant's FIFO of waiters. It exists only while the
// tenant has requests parked, so the gate's memory is bounded by queued
// work, not by tenant history.
type tenantQ struct {
	name    string
	waiters []*waiter
}

type gate struct {
	mu     sync.Mutex
	idle   *sync.Cond // tells close that the last request left
	closed bool

	// running counts requests between enter and leave. Waiters exist
	// only while it equals workers: enter parks nobody below that, and
	// leave refills the slot it frees before it lets go of mu.
	running int
	queues  map[string]*tenantQ
	order   []*tenantQ // tenants with waiters, in round-robin order
	next    int        // round-robin cursor into order
	queued  int        // total waiters across tenants

	workers   int // requests that may run at once
	depth     int // global queue capacity
	perTenant int // per-tenant queue capacity (the admission quota)

	tenantRejected int64 // quota rejections
}

func newGate(workers, depth, perTenant int) *gate {
	if perTenant <= 0 || perTenant > depth {
		perTenant = depth
	}
	g := &gate{queues: make(map[string]*tenantQ), workers: workers, depth: depth, perTenant: perTenant}
	g.idle = sync.NewCond(&g.mu)
	return g
}

// enter admits the caller — at once, or after a wait in its tenant's
// FIFO — or rejects it without blocking. A nil return is a held slot:
// the caller runs its request and then calls leave, exactly once.
func (g *gate) enter(ctx context.Context, tenant string) error {
	w, err := g.admit(ctx, tenant)
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
func (g *gate) admit(ctx context.Context, tenant string) (*waiter, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrDraining
	}
	if g.running < g.workers {
		g.running++
		return nil, nil
	}
	if g.queued >= g.depth {
		return nil, ErrBusy
	}
	q := g.queues[tenant]
	if q != nil && len(q.waiters) >= g.perTenant {
		g.tenantRejected++
		return nil, ErrTenantBusy
	}
	if q == nil {
		// Seat the tenant at the back of the rotation: it is served
		// after each already-active tenant gets one turn.
		q = &tenantQ{name: tenant}
		g.queues[tenant] = q
		g.order = append(g.order, q)
	}
	w := &waiter{ctx: ctx, wake: make(chan struct{})}
	q.waiters = append(q.waiters, w)
	g.queued++
	return w, nil
}

// leave gives the caller's slot to the next live waiter in round-robin
// tenant order, answering the dead ones it passes on the way.
func (g *gate) leave() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.running--
	for g.queued > 0 && g.running < g.workers {
		if g.next >= len(g.order) {
			g.next = 0
		}
		q := g.order[g.next]
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		g.queued--
		if len(q.waiters) == 0 {
			// Unseat the tenant; next now indexes the following one.
			g.order = append(g.order[:g.next], g.order[g.next+1:]...)
			delete(g.queues, q.name)
		} else {
			g.next++
		}
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
	// Tenants is the number of tenants with waiting requests (snapshot);
	// TenantQuota the per-tenant queue capacity; TenantRejected the
	// admissions refused because the tenant's own queue was full.
	Tenants        int   `json:"tenants"`
	TenantQuota    int   `json:"tenant_quota"`
	TenantRejected int64 `json:"tenant_rejected"`
}

func (g *gate) stats() QueueStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return QueueStats{
		Depth:          g.queued,
		Capacity:       g.depth,
		Running:        g.running,
		Workers:        g.workers,
		Tenants:        len(g.queues),
		TenantQuota:    g.perTenant,
		TenantRejected: g.tenantRejected,
	}
}
