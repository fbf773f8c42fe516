package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// parkAt queues one request per label ("tenant:n") at g, in order —
// each on its own goroutine, as requests arrive — and returns once all
// are parked. An admitted request appends its label to order and
// leaves; the caller holds g's only slot, so nothing runs before it
// leaves, and then one request at a time.
func parkAt(t *testing.T, g *gate, wg *sync.WaitGroup, order *[]string, labels ...string) {
	t.Helper()
	for _, label := range labels {
		label := label
		depth := g.stats().Depth
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.enter(context.Background(), strings.SplitN(label, ":", 2)[0]); err != nil {
				t.Errorf("enter %s: %v", label, err)
				return
			}
			*order = append(*order, label) // serialized by the one slot
			g.leave()
		}()
		waitFor(t, label+" parked", func() bool { return g.stats().Depth == depth+1 })
	}
}

// TestTenantFairQueuing: with the one slot held, tenant A floods the
// queue and tenants B and C each queue one request; hand-off is
// round-robin across tenants, so B and C run after A's *first* queued
// request, not after A's whole backlog.
func TestTenantFairQueuing(t *testing.T) {
	g := newGate(1, 16, 16)
	defer g.close()
	if err := g.enter(context.Background(), "A"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	order := []string{"A:blocker"}
	parkAt(t, g, &wg, &order, "A:1", "A:2", "A:3", "B:1", "C:1")
	g.leave()
	wg.Wait()

	want := []string{"A:blocker", "A:1", "B:1", "C:1", "A:2", "A:3"}
	if got := strings.Join(order, " "); got != strings.Join(want, " ") {
		t.Errorf("dispatch order %q, want %q", got, strings.Join(want, " "))
	}
	if st := g.stats(); st.Running != 0 || st.Depth != 0 || st.Tenants != 0 {
		t.Errorf("gate not idle after the last request left: %+v", st)
	}
}

// TestTenantQuota: a tenant at its per-tenant queue cap is rejected
// with ErrTenantBusy while other tenants (and the global queue) still
// have room.
func TestTenantQuota(t *testing.T) {
	g := newGate(1, 8, 2)
	defer g.close()
	if err := g.enter(context.Background(), "X"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var order []string
	parkAt(t, g, &wg, &order, "A:1", "A:2")
	if err := g.enter(context.Background(), "A"); err != ErrTenantBusy {
		t.Errorf("over-quota enter err = %v, want ErrTenantBusy", err)
	}
	parkAt(t, g, &wg, &order, "B:1") // under its own quota: admitted to the queue

	st := g.stats()
	if st.TenantRejected != 1 || st.Tenants != 2 || st.TenantQuota != 2 {
		t.Errorf("stats %+v, want 1 quota rejection across 2 queued tenants", st)
	}
	g.leave()
	wg.Wait()
}

// TestTenantQuotaHTTP stages a full tenant queue through the real
// server and asserts the wire contract: 429 with Retry-After for the
// over-quota tenant, while another tenant's request is still admitted.
func TestTenantQuotaHTTP(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8, TenantQueueDepth: 1, MaxSteps: 1 << 40})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	slow := slowRequest(400)
	slow.Tenant = "a"
	go func() { defer wg.Done(); s.Run(context.Background(), slow) }()
	waitFor(t, "worker busy", func() bool { return s.Stats().Queue.Running == 1 })
	go func() { defer wg.Done(); s.Run(context.Background(), slow) }()
	waitFor(t, "tenant a queued", func() bool { return s.Stats().Queue.Depth == 1 })

	resp, status, hdr, err := postRun(context.Background(), ts.Client(), ts.URL,
		Request{Source: addSrc, Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Errorf("over-quota status = %d, want 429 (%+v)", status, resp)
	}
	if hdr.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After")
	}
	if st := s.Stats().Queue; st.TenantRejected != 1 {
		t.Errorf("TenantRejected = %d, want 1", st.TenantRejected)
	}

	okResp, status, _, err := postRun(context.Background(), ts.Client(), ts.URL,
		Request{Source: addSrc, Tenant: "b"})
	if err != nil || status != http.StatusOK || !okResp.OK {
		t.Errorf("tenant b request: %v %d %+v — should be admitted past tenant a's backlog", err, status, okResp)
	}
	wg.Wait()
}
