package serve

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// parkAt queues one request per label at g, in order — each on its own
// goroutine, as requests arrive — and returns once all are parked. An
// admitted request appends its label to order and leaves; the caller
// holds g's only slot, so nothing runs before it leaves, and then one
// request at a time.
func parkAt(t *testing.T, g *gate, wg *sync.WaitGroup, order *[]string, labels ...string) {
	t.Helper()
	for _, label := range labels {
		label := label
		depth := g.stats().Depth
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.enter(context.Background()); err != nil {
				t.Errorf("enter %s: %v", label, err)
				return
			}
			*order = append(*order, label) // serialized by the one slot
			g.leave()
		}()
		waitFor(t, label+" parked", func() bool { return g.stats().Depth == depth+1 })
	}
}

// TestGateFIFO: with the one slot held, queued requests run in arrival
// order; one past the queue's capacity is refused with ErrBusy without
// blocking; and the gate is idle once the last request leaves.
func TestGateFIFO(t *testing.T) {
	g := newGate(1, 3)
	defer g.close()
	if err := g.enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	order := []string{"blocker"}
	parkAt(t, g, &wg, &order, "1", "2", "3")
	if err := g.enter(context.Background()); err != ErrBusy {
		t.Errorf("enter with the queue full: err = %v, want ErrBusy", err)
	}
	g.leave()
	wg.Wait()

	if got, want := strings.Join(order, " "), "blocker 1 2 3"; got != want {
		t.Errorf("dispatch order %q, want %q", got, want)
	}
	if st := g.stats(); st.Running != 0 || st.Depth != 0 {
		t.Errorf("gate not idle after the last request left: %+v", st)
	}
}
