// Planner soundness, first leg (ROADMAP item 1(a)): the paper's
// deliverable is a safety verdict — an approved loop's iterations are
// independent — and independent iterations give the same answer in any
// order. The engine grid and the plan goldens pin what the planner said;
// this file runs what it approved in the order a serial run never uses
// and compares with the serial run of the program it was handed.
package repro

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lang"
)

// runReversed runs fn on the walking oracle with every forall window's
// iterations executed last to first, one after another, each on a fork
// of the root that discards its output (so only what an iteration
// leaves in the heap reaches the result). It returns the value, the
// run's stats and the number of foralls the scheduler was handed.
func runReversed(prog *lang.Program, seed uint64, fn string, args []interp.Value) (interp.Value, interp.Stats, int, error) {
	var root *interp.Interp
	foralls := 0
	root = interp.New(prog, interp.Config{Engine: interp.EngineWalk, Seed: seed, Output: io.Discard,
		Forall: func(_ lang.Pos, from, to int64, run func(w *interp.Interp, k int64) error) error {
			foralls++
			for k := to; k >= from; k-- {
				if err := run(root.Fork(io.Discard), k); err != nil {
					return err
				}
			}
			return nil
		}})
	v, err := root.Call(fn, args...)
	return v, root.Stats(), foralls, err
}

// orderSensitive is the probe: it runs ref serially on the walker —
// a forall in place, in index order — and par with every forall
// reversed, and describes how the two disagree on value or allocation
// count ("" when they agree). foralls is how many par executed.
func orderSensitive(t *testing.T, ref, par *lang.Program, seed uint64, fn string, args []interp.Value) (diff string, foralls int) {
	t.Helper()
	want, wst, _ := runEngine(t, ref, interp.Config{Engine: interp.EngineWalk, Seed: seed}, fn, args)
	got, gst, foralls, err := runReversed(par, seed, fn, args)
	switch {
	case err != nil:
		diff = fmt.Sprintf("reversed run failed: %v", err)
	case got.String() != want.String():
		diff = fmt.Sprintf("value %s with foralls reversed, %s serially", got, want)
	case gst.Allocations != wst.Allocations:
		diff = fmt.Sprintf("%d allocations with foralls reversed, %d serially", gst.Allocations, wst.Allocations)
	}
	return diff, foralls
}

// TestApprovedLoopsAreOrderInsensitive: for every corpus program, what
// core.AutoParallel approved computes the serial program's value with
// the serial program's allocations when each strip runs backwards.
func TestApprovedLoopsAreOrderInsensitive(t *testing.T) {
	for _, p := range equivalenceCorpus(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			c, err := core.Compile(p.src)
			if err != nil {
				t.Fatal(err)
			}
			auto, err := c.AutoParallel(8)
			if err != nil {
				t.Fatal(err)
			}
			diff, foralls := orderSensitive(t, c.Program, auto.Program, p.seed, p.fn, p.args)
			if diff != "" {
				t.Errorf("an approved loop depends on iteration order: %s\n%s", diff, auto.Plan)
			}
			if auto.Plan.Parallelized > 0 && foralls == 0 {
				t.Errorf("the plan approved %d loops and the run reached no forall: the probe saw nothing", auto.Plan.Parallelized)
			}
			t.Logf("%d approved loops, %d foralls reversed", auto.Plan.Parallelized, foralls)
		})
	}
}

// carriedForall is a loop the planner would never approve, written as a
// forall by hand: iteration i stores into the node iteration i+1 reads.
const carriedForall = `
type OneWayList [X]
{ int data;
  OneWayList *next is uniquely forward along X;
};

function int main() {
  var OneWayList *head = NULL;
  var int i = 0;
  while i < 8 {
    var OneWayList *t = new OneWayList;
    t->next = head;
    head = t;
    i = i + 1;
  }
  forall k = 0 to 6 {
    var OneWayList *p = head;
    var int j = 0;
    while j < k {
      p = p->next;
      j = j + 1;
    }
    p->next->data = p->data + 1;
  }
  var int s = 0;
  var OneWayList *q = head;
  while q != NULL {
    s = s + q->data;
    q = q->next;
  }
  return s;
}
`

// TestOrderProbeCanFail: the probe flags a forall whose iterations are
// not independent, so a green TestApprovedLoopsAreOrderInsensitive
// means something.
func TestOrderProbeCanFail(t *testing.T) {
	prog, err := lang.Parse(carriedForall)
	if err != nil {
		t.Fatal(err)
	}
	diff, foralls := orderSensitive(t, prog, prog, 0, "main", nil)
	if foralls != 1 {
		t.Fatalf("%d foralls reversed, want 1", foralls)
	}
	if diff == "" {
		t.Fatal("a forall that writes p->next->data ran backwards unnoticed")
	}
	t.Log(diff)
}
