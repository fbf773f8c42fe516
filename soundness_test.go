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
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/transform"
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
// count ("" when they agree). foralls is how many par executed. A
// program that fails serially (serialErr) must fail the same way
// reversed.
func orderSensitive(ref, par *lang.Program, seed uint64, fn string, args []interp.Value) (diff string, foralls int, serialErr error) {
	want, wst, serialErr := interp.Run(ref, interp.Config{Engine: interp.EngineWalk, Seed: seed, Output: io.Discard}, fn, args...)
	got, gst, foralls, err := runReversed(par, seed, fn, args)
	switch {
	case err != nil || serialErr != nil:
		if fmt.Sprint(err) != fmt.Sprint(serialErr) {
			diff = fmt.Sprintf("reversed run: %v; serial run: %v", err, serialErr)
		}
	case got.String() != want.String():
		diff = fmt.Sprintf("value %s with foralls reversed, %s serially", got, want)
	case gst.Allocations != wst.Allocations:
		diff = fmt.Sprintf("%d allocations with foralls reversed, %d serially", gst.Allocations, wst.Allocations)
	}
	return diff, foralls, serialErr
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
			diff, foralls, err := orderSensitive(c.Program, auto.Program, p.seed, p.fn, p.args)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
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
	diff, foralls, err := orderSensitive(prog, prog, 0, "main", nil)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if foralls != 1 {
		t.Fatalf("%d foralls reversed, want 1", foralls)
	}
	if diff == "" {
		t.Fatal("a forall that writes p->next->data ran backwards unnoticed")
	}
	t.Log(diff)
}

// genDriver is the one entry point appended to every generated program
// (transform.GenLoopProgramPSL): two short lists, every generated
// procedure called on them in order (the %s), a checksum over both.
const genDriver = `
function OneWayList * gen_list(int n, int base) {
  var OneWayList *head = NULL;
  var int i = 0;
  while i < n {
    var OneWayList *t = new OneWayList;
    t->data = base + i;
    t->next = head;
    head = t;
    i = i + 1;
  }
  return head;
}
function int gen_main(int n) {
  var OneWayList *head = gen_list(5, 1);
  var OneWayList *other = gen_list(3, 100);
%s  return total(head) * 31 + total(other);
}
`

// TestGeneratedApprovedLoopsAreOrderInsensitive is the corpus probe
// over the shapes the corpus lacks: sibling and nested list loops,
// bodies calling procedures that hold approved loops, recursive
// callees, loop-carried scalars. A failing seed is a planner soundness
// bug. A generated procedure may be handed p->next at a list's last
// node and read through it; such a program fails serially, and the
// probe then requires the reversed run to fail with the same error.
func TestGeneratedApprovedLoopsAreOrderInsensitive(t *testing.T) {
	withApproval, failing := 0, 0
	for seed := int64(1); seed <= 50; seed++ {
		gen := transform.GenLoopProgramPSL(seed)
		var calls strings.Builder
		for i := 0; strings.Contains(gen, fmt.Sprintf("procedure f%d(", i)); i++ {
			fmt.Fprintf(&calls, "  f%d(head, other, n);\n", i)
		}
		src := gen + fmt.Sprintf(genDriver, calls.String())
		c, err := core.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		auto, err := c.AutoParallel(8)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if auto.Plan.Parallelized > 0 {
			withApproval++
		}
		diff, _, serialErr := orderSensitive(c.Program, auto.Program, 0, "gen_main", []interp.Value{interp.IntVal(3)})
		if serialErr != nil {
			failing++
		}
		if diff != "" {
			t.Errorf("seed %d: an approved loop depends on iteration order: %s\n%s\n%s", seed, diff, auto.Plan, src)
		}
	}
	t.Logf("%d of 50 seeds had at least one approved loop; %d fail serially, identically reversed", withApproval, failing)
}
