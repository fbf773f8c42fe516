package parexec_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/obs"
)

// sweepSrc alternates serial work — a print and an allocation — with a
// sweep the kernel classifier vectorizes, so a budget can run out with
// some strips done, some to come, and one in front of it.
const sweepSrc = `
type Cell [L]
{ int v;
  int q;
  Cell *next is uniquely forward along L;
};

function Cell * build(int n) {
  var Cell *head = NULL;
  var int i = 0;
  while i < n {
    var Cell *t = new Cell;
    t->v = i;
    t->q = 0;
    t->next = head;
    head = t;
    i = i + 1;
  }
  return head;
}

procedure sweep(Cell *head, int c) {
  var Cell *p = head;
  while p != NULL {
    p->q = p->q + p->v * c;
    p = p->next;
  }
}

function int main(int n, int rounds) {
  var Cell *head = build(n);
  var int r = 0;
  while r < rounds {
    print("round", r);
    sweep(head, r);
    var Cell *spare = new Cell;
    spare->v = r;
    r = r + 1;
  }
  return head->q;
}
`

// cancelOnLine is a run's output writer that cancels the run's context
// when the program prints a chosen line ("" = never): a cancellation
// that arrives at the same statement whatever the engine and the
// machine's speed.
type cancelOnLine struct {
	buf    bytes.Buffer // not embedded: its WriteString would bypass Write
	line   string
	cancel context.CancelFunc
}

func (w *cancelOnLine) Write(p []byte) (int, error) {
	n, err := w.buf.Write(p)
	if w.line != "" && strings.Contains(w.buf.String(), w.line) {
		w.cancel()
	}
	return n, err
}

// TestBudgetsMidStrip: a step budget, an allocation budget and a
// cancellation that run out among vectorized strips give, on the kernel
// path, the bytecode engine's error text, step and allocation counts,
// barriers and output — what PR 14 pinned for the scalar forall. A strip
// raises nothing itself: one that could outrun the step budget, or that
// starts after the context died, declines before it touches the heap
// and the scalar path raises the error at its statement; a vectorized
// body cannot allocate (the classifier rejects it), so an allocation
// budget runs out between two strips, with the earlier ones' steps
// already committed. On a pool of one everything is compared; on two
// PEs the step count at which a forall trips a limit depends on which
// PE published its batch first — on either engine — so there it is left
// out for the two budgets that die inside the forall.
func TestBudgetsMidStrip(t *testing.T) {
	c, err := core.Compile(sweepSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n, rounds, width = 96, 6, 8
	par, err := c.StripMine("sweep", 0, width)
	if err != nil {
		t.Fatal(err)
	}
	args := []interp.Value{interp.IntVal(n), interp.IntVal(rounds)}

	type answer struct {
		value, output, err      string
		steps, allocs, barriers int64
	}
	for _, pes := range []int{1, 2} {
		// run executes main under cfg on engine eng; cancelAt, if set,
		// is the printed line at which the run's context is cancelled.
		run := func(eng interp.Engine, cfg core.RunConfig, cancelAt string) answer {
			t.Helper()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			out := &cancelOnLine{line: cancelAt, cancel: cancel}
			cfg.Engine, cfg.Ctx, cfg.Output = eng, ctx, out
			v, st, err := par.RunParallel(cfg, pes, "main", args...)
			a := answer{output: out.buf.String(), steps: st.Steps, allocs: st.Allocations, barriers: st.Barriers}
			if err != nil {
				a.err = err.Error()
			} else {
				a.value = v.String()
			}
			return a
		}

		prof := obs.NewForallProfiler()
		clean := run(interp.EngineKernel, core.RunConfig{Profiler: prof}, "")
		if clean.err != "" {
			t.Fatal(clean.err)
		}
		if rep := prof.Report(); len(rep) != 1 || !rep[0].Kernel || rep[0].Barriers != clean.barriers {
			t.Fatalf("pes %d: profile %+v, want one kernel site holding all %d barriers (the sweep must vectorize)", pes, rep, clean.barriers)
		}
		if want := run(interp.EngineBytecode, core.RunConfig{}, ""); clean != want {
			t.Fatalf("pes %d, clean run: kernel %+v, bytecode %+v", pes, clean, want)
		}

		// agree runs both engines under one budget and returns the
		// bytecode engine's answer, which must hold wantErr.
		agree := func(what string, cfg core.RunConfig, cancelAt, wantErr string, inForall bool) answer {
			t.Helper()
			want := run(interp.EngineBytecode, cfg, cancelAt)
			if !strings.Contains(want.err, wantErr) {
				t.Fatalf("pes %d, %s: bytecode engine returned %q, want an error containing %q", pes, what, want.err, wantErr)
			}
			got := run(interp.EngineKernel, cfg, cancelAt)
			if inForall && pes > 1 {
				got.steps = want.steps
			}
			if got != want {
				t.Errorf("pes %d, %s:\n  kernel %+v\nbytecode %+v", pes, what, got, want)
			}
			return want
		}

		// Steps: every limit across a quarter of one round's sweep (three
		// strips), in the middle of the run — strip boundaries and
		// interiors alike.
		partial := 0
		for limit := clean.steps / 2; limit < clean.steps/2+clean.steps/rounds/4; limit++ {
			a := agree("MaxSteps", core.RunConfig{MaxSteps: limit}, "", "step limit exceeded", true)
			if a.barriers > 0 && a.barriers < clean.barriers {
				partial++
			}
		}
		if partial == 0 {
			t.Errorf("pes %d: no step limit stopped the run between its first and last strip", pes)
		}

		// Allocations: the list, then one spare a round; the limit dies
		// on the spare after round 2's sweep.
		a := agree("MaxAllocs", core.RunConfig{MaxAllocs: n + 2}, "", "allocation limit exceeded", false)
		if a.barriers == 0 || a.barriers >= clean.barriers || !strings.HasSuffix(a.output, "round 2\n") {
			t.Errorf("pes %d: MaxAllocs stopped the run at %+v, want after round 2's strips", pes, a)
		}

		// Cancellation: the context dies as round 3 is announced, so
		// the next thing the run does is enter that round's first strip.
		a = agree("ctx cancel", core.RunConfig{}, "round 3\n", "run cancelled: context canceled", true)
		if a.barriers == 0 || a.barriers >= clean.barriers || a.steps >= clean.steps {
			t.Errorf("pes %d: cancellation stopped the run at %+v, want among round 3's strips", pes, a)
		}
	}
}
