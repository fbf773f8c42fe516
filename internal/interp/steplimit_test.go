package interp_test

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/transform"
)

// stepCase is a program TestWalkStepLimitExact runs and its entry.
type stepCase struct {
	name, fn string
	prog     *lang.Program
	args     []interp.Value
}

// stepLimitCases are the programs TestWalkStepLimitExact runs, planned
// at width 4 so that their loops are foralls, each of which pays its
// trip count to the step budget at entry.
func stepLimitCases(t *testing.T) []stepCase {
	t.Helper()
	poly, err := os.ReadFile("../../testdata/polyscale.psl")
	if err != nil {
		t.Fatal(err)
	}
	plan := func(src string) *lang.Program {
		p, err := transform.AutoParallelize(lang.MustParse(src), 4)
		if err != nil {
			t.Fatal(err)
		}
		return p.Program
	}
	return []stepCase{
		{"polyscale", "main", plan(string(poly)), nil},
		{"barnes-hut", "simulate", plan(nbody.BarnesHutPSL),
			[]interp.Value{interp.IntVal(4), interp.IntVal(1), interp.RealVal(0.5), interp.RealVal(0.01)}},
	}
}

// stepRun is what a run left: its error text and its step count.
type stepRun struct {
	err   string
	steps int64
}

// walkSteps runs fn on the walker under limit: serially, or with an
// in-order Forall scheduler, which makes the interpreter charge every
// statement to the shared counter as it runs. entries, if non-nil,
// receives the step total at each scheduled forall's entry, its trip
// count already charged.
func walkSteps(prog *lang.Program, fn string, args []interp.Value, limit int64, scheduled bool, entries *[]int64) stepRun {
	cfg := interp.Config{Engine: interp.EngineWalk, MaxSteps: limit}
	var root, worker *interp.Interp
	if scheduled {
		cfg.Forall = func(_ lang.Pos, from, to int64, run func(w *interp.Interp, k int64) error) error {
			if entries != nil {
				*entries = append(*entries, root.Stats().Steps)
			}
			for k := from; k <= to; k++ {
				if run(worker, k) != nil {
					break
				}
			}
			return nil
		}
	}
	root = interp.New(prog, cfg)
	worker = root.Fork(nil)
	_, err := root.Call(fn, args...)
	r := stepRun{steps: root.Stats().Steps}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// TestWalkStepLimitExact: a serial walker batches its step count, yet
// fails on the same statement, with the same error and the same count,
// as a scheduled one that adds every statement to the shared counter —
// for every MaxSteps in windows that cross several stepFlushChunk
// boundaries and the entry of at least one forall (whose trip count is
// charged in one piece). And a cancelled context still stops the
// serial walker within one chunk.
func TestWalkStepLimitExact(t *testing.T) {
	const window = 800 // three chunks and more
	for _, c := range stepLimitCases(t) {
		var entries []int64
		full := walkSteps(c.prog, c.fn, c.args, 0, true, &entries)
		if full.err != "" || len(entries) == 0 {
			t.Fatalf("%s: unlimited run: %+v, %d foralls", c.name, full, len(entries))
		}
		// Every limit up to window and the last window before the total,
		// so that both ends of the run are covered.
		lo := max(full.steps+1-window, window+1)
		limits := []int64{}
		for m := int64(1); m <= window && m <= full.steps+1; m++ {
			limits = append(limits, m)
		}
		for m := lo; m <= full.steps+1; m++ {
			limits = append(limits, m)
		}
		inWindow := 0
		for _, e := range entries {
			if e <= window || e >= lo {
				inWindow++
			}
		}
		if inWindow == 0 {
			t.Fatalf("%s: no forall enters within the windows (entries %v, total %d)", c.name, entries, full.steps)
		}
		failed := 0
		for _, m := range limits {
			want := walkSteps(c.prog, c.fn, c.args, m, true, nil)
			got := walkSteps(c.prog, c.fn, c.args, m, false, nil)
			if got != want {
				t.Fatalf("%s: MaxSteps %d: serial walker %+v, scheduled %+v", c.name, m, got, want)
			}
			if got.err != "" {
				failed++
			}
		}
		t.Logf("%s: %d limits agree (%d fail, %d foralls in the windows, total %d steps)", c.name, len(limits), failed, inWindow, full.steps)

		for after := 1; after <= 3; after++ {
			ctx := &lateCtx{Context: context.Background(), after: after}
			ip := interp.New(c.prog, interp.Config{Engine: interp.EngineWalk, Ctx: ctx})
			_, err := ip.Call(c.fn, c.args...)
			if err == nil || !strings.Contains(err.Error(), "run cancelled") {
				t.Fatalf("%s: a context cancelled after %d polls: %v", c.name, after, err)
			}
			if steps := ip.Stats().Steps; steps > int64(after)*interp.StepFlushChunk {
				t.Errorf("%s: cancelled at poll %d, the run still took %d steps, more than %d chunks", c.name, after, steps, after)
			}
		}
	}
}

// lateCtx is a context that reads as cancelled from the after+1'th
// look at it on: the first is Call's check before anything runs.
type lateCtx struct {
	context.Context
	after, polls int
}

func (c *lateCtx) Err() error {
	if c.polls++; c.polls > c.after {
		return context.Canceled
	}
	return nil
}
