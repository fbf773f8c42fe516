package interp_test

import (
	"bytes"
	"context"
	"fmt"
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

// stepLimitCases are the programs TestWalkStepLimitExact runs: two
// planned at width 4, so that their loops are foralls, each of which
// pays its trip count to the step budget at entry, and a strip the
// kernel engine vectorizes, whose lanes the VM starts at the guard.
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
		{"vector strip", "main", lang.MustParse(stripPatternSeed), nil},
	}
}

// stepRun is what a run left: its error text, output and step count.
type stepRun struct {
	err, out string
	steps    int64
}

// stepCharge is one charge the oracle saw: where, how many trips (0 for
// a statement), and how much output the run had printed by then.
type stepCharge struct {
	pos   lang.Pos
	trips int64
	out   int
}

// stepOracle is an unlimited walk of c with every charge recorded.
type stepOracle struct {
	charges []stepCharge
	out     string
	steps   int64
}

func newStepOracle(t *testing.T, c stepCase) *stepOracle {
	t.Helper()
	var o stepOracle
	var out bytes.Buffer
	ip := interp.New(c.prog, interp.Config{Engine: interp.EngineWalk, Output: &out})
	ip.TraceSteps(func(pos lang.Pos, trips int64) {
		o.charges = append(o.charges, stepCharge{pos, trips, out.Len()})
	})
	if _, err := ip.Call(c.fn, c.args...); err != nil {
		t.Fatalf("%s: unlimited run: %v", c.name, err)
	}
	o.out, o.steps = out.String(), ip.Stats().Steps
	return &o
}

// want is what a run under limit must leave. The charge that takes the
// count past limit fails: a statement having been counted, before it
// runs; a forall entry having charged nothing.
func (o *stepOracle) want(limit int64) stepRun {
	var n int64
	for _, c := range o.charges {
		next := n + max(c.trips, 1)
		if next > limit {
			if c.trips > 0 {
				next = n
			}
			return stepRun{fmt.Sprintf("%s: interp: step limit exceeded (%d)", c.pos, limit), o.out[:c.out], next}
		}
		n = next
	}
	return stepRun{"", o.out, n}
}

// limitRun runs c under limit on eng: serially, or with a scheduler
// that runs each window's iterations in order on one fork.
func limitRun(c stepCase, cp *interp.CompiledProgram, eng interp.Engine, limit int64, scheduled bool) (stepRun, interp.Stats) {
	var out bytes.Buffer
	cfg := interp.Config{Engine: eng, MaxSteps: limit, Output: &out}
	var worker *interp.Interp
	if scheduled {
		cfg.Forall = func(_ lang.Pos, from, to int64, run func(w *interp.Interp, k int64) error) error {
			for k := from; k <= to; k++ {
				if run(worker, k) != nil {
					break
				}
			}
			return nil
		}
	}
	root := interp.NewCompiled(cp, cfg)
	worker = root.Fork(nil)
	_, err := root.Call(c.fn, c.args...)
	st := root.Stats()
	r := stepRun{out: out.String(), steps: st.Steps}
	if err != nil {
		r.err = err.Error()
	}
	return r, st
}

// TestWalkStepLimitExact: every engine — the walker, the VM and the
// kernel path — batches its step count, serially or under an in-order
// scheduler, yet fails on the statement the per-statement count says,
// with its error text, output and step count, and all leave the same
// Stats (allocations and barriers too), for every MaxSteps in
// windows that cross several stepFlushChunk boundaries and the entry of
// at least one forall (whose trip count is charged in one piece). And a
// cancelled context still stops a serial run within one chunk.
func TestWalkStepLimitExact(t *testing.T) {
	const window = 800 // three chunks and more
	engines := []interp.Engine{interp.EngineWalk, interp.EngineBytecode, interp.EngineKernel}
	for _, c := range stepLimitCases(t) {
		o := newStepOracle(t, c)
		if full := o.want(o.steps); full.err != "" || full.steps != o.steps {
			t.Fatalf("%s: the oracle's own run reads as %+v, counted %d", c.name, full, o.steps)
		}
		// Every limit up to window and the last window before the total,
		// so that both ends of the run are covered.
		lo := max(o.steps+1-window, window+1)
		limits := []int64{}
		for m := int64(1); m <= window && m <= o.steps+1; m++ {
			limits = append(limits, m)
		}
		for m := lo; m <= o.steps+1; m++ {
			limits = append(limits, m)
		}
		inWindow, n := 0, int64(0)
		for _, ch := range o.charges {
			if ch.trips > 0 && (n < window || n >= lo-ch.trips) {
				inWindow++
			}
			n += max(ch.trips, 1)
		}
		if inWindow == 0 {
			t.Fatalf("%s: no forall enters within the windows (total %d)", c.name, o.steps)
		}
		cp := interp.CompileProgram(c.prog)
		failed := 0
		for _, m := range limits {
			want := o.want(m)
			var ref interp.Stats
			for i, eng := range engines {
				for _, scheduled := range []bool{false, true} {
					got, st := limitRun(c, cp, eng, m, scheduled)
					if got != want {
						t.Fatalf("%s: MaxSteps %d, %s scheduled=%t:\n got %+v\nwant %+v", c.name, m, eng, scheduled, got, want)
					}
					if i == 0 && !scheduled {
						ref = st
					} else if st != ref {
						t.Fatalf("%s: MaxSteps %d, %s scheduled=%t: %+v, the serial walker %+v", c.name, m, eng, scheduled, st, ref)
					}
				}
			}
			if want.err != "" {
				failed++
			}
		}
		t.Logf("%s: %d limits agree on 3 engines (%d fail, %d foralls in the windows, total %d steps)", c.name, len(limits), failed, inWindow, o.steps)

		for _, eng := range engines {
			for after := 1; after <= 3; after++ {
				ctx := &lateCtx{Context: context.Background(), after: after}
				ip := interp.NewCompiled(cp, interp.Config{Engine: eng, Ctx: ctx})
				_, err := ip.Call(c.fn, c.args...)
				if err == nil || !strings.Contains(err.Error(), "run cancelled") {
					t.Fatalf("%s, %s: a context cancelled after %d polls: %v", c.name, eng, after, err)
				}
				if steps := ip.Stats().Steps; steps > int64(after)*interp.StepFlushChunk {
					t.Errorf("%s, %s: cancelled at poll %d, the run still took %d steps, more than %d chunks", c.name, eng, after, steps, after)
				}
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
