package parexec_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/parexec"
)

// The barrier protocol's own tests: the interpreting goroutine is PE 0
// and adopts every stream whose worker is late, so none of what a
// caller can observe may depend on which goroutine drained which
// stream, on how many processors there are, or on how the run ends.

// barrierSrc runs `rounds` barriers of 1, 2, 3, 1, … iterations. Every
// iteration allocates, prints and bumps its own cell's counter; after
// each barrier the serial code checks every counter, so an iteration
// that ran twice or not at all shows in main's result whatever else
// happened. Iteration 1 of round `bad` divides by zero after it printed.
const barrierSrc = `
type Cell [X]
{ int hits;
  int want;
  Cell *next is uniquely forward along X;
};

procedure bump(Cell *head, int i, int r, int bad) {
  var Cell *c = head;
  var int j = 0;
  while j < i {
    c = c->next;
    j = j + 1;
  }
  var Cell *scratch = new Cell;
  print(r, i);
  if i == 1 {
    scratch->hits = 10 / (r - bad);
  }
  c->hits = c->hits + 1;
}

function int main(int rounds, int bad) {
  var Cell *head = NULL;
  var int i = 0;
  while i < 3 {
    var Cell *t = new Cell;
    t->next = head;
    head = t;
    i = i + 1;
  }
  var int wrong = 0;
  var int r = 0;
  while r < rounds {
    var int w = r % 3 + 1;
    forall k = 0 to w - 1 {
      bump(head, k, r, bad);
    }
    var Cell *c = head;
    var int j = 0;
    while c != NULL {
      if j < w {
        c->want = c->want + 1;
      }
      if c->hits != c->want {
        wrong = wrong + 1;
      }
      c = c->next;
      j = j + 1;
    }
    r = r + 1;
  }
  return wrong;
}
`

// TestBarrierStress: ten thousand tiny barriers at every pool size and
// policy, on one processor (the workers hardly ever run: the
// interpreting goroutine adopts their streams) and on all of them (the
// workers race it for every stream), give the serial run's output
// bytes, steps, allocations and error, one barrier a forall, and every
// iteration exactly once. CI runs it under -race.
func TestBarrierStress(t *testing.T) {
	prog, err := lang.Parse(barrierSrc)
	if err != nil {
		t.Fatal(err)
	}
	code := interp.CompileProgram(prog)
	for _, tc := range []struct {
		name         string
		rounds, bad  int64
		wantBarriers int64
		wantErr      bool
	}{
		{name: "clean", rounds: 10000, bad: -1, wantBarriers: 10000},
		// Round 8999 is three wide: iteration 0 completes, 1 faults after
		// printing, 2 may or may not have run before the fault was known.
		{name: "fault", rounds: 10000, bad: 8999, wantBarriers: 9000, wantErr: true},
	} {
		args := []interp.Value{interp.IntVal(tc.rounds), interp.IntVal(tc.bad)}
		var wantOut bytes.Buffer
		want, wantSt, wantRunErr := interp.RunCompiled(code, interp.Config{Output: &wantOut}, "main", args...)
		if (wantRunErr != nil) != tc.wantErr || (wantRunErr == nil && want.I != 0) {
			t.Fatalf("%s: serial run returned %v, %v", tc.name, want, wantRunErr)
		}
		for _, procs := range []int{1, runtime.NumCPU()} {
			for _, pes := range testdataPEs {
				for _, pol := range []parexec.Policy{parexec.StaticBlock, parexec.StaticCyclic, parexec.Dynamic(1)} {
					name := fmt.Sprintf("%s/procs%d/pes%d/%s", tc.name, procs, pes, pol.Name())
					prev := runtime.GOMAXPROCS(procs)
					var out bytes.Buffer
					got, st, err := parexec.Run(prog, parexec.Options{Compiled: code, PEs: pes, Sched: pol, Output: &out}, "main", args...)
					runtime.GOMAXPROCS(prev)
					if fmt.Sprint(err) != fmt.Sprint(wantRunErr) {
						t.Errorf("%s: error %v, serial run %v", name, err, wantRunErr)
					}
					if err == nil && got.I != 0 {
						t.Errorf("%s: %d counter checks failed — an iteration ran twice or never", name, got.I)
					}
					if !bytes.Equal(out.Bytes(), wantOut.Bytes()) {
						t.Errorf("%s: output differs from the serial run's (%d bytes, want %d)", name, out.Len(), wantOut.Len())
					}
					if st.Steps != wantSt.Steps || st.Allocations != wantSt.Allocations || st.Barriers != tc.wantBarriers {
						t.Errorf("%s: steps %d allocations %d barriers %d, want %d / %d / %d",
							name, st.Steps, st.Allocations, st.Barriers, wantSt.Steps, wantSt.Allocations, tc.wantBarriers)
					}
				}
			}
		}
	}
}

// cancelAfter is a context whose Err turns into context.Canceled at the
// n-th poll, on whichever goroutine makes it.
type cancelAfter struct {
	context.Context
	polls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.polls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// panicWriter stands in for anything that makes root.Call panic.
type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("panicWriter: write") }

// TestRunLeavesNoGoroutines: however a Run ends — normally, with a
// failing iteration, cancelled in the middle of a forall, or by a panic
// on the interpreting goroutine while the workers wait for the next
// forall — its workers have been stopped and joined.
func TestRunLeavesNoGoroutines(t *testing.T) {
	prog, err := lang.Parse(`
procedure spin(int i, int d) {
  var int j = 0;
  var int acc = 0;
  while j < 2000 {
    acc = acc + j / (i - d);
    j = j + 1;
  }
}

procedure main(int d, int shout) {
  var int r = 0;
  while r < 8 {
    forall i = 0 to 15 {
      spin(i, d);
    }
    r = r + 1;
  }
  if shout == 1 {
    print(r);
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for _, pes := range []int{1, 2, 8} {
		for _, tc := range []struct {
			name      string
			d, shout  int64
			opt       parexec.Options
			wantErr   bool
			wantPanic bool
		}{
			{name: "normal return", d: -1},
			{name: "failing iteration", d: 7, wantErr: true},
			{name: "cancelled mid-forall", d: -1, wantErr: true,
				opt: parexec.Options{Ctx: &cancelAfter{Context: context.Background(), n: 40}}},
			{name: "panic with workers idle", d: -1, shout: 1, wantPanic: true,
				opt: parexec.Options{Output: panicWriter{}}},
		} {
			opt := tc.opt
			opt.PEs = pes
			func() {
				defer func() {
					if r := recover(); (r != nil) != tc.wantPanic {
						t.Errorf("pes=%d %s: recovered %v, want panic: %v", pes, tc.name, r, tc.wantPanic)
					}
				}()
				_, _, err := parexec.Run(prog, opt, "main", interp.IntVal(tc.d), interp.IntVal(tc.shout))
				if (err != nil) != tc.wantErr {
					t.Errorf("pes=%d %s: error %v, want one: %v", pes, tc.name, err, tc.wantErr)
				}
			}()
			// Run has joined its workers; what may remain is a goroutine
			// between its last statement and its exit.
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(5 * time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				runtime.Gosched()
			}
			if n > baseline {
				t.Errorf("pes=%d %s: %d goroutines alive after Run, %d before", pes, tc.name, n, baseline)
			}
		}
	}
}

// TestBarrierAllocs pins what one scalar barrier allocates on a pool of
// two PEs with no profiler: the policy's Assignment and the
// interpreter's per-forall closures, nothing of the pool's own (the
// published task, the error ledger and the output buffers are reused,
// and there is no per-forall channel, WaitGroup or clock reading). The
// channel-per-PE pool this one replaced measured 7 on the same program.
func TestBarrierAllocs(t *testing.T) {
	prog, err := lang.Parse(`
procedure main(int rounds) {
  var int r = 0;
  while r < rounds {
    forall i = 0 to 7 {
      var int x = i * r;
    }
    r = r + 1;
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	code := interp.CompileProgram(prog)
	allocs := func(rounds int64) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, _, err := parexec.Run(prog, parexec.Options{Compiled: code, PEs: 2}, "main", interp.IntVal(rounds)); err != nil {
				t.Fatal(err)
			}
		})
	}
	const extra = 200
	perBarrier := (allocs(100+extra) - allocs(100)) / extra
	t.Logf("%.2f Go allocations a barrier", perBarrier)
	if perBarrier > 5.05 {
		t.Errorf("%.2f Go allocations a barrier, want at most 5", perBarrier)
	}
}
