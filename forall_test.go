// One forall, one answer: a program that spells forall gives the same
// value, output, step and allocation counts and error text whether it
// runs serially (interp.Run: iterations in place, in index order), on a
// pool (parexec.Run at any size), on the simulated
// machine, or through the server with or without "parallel" — on all
// four engines. Before the interpreter stopped running foralls on one
// goroutine per iteration, a request's answer depended on which of
// those it happened to take.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/parexec"
	"repro/internal/serve"
)

// forallAnswer is everything a caller can observe of one run.
type forallAnswer struct {
	value  string
	output string
	steps  int64
	allocs int64
	err    string
}

func answerOf(v interp.Value, st interp.Stats, out string, err error) forallAnswer {
	a := forallAnswer{output: out, steps: st.Steps, allocs: st.Allocations}
	if err != nil {
		a.err = err.Error()
	} else {
		a.value = v.String()
	}
	return a
}

// forallProgram is one program of TestForallOneAnswer's table.
type forallProgram struct {
	name, src string
	// wantErr is a fragment of the expected error ("" = success);
	// wantOut, if set, pins the output stream itself.
	wantErr, wantOut string
}

// stripWidths is the width grid the strip tests range over: one lane,
// a width that divides no list, 8 and 32 (the planner's default on two
// PEs at 4 and at 16 lanes a PE), the planner's cap of 128, and one
// wider than the longest list any of them walks (the corpus's
// poly-normalize holds 400 terms, stripSrc's list 37 nodes).
var stripWidths = []int{1, 3, 8, 32, 128, 512}

// stripSrc is the shape transform.StripMine emits at width w — a
// forall of w lanes, each calling a helper that skips _pe links and
// then guards on NULL — over a 37-node list, with a body no kernel
// takes (it allocates and prints), so the VM runs it on the scalar
// strip path.
func stripSrc(w int) string {
	return fmt.Sprintf(`
type C [L] { int v; C *next is uniquely forward along L; };
procedure _visit(int _pe, C *p, int k) {
  for _k = 1 to _pe {
    p = p->next;
  }
  if p != NULL {
    var C *t = new C;
    t->v = p->v * k;
    p->v = p->v + t->v;
    print(_pe, p->v);
  }
}
function int main() {
  var C *head = NULL;
  var int i = 0;
  while i < 37 {
    var C *t = new C;
    t->v = i;
    t->next = head;
    head = t;
    i = i + 1;
  }
  var C *p = head;
  var int k = 3;
  while p != NULL {
    forall _pe = 0 to %d { _visit(_pe, p, k); }
    for _pe = 0 to %[1]d { p = p->next; }
  }
  var int s = 0;
  p = head;
  while p != NULL { s = s + p->v; p = p->next; }
  return s;
}`, w-1)
}

// forallPrograms is TestForallOneAnswer's table: hand-written foralls,
// then stripSrc at every width of the grid.
var forallPrograms = append([]forallProgram{
	{name: "printing body", src: `
function int main() {
  forall i = 0 to 9 { print(i, i * i); }
  return 7;
}`, wantOut: "0 0\n1 1\n2 4\n3 9\n4 16\n5 25\n6 36\n7 49\n8 64\n9 81\n"},
	{name: "return inside the body", src: `
function int main() {
  print(3);
  forall i = 0 to 2 { print(i); return i; }
  return 0;
}`, wantErr: "return inside forall is not allowed", wantOut: "3\n0\n"},
	{name: "fault mid-range", src: `
type C [L] { int v; C *next is uniquely forward along L; };
function int main() {
  forall i = 0 to 7 {
    var C *c = new C;
    c->v = i;
    print(c->v);
    var int x = 10 / (i - 3);
    print(x);
  }
  return 1;
}`, wantErr: "integer division by zero", wantOut: "0\n-3\n1\n-5\n2\n-10\n3\n"},
	{name: "nested forall", src: `
function int main() {
  forall i = 0 to 3 {
    forall j = 0 to 2 { print(i, j); }
  }
  return 12;
}`},
	{name: "empty range", src: `
function int main() {
  forall i = 5 to 4 { print(i); }
  return 1;
}`, wantOut: ""},
	// Wider than one scheduler window, failing in the second: the
	// first window's iterations all count, the rest of the second do
	// not, the third never runs.
	{name: "fault past the first window", src: `
type C [L] { int v; C *next is uniquely forward along L; };
function int main() {
  forall i = 0 to 9999 {
    var C *c = new C;
    if i % 1000 == 0 { print(i); }
    c->v = 100 / (6000 - i);
  }
  return 1;
}`, wantErr: "integer division by zero", wantOut: "0\n1000\n2000\n3000\n4000\n5000\n6000\n"},
}, stripPrograms()...)

func stripPrograms() []forallProgram {
	var ps []forallProgram
	for _, w := range stripWidths {
		ps = append(ps, forallProgram{name: fmt.Sprintf("strip of width %d", w), src: stripSrc(w)})
	}
	return ps
}

func TestForallOneAnswer(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()

	for _, p := range forallPrograms {
		prog, err := lang.Parse(p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		var ref forallAnswer
		for ei, eng := range eqEngines {
			var out bytes.Buffer
			v, st, err := interp.Run(prog, interp.Config{Engine: eng, Output: &out}, "main")
			serial := answerOf(v, st, out.String(), err)
			if ei == 0 {
				ref = serial
				if (p.wantErr == "") != (ref.err == "") || !strings.Contains(ref.err, p.wantErr) {
					t.Fatalf("%s: oracle error %q, want one containing %q", p.name, ref.err, p.wantErr)
				}
				if p.wantOut != "" && ref.output != p.wantOut {
					t.Fatalf("%s: oracle output %q, want %q", p.name, ref.output, p.wantOut)
				}
			}
			check := func(how string, got forallAnswer) {
				t.Helper()
				if got != ref {
					t.Errorf("%s on %s, %s:\n got %+v\nwant %+v", p.name, eng, how, got, ref)
				}
			}
			check("interp.Run", serial)

			// The machine model runs on the walker whatever the engine
			// says, so its answer is checked once.
			if ei == 0 {
				out.Reset()
				v, st, err = interp.Run(prog, interp.Config{Mode: interp.Simulated, PEs: 3, Output: &out}, "main")
				check("simulated", answerOf(v, st, out.String(), err))
			}

			// On one processor the interpreting goroutine takes nearly
			// every iteration; on all of them the workers race it for each.
			for _, procs := range []int{1, runtime.NumCPU()} {
				for _, pes := range []int{1, 2, 4, 8} {
					out.Reset()
					prev := runtime.GOMAXPROCS(procs)
					v, st, err := parexec.Run(prog, parexec.Options{Interp: eng, PEs: pes, Output: &out}, "main")
					runtime.GOMAXPROCS(prev)
					check(fmt.Sprintf("parexec.Run procs=%d pes=%d", procs, pes), answerOf(v, st, out.String(), err))
				}
			}
		}

		// The server runs its one engine, serially or on the pool.
		for _, parallel := range []bool{false, true} {
			resp, err := srv.Run(context.Background(), serve.Request{Source: p.src, Parallel: parallel, PEs: 2})
			if err != nil {
				t.Fatalf("%s: serve: %v", p.name, err)
			}
			got := forallAnswer{value: resp.Result, output: resp.Output, steps: resp.Steps, allocs: resp.Allocs, err: resp.Error}
			if got != ref {
				t.Errorf("%s, serve.Run parallel=%t:\n got %+v\nwant %+v", p.name, parallel, got, ref)
			}
		}
	}
}

// TestPoolLeavesTheSerialRun: every corpus program, planned at every
// width of the grid, run serially in place with no scheduler or on a
// pool of 1, 2 or 4 PEs, on every engine, leaves the value, the output
// and the whole Stats — barriers included — of the walker's serial run
// of the same planned program, which executes every lane's skip loop
// literally. The interpreter, not the pool or the strip path, decides a
// forall's output, error and barrier count.
func TestPoolLeavesTheSerialRun(t *testing.T) {
	type run struct {
		value, output string
		st            interp.Stats
	}
	for _, p := range equivalenceCorpus(t) {
		t.Run(p.name, func(t *testing.T) {
			c, err := core.Compile(p.src)
			if err != nil {
				t.Fatal(err)
			}
			for _, width := range stripWidths {
				auto, err := c.AutoParallel(width)
				if err != nil {
					t.Fatal(err)
				}
				cp := interp.CompileProgram(auto.Program)
				var out bytes.Buffer
				v, st, err := interp.RunCompiled(cp, interp.Config{Engine: interp.EngineWalk, Seed: p.seed, Output: &out}, p.fn, p.args...)
				if err != nil {
					t.Fatalf("width %d on the walker: %v", width, err)
				}
				want := run{v.String(), out.String(), st}
				for _, eng := range eqEngines {
					out.Reset()
					v, st, err := interp.RunCompiled(cp, interp.Config{Engine: eng, Seed: p.seed, Output: &out}, p.fn, p.args...)
					if err != nil {
						t.Fatalf("width %d, %s serially: %v", width, eng, err)
					}
					if got := (run{v.String(), out.String(), st}); got != want {
						t.Errorf("width %d, %s serially: value %s stats %+v, walker %s %+v (outputs equal: %t)",
							width, eng, got.value, got.st, want.value, want.st, got.output == want.output)
					}
					for _, pes := range []int{1, 2, 4} {
						out.Reset()
						v, st, err := parexec.Run(auto.Program, parexec.Options{
							Interp: eng, Compiled: cp, PEs: pes, Seed: p.seed, Output: &out,
						}, p.fn, p.args...)
						if err != nil {
							t.Fatalf("width %d, %s pes=%d: %v", width, eng, pes, err)
						}
						if got := (run{v.String(), out.String(), st}); got != want {
							t.Errorf("width %d, %s pes=%d: value %s stats %+v, walker %s %+v (outputs equal: %t)",
								width, eng, pes, got.value, got.st, want.value, want.st, got.output == want.output)
						}
					}
				}
			}
		})
	}
}

// FuzzWidthInvariance: a program planned at any strip width from 1 to
// 256, run on a pool of two PEs, answers exactly as the unplanned
// program does on the walker — value, output, allocations and error
// text. (Steps and barriers are the planned program's own: strip-mining
// adds the skip loops and a barrier a strip.) prog picks the program:
// an index of equivalenceCorpus, or else the seed of a generated
// many-loop program (transform.GenLoopProgramPSL with genDriver).
func FuzzWidthInvariance(f *testing.F) {
	for prog := int64(0); prog < 10; prog++ {
		for _, w := range stripWidths[:5] {
			f.Add(prog, uint8(w-1))
		}
	}
	f.Add(int64(-3), uint8(255))
	f.Fuzz(func(t *testing.T, prog int64, width uint8) {
		corpus := equivalenceCorpus(t)
		var p eqProgram
		if prog >= 0 && prog < int64(len(corpus)) {
			p = corpus[prog]
		} else {
			p = genProgram(prog)
		}
		c, err := core.Compile(p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		auto, err := c.AutoParallel(int(width) + 1)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		var out bytes.Buffer
		v, st, err := interp.Run(c.Program, interp.Config{Engine: interp.EngineWalk, Seed: p.seed, Output: &out}, p.fn, p.args...)
		want := answerOf(v, st, out.String(), err)
		out.Reset()
		v, st, err = parexec.Run(auto.Program, parexec.Options{PEs: 2, Seed: p.seed, Output: &out}, p.fn, p.args...)
		got := answerOf(v, st, out.String(), err)
		got.steps, want.steps = 0, 0
		if got != want {
			t.Errorf("%s planned at width %d, on 2 PEs:\n got %+v\nwant %+v (the unplanned program on the walker)\n%s",
				p.name, int(width)+1, got, want, auto.Plan)
		}
	})
}

// hugeForall is the 100-byte request body that used to take the server
// down: four trillion iterations of nothing.
const hugeForall = `procedure main() { forall i = 0 to 4000000000000 { } }`

// TestForallTripCountIsBudgeted: a forall's trip count is charged to
// the step budget at entry, so under the server's default step budget
// the four-trillion-iteration loop is refused at once — before a
// goroutine, a buffer or an error slot exists for it — with the
// step-limit error: by every engine in process, by the server on both
// paths, and the server keeps serving.
func TestForallTripCountIsBudgeted(t *testing.T) {
	prog, err := lang.Parse(hugeForall)
	if err != nil {
		t.Fatal(err)
	}
	const serverSteps = 50_000_000 // serve.Config's default MaxSteps
	for _, eng := range eqEngines {
		_, st, err := interp.Run(prog, interp.Config{Engine: eng, MaxSteps: serverSteps}, "main")
		if err == nil || !strings.Contains(err.Error(), "step limit exceeded") || st.Steps > 1 {
			t.Errorf("%s: %v after %d steps, want the step-limit error with nothing run", eng, err, st.Steps)
		}
	}

	srv := serve.New(serve.Config{})
	defer srv.Close()
	for _, parallel := range []bool{false, true} {
		req := serve.Request{Source: hugeForall, Parallel: parallel}
		if _, err := srv.Run(context.Background(), req); err != nil { // compile, off the clock
			t.Fatal(err)
		}
		t0 := time.Now()
		resp, err := srv.Run(context.Background(), req)
		el := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK || !strings.Contains(resp.Error, "step limit exceeded") || resp.Steps > 1 {
			t.Errorf("serve parallel=%t: %+v, want the step-limit error with nothing run", parallel, resp)
		}
		if *costGates && el > 50*time.Millisecond {
			t.Errorf("serve parallel=%t: refused after %v, want under 50ms", parallel, el)
		}
	}
	if resp, err := srv.Run(context.Background(), serve.Request{Source: "function int main() { return 42; }"}); err != nil || resp.Result != "42" {
		t.Errorf("server did not keep serving: %+v, %v", resp, err)
	}
}

// TestWideForallIsBounded: three million empty iterations run (or, past
// their deadline, fail) holding a pool's worth of goroutines and a
// window's worth of memory, serially and on a pool.
func TestWideForallIsBounded(t *testing.T) {
	const src = `function int main() { forall i = 1 to 3000000 { } return 1; }`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	const pes = 4
	// The default engine, and the plain VM, which takes a private frame
	// for every iteration.
	for _, eng := range []interp.Engine{interp.EngineKernel, interp.EngineBytecode} {
		cp := interp.CompileProgram(prog)
		for _, pooled := range []bool{false, true} {
			name := fmt.Sprintf("%s pooled=%t", eng, pooled)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			// The probe rides on the context the run polls: it reports
			// the most pool workers alive at any poll.
			probe := &goroutineProbe{Context: ctx}
			idle := poolWorkers()
			if pooled {
				idle += pes - 1 // the interpreting goroutine is PE 0
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			var v interp.Value
			var st interp.Stats
			if pooled {
				v, st, err = parexec.Run(prog, parexec.Options{Interp: eng, Compiled: cp, PEs: pes, Ctx: probe}, "main")
			} else {
				v, st, err = interp.RunCompiled(cp, interp.Config{Engine: eng, Ctx: probe}, "main")
			}
			el := time.Since(t0)
			runtime.ReadMemStats(&after)
			cancel()
			switch {
			case err == nil && (v.I != 1 || st.Steps != 3000002):
				t.Errorf("%s: value %s after %d steps, want 1 after 3000002", name, v, st.Steps)
			case err != nil && !strings.Contains(err.Error(), "run cancelled"):
				t.Errorf("%s: %v", name, err)
			}
			if el > 3*time.Second {
				t.Errorf("%s: took %v against a 2s deadline", name, el)
			}
			if seen := probe.max.Load(); probe.polls.Load() == 0 || seen > idle {
				t.Errorf("%s: %d pool workers alive over %d polls, want at most %d (the idle baseline, plus the %d workers when pooled)", name, seen, probe.polls.Load(), idle, pes-1)
			}
			if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 32<<20 {
				t.Errorf("%s: heap grew %d MB", name, grown>>20)
			}
		}
	}
}

// goroutineProbe is a context whose Err — which the interpreter polls
// between forall windows and wherever it publishes its step count, on
// whichever goroutine is executing — also records the most pool workers
// it ever saw alive.
type goroutineProbe struct {
	context.Context
	max, polls atomic.Int64
}

func (p *goroutineProbe) Err() error {
	p.polls.Add(1)
	if n := poolWorkers(); n > p.max.Load() {
		p.max.Store(n)
	}
	return p.Context.Err()
}

// poolWorkers counts the goroutines running a parexec pool's worker
// loop: a goroutine the run did not start — a finalizer, say, or the
// testing package's own — is not one of them, however many come and go.
func poolWorkers() int64 {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return int64(bytes.Count(buf[:n], []byte("parexec.(*runState).work(")))
		}
		buf = make([]byte, 2*len(buf))
	}
}
