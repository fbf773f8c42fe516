// One forall, one answer: a program that spells forall gives the same
// value, output, step and allocation counts and error text whether it
// runs serially (interp.Run: iterations in place, in index order), on a
// pool (parexec.Run at any size under any policy), on the simulated
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

var forallPrograms = []struct {
	name, src string
	// wantErr is a fragment of the expected error ("" = success);
	// wantOut, if set, pins the output stream itself.
	wantErr, wantOut string
}{
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
}

func TestForallOneAnswer(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	policies := []parexec.Policy{parexec.StaticBlock, parexec.StaticCyclic, parexec.Dynamic(1)}

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

			// On one processor the interpreting goroutine adopts nearly
			// every stream; on all of them the workers race it for each.
			for _, procs := range []int{1, runtime.NumCPU()} {
				for _, pes := range []int{1, 2, 4, 8} {
					for _, pol := range policies {
						out.Reset()
						prev := runtime.GOMAXPROCS(procs)
						v, st, err := parexec.Run(prog, parexec.Options{Interp: eng, PEs: pes, Sched: pol, Output: &out}, "main")
						runtime.GOMAXPROCS(prev)
						check(fmt.Sprintf("parexec.Run procs=%d pes=%d %s", procs, pes, pol.Name()), answerOf(v, st, out.String(), err))
					}
				}
			}

			for _, parallel := range []bool{false, true} {
				resp, err := srv.Run(context.Background(), serve.Request{Source: p.src, Engine: eng.String(), Parallel: parallel, PEs: 2})
				if err != nil {
					t.Fatalf("%s: serve: %v", p.name, err)
				}
				check(fmt.Sprintf("serve.Run parallel=%t", parallel),
					forallAnswer{value: resp.Result, output: resp.Output, steps: resp.Steps, allocs: resp.Allocs, err: resp.Error})
			}
		}
	}
}

// hugeForall is the 100-byte request body that used to take the server
// down: four trillion iterations of nothing.
const hugeForall = `procedure main() { forall i = 0 to 4000000000000 { } }`

// TestForallTripCountIsBudgeted: a forall's trip count is charged to
// the step budget at entry, so under the server's default budgets the
// four-trillion-iteration loop is refused at once — before a goroutine,
// a buffer or an error slot exists for it — with the step-limit error,
// on both paths and every engine, and the server keeps serving.
func TestForallTripCountIsBudgeted(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	for _, eng := range eqEngines {
		for _, parallel := range []bool{false, true} {
			req := serve.Request{Source: hugeForall, Engine: eng.String(), Parallel: parallel}
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
				t.Errorf("%s parallel=%t: %+v, want the step-limit error with nothing run", eng, parallel, resp)
			}
			if *costGates && el > 50*time.Millisecond {
				t.Errorf("%s parallel=%t: refused after %v, want under 50ms", eng, parallel, el)
			}
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
			// the most goroutines alive at any poll.
			probe := &goroutineProbe{Context: ctx}
			idle := int64(runtime.NumGoroutine())
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
			if seen := probe.max.Load(); seen == 0 || seen > idle {
				t.Errorf("%s: %d goroutines alive, want at most %d (the idle baseline, plus the %d workers when pooled)", name, seen, idle, pes-1)
			}
			if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 32<<20 {
				t.Errorf("%s: heap grew %d MB", name, grown>>20)
			}
		}
	}
}

// goroutineProbe is a context whose Err — which the interpreter polls
// between forall windows and every few hundred steps, on whichever
// goroutine is executing — also records the most goroutines it ever saw
// alive.
type goroutineProbe struct {
	context.Context
	max atomic.Int64
}

func (p *goroutineProbe) Err() error {
	if n := int64(runtime.NumGoroutine()); n > p.max.Load() {
		p.max.Store(n)
	}
	return p.Context.Err()
}
