package interp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/lang"
)

// The walker's frame is one []Value per call, indexed by the checker's
// slots, popped off the Interp's frame stack and pushed back when the
// call ends. These tests pin what that costs, what it refuses, and that
// a reused frame behaves as a fresh one, on the walker and against the
// VM.

// TestWalkRejectsUncheckedProgram: a program straight from the parser
// has no slots, and a walk run of it is an error that names the
// function, not a panic and not an answer.
func TestWalkRejectsUncheckedProgram(t *testing.T) {
	for _, tc := range []struct {
		src, fn string
		args    []Value
	}{
		{"function int f(int n) { var int x = n + 1; return x; }", "f", []Value{IntVal(3)}},
		{"function int g() { return 4; }", "g", nil},
	} {
		prog, err := lang.ParseRaw(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		v, err := New(prog, Config{Engine: EngineWalk}).Call(tc.fn, tc.args...)
		if err == nil || !strings.Contains(err.Error(), "function "+tc.fn+" ") {
			t.Errorf("%s: got %v, %v; want an error naming the function", tc.fn, v, err)
		}
	}
}

// TestWalkRejectsMisresolvedSlot: a use whose slot holds a different
// name is an error naming the function and the variable, whichever
// slot it points at.
func TestWalkRejectsMisresolvedSlot(t *testing.T) {
	for _, slot := range []int{2, 99, -1} {
		prog := lang.MustParse("function int f(int n) { var int x = n + 1; var real y = 2.0; return x; }")
		fn := prog.Func("f")
		use := fn.Body.Stmts[2].(*lang.ReturnStmt).Value.(*lang.Ident)
		if use.Slot != 1 {
			t.Fatalf("x resolved to slot %d, want 1", use.Slot)
		}
		use.Slot = slot // 2 is y's
		v, err := New(prog, Config{Engine: EngineWalk}).Call("f", IntVal(3))
		if err == nil || !strings.Contains(err.Error(), `f: variable "x"`) {
			t.Errorf("slot %d: got %v, %v; want an error naming f and x", slot, v, err)
		}
	}
}

// TestWalkLoopAllocsFlat: a call-free loop over a list allocates nothing
// per trip on the walker — entering the body's block, declaring its var
// and reading and writing locals are slot accesses — so a walk's
// allocations do not grow with the list.
func TestWalkLoopAllocsFlat(t *testing.T) {
	prog := lang.MustParse(listSrc + `
function int walk(List *head) {
  var int s = 0;
  var List *p = head;
  while p != NULL {
    var int v = p->v;
    s = s + v;
    p = p->next;
  }
  return s;
}`)
	ip := New(prog, Config{Engine: EngineWalk})
	allocs := func(n int64) float64 {
		head, err := ip.Call("build", IntVal(n))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if v, err := ip.Call("walk", head); err != nil || v.I != n*(n+1)/2 {
				t.Fatalf("walk(%d) = %v, %v", n, v, err)
			}
		})
	}
	small, large := allocs(8), allocs(1024)
	if large > small {
		t.Errorf("walk over 1024 nodes: %.0f allocations, over 8: %.0f; want no growth", large, small)
	}
}

// TestWalkCallAllocs: calls and Real-mode forall iterations take their
// frames from the Interp's frame stack, so once it is warm a walk's
// allocations do not grow with the number of calls or trips. Tree
// recursion of depth 16 makes 4 096 times the calls of depth 4 and
// allocates the same; a forall whose body calls a function allocates
// the same at 4 096 trips as at 64, run in place or on a scheduler
// (whose per-window buffers the warm-up run sizes). Under the race
// detector the counts are not read: its instrumentation changes what
// allocates. CI's cost-gate step runs this test without it.
func TestWalkCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes what allocates")
	}
	prog := lang.MustParse(listSrc + `
function int sq(int x) { var int y = x * x; return y; }

function int tree(int d) {
  if d == 0 { return 1; }
  return tree(d - 1) + tree(d - 1);
}

procedure check(int n) {
  var List *fault = NULL;
  forall i = 1 to n {
    if sq(i) != i * i { fault->v = i; }
  }
}`)
	measure := func(ip *Interp, fn string, n int64, want int64) float64 {
		arg := IntVal(n)
		return testing.AllocsPerRun(5, func() {
			if v, err := ip.Call(fn, arg); err != nil || v.I != want {
				t.Fatalf("%s(%d) = %v, %v", fn, n, v, err)
			}
		})
	}
	ip := New(prog, Config{Engine: EngineWalk})
	if small, large := measure(ip, "tree", 4, 16), measure(ip, "tree", 16, 1<<16); large > small {
		t.Errorf("tree(16): %.0f allocations, tree(4): %.0f; want no growth with the calls", large, small)
	}
	for _, scheduled := range []bool{false, true} {
		cfg := Config{Engine: EngineWalk}
		var w *Interp // the one worker a scheduled window runs on, in index order
		if scheduled {
			cfg.Forall = func(_ lang.Pos, lo, hi int64, run func(w *Interp, k int64) error) error {
				for k := lo; k <= hi; k++ {
					if err := run(w, k); err != nil {
						return err
					}
				}
				return nil
			}
		}
		ip := New(prog, cfg)
		w = ip.Fork(nil)
		if small, large := measure(ip, "check", 64, 0), measure(ip, "check", 4096, 0); large > small {
			t.Errorf("scheduled=%v: a 4096-trip forall: %.0f allocations, 64 trips: %.0f; want no growth with the trips", scheduled, large, small)
		}
	}
}

// walkCall is one Interp.Call of a sequence run on one interpreter.
type walkCall struct {
	fn   string
	args []Value
}

// callResult is what one call of a sequence left: its value, its error
// text, what it added to the counters and what it printed.
type callResult struct {
	v, err, out string
	st          Stats
}

// runCalls runs calls in order on one interpreter of prog on eng.
func runCalls(prog *lang.Program, eng Engine, calls ...walkCall) []callResult {
	var out bytes.Buffer
	ip := New(prog, Config{Engine: eng, Output: &out})
	res := make([]callResult, len(calls))
	for i, c := range calls {
		before := ip.Stats()
		v, err := ip.Call(c.fn, c.args...)
		after := ip.Stats()
		res[i] = callResult{v: v.String(), out: out.String(), st: Stats{
			Steps:       after.Steps - before.Steps,
			Allocations: after.Allocations - before.Allocations,
			Barriers:    after.Barriers - before.Barriers,
		}}
		if err != nil {
			res[i].err = err.Error()
		}
		out.Reset()
	}
	return res
}

// walkMatchesVM runs calls on the walker and on the bytecode VM and
// fails unless every call left the same on both; it returns the
// walker's results.
func walkMatchesVM(t *testing.T, prog *lang.Program, calls ...walkCall) []callResult {
	t.Helper()
	walk, vm := runCalls(prog, EngineWalk, calls...), runCalls(prog, EngineBytecode, calls...)
	for i := range calls {
		if walk[i] != vm[i] {
			t.Errorf("%s: walker %+v, VM %+v", calls[i].fn, walk[i], vm[i])
		}
	}
	return walk
}

// TestReusedFrameReadsZero: a frame the walker reuses reads as a fresh
// one. A sibling call leaves 7, a node and true in its slots, and
// print("s", 7, n) leaves a string, an int and a node in its argument
// list; the next call, which gets that very frame, declares a pointer,
// a bool and an int with no initializer over those slots and reads
// NULL, false and 0. (The language has no string variables: a string
// reaches a frame only as a builtin's argument, which is why print's
// list is the frame that carries one here.)
func TestReusedFrameReadsZero(t *testing.T) {
	prog := lang.MustParse(listSrc + `
procedure dirty(int a, List *n) {
  var int x = 7;
  var List *p = new List;
  var bool b = true;
}

function int fresh() {
  var List *p;
  var bool b;
  var int x;
  if p != NULL { return 1; }
  if b { return 2; }
  if x != 0 { return 3; }
  return 0;
}

function int main() {
  var List *n = new List;
  dirty(7, n);
  var int r = fresh() * 10;
  print("s", 7, n);
  return r + fresh();
}`)
	if got := walkMatchesVM(t, prog, walkCall{fn: "main"}); got[0].v != "0" || got[0].err != "" {
		t.Errorf("main() = %s, %q; want 0: a reused slot read what its last call left", got[0].v, got[0].err)
	}
}

// TestCallAfterFailedCall: a Call that fails mid-recursion — a NULL
// data read at depth 5, with five frames live — leaves the interpreter
// as good as new: the next Call returns what it returns on a fresh
// interpreter and charges the same steps and allocations, on the
// walker as on the VM.
func TestCallAfterFailedCall(t *testing.T) {
	prog := lang.MustParse(listSrc + `
function int dive(int d, int fail) {
  var List *q = new List;
  var List *z = NULL;
  q->v = d;
  if d == fail { return z->v; }
  if d == 10 { return q->v; }
  return dive(d + 1, fail) + q->v;
}`)
	failing := walkCall{"dive", []Value{IntVal(0), IntVal(5)}}
	ok := walkCall{"dive", []Value{IntVal(0), IntVal(-1)}}
	got := walkMatchesVM(t, prog, failing, ok)
	fresh := walkMatchesVM(t, prog, ok)
	if !strings.Contains(got[0].err, "read through NULL") {
		t.Errorf("dive(0, 5) = %s, %q; want a NULL read", got[0].v, got[0].err)
	}
	if got[1] != fresh[0] || fresh[0].v != "55" {
		t.Errorf("after a failed call: %+v; on a fresh interpreter: %+v (want value 55)", got[1], fresh[0])
	}
}

// TestWalkRecursionPastPoolBound: recursion deeper than the frame
// stack keeps (depth 200, past its 64 entries) is still answered right,
// twice on one interpreter — the frames past the bound are simply not
// kept — and as the VM answers it.
func TestWalkRecursionPastPoolBound(t *testing.T) {
	prog := lang.MustParse(`
function int depth(int d) {
  var int here = d;
  if d == 0 { return 0; }
  var int below = depth(d - 1);
  return below + 1 + here - d;
}`)
	c := walkCall{"depth", []Value{IntVal(200)}}
	for i, r := range walkMatchesVM(t, prog, c, c) {
		if r.v != "200" || r.err != "" {
			t.Errorf("call %d: depth(200) = %s, %q; want 200", i, r.v, r.err)
		}
	}
}
