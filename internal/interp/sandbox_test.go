// Sandbox tests: the per-run budgets (MaxSteps, MaxAllocs,
// MaxOutputBytes) and Ctx cancellation that the serving layer
// (internal/serve) relies on to run untrusted programs, asserted
// equivalent between the walker and the bytecode VM — the error paths
// stay inside the "one VM, one oracle" contract (the kernel engine's
// budget behaviour is the VM's: a strip under pressure declines and the
// scalar path raises; serve's TestBudgetsMidStrip pins that). Also the
// compile-once/share-everywhere contract behind internal/compile's
// immutability note: one compiled program executed from 16 goroutines
// under the race detector.
package interp

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lang"
)

// sandboxEngines is the engine matrix the budget trips are asserted
// identical across.
var sandboxEngines = []Engine{EngineWalk, EngineBytecode}

const sandboxSrc = `
type Cell [X]
{ int v;
  Cell *next is uniquely forward along X;
};

function int alloc_bomb(int n) {
  var int i = 0;
  while i < n {
    var Cell *t = new Cell;
    t->v = i;
    i = i + 1;
  }
  return i;
}

function int print_bomb(int n) {
  var int i = 0;
  while i < n {
    print("line", i);
    i = i + 1;
  }
  return i;
}

function int spin(int n) {
  var int i = 0;
  while i < n {
    i = i + 1;
  }
  return i;
}
`

// runAll executes fn under every engine with the same config and
// returns (error string, output) per engine, indexed like
// sandboxEngines.
func runAll(t *testing.T, cfg Config, fn string, args ...Value) (errs [2]string, outs [2]string) {
	t.Helper()
	prog, err := lang.Parse(sandboxSrc)
	if err != nil {
		t.Fatal(err)
	}
	for i, eng := range sandboxEngines {
		var out bytes.Buffer
		c := cfg
		c.Engine = eng
		c.Output = &out
		ip := New(prog, c)
		_, err := ip.Call(fn, args...)
		if err != nil {
			errs[i] = err.Error()
		}
		outs[i] = out.String()
	}
	return errs, outs
}

// TestMaxAllocsEquivalence: the allocation budget trips at the same
// deterministic allocation in every engine, with the same message.
func TestMaxAllocsEquivalence(t *testing.T) {
	errs, _ := runAll(t, Config{MaxAllocs: 10}, "alloc_bomb", IntVal(100))
	for i, e := range errs {
		if !strings.Contains(e, "allocation limit exceeded (10)") {
			t.Errorf("engine %s: error %q, want allocation limit", sandboxEngines[i], e)
		}
		if e != errs[0] {
			t.Errorf("engines disagree: %s %q vs %s %q", sandboxEngines[0], errs[0], sandboxEngines[i], e)
		}
	}
	// Under the budget, the same program runs to completion.
	errs, _ = runAll(t, Config{MaxAllocs: 100}, "alloc_bomb", IntVal(100))
	for i, e := range errs {
		if e != "" {
			t.Errorf("engine %s: within budget should succeed: %q", sandboxEngines[i], e)
		}
	}
}

// TestMaxStepsEquivalence: the step limit trips in every engine with
// the same message. The VM may attribute its chunk flush to a
// neighboring statement (limits fire at engine-specific instants, the
// long-standing fuzzer carve-out), so positions are not compared.
func TestMaxStepsEquivalence(t *testing.T) {
	errs, _ := runAll(t, Config{MaxSteps: 1000}, "spin", IntVal(1_000_000))
	for i, e := range errs {
		if !strings.Contains(e, "step limit exceeded (1000)") {
			t.Errorf("engine %s: error %q, want step limit", sandboxEngines[i], e)
		}
	}
	errs, _ = runAll(t, Config{MaxSteps: 10_000_000}, "spin", IntVal(1000))
	for i, e := range errs {
		if e != "" {
			t.Errorf("engine %s: within budget should succeed: %q", sandboxEngines[i], e)
		}
	}
}

// TestMaxOutputBytesEquivalence: the output cap aborts every engine at
// the same print with the same message, and the bytes emitted before
// the cap are identical.
func TestMaxOutputBytesEquivalence(t *testing.T) {
	errs, outs := runAll(t, Config{MaxOutputBytes: 20}, "print_bomb", IntVal(100))
	for i, e := range errs {
		if !strings.Contains(e, "output limit exceeded (20 bytes)") {
			t.Errorf("engine %s: error %q, want output limit", sandboxEngines[i], e)
		}
		if e != errs[0] {
			t.Errorf("engines disagree: %s %q vs %s %q", sandboxEngines[0], errs[0], sandboxEngines[i], e)
		}
		if outs[i] != outs[0] {
			t.Errorf("partial output differs: %s %q vs %s %q", sandboxEngines[0], outs[0], sandboxEngines[i], outs[i])
		}
	}
	if len(outs[0]) > 20 {
		t.Errorf("emitted %d bytes, cap is 20: %q", len(outs[0]), outs[0])
	}
}

// TestCtxCancelledAtEntry: a context that is dead before Call starts
// fails identically in every engine, before any execution.
func TestCtxCancelledAtEntry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errs, outs := runAll(t, Config{Ctx: ctx}, "spin", IntVal(10))
	want := "interp: run cancelled: context canceled"
	for i, e := range errs {
		if e != want {
			t.Errorf("engine %s: error %q, want %q", sandboxEngines[i], e, want)
		}
		if outs[i] != "" {
			t.Errorf("engine %s: produced output %q before cancelled start", sandboxEngines[i], outs[i])
		}
	}
}

// TestCtxDeadlineMidRun: a deadline expiring mid-run cuts a long loop
// off in every engine, well before the step limit would.
func TestCtxDeadlineMidRun(t *testing.T) {
	prog, err := lang.Parse(sandboxSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range sandboxEngines {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		ip := New(prog, Config{Engine: eng, Ctx: ctx})
		start := time.Now()
		_, err := ip.Call("spin", IntVal(4_000_000_000))
		cancel()
		if err == nil || !strings.Contains(err.Error(), "run cancelled") {
			t.Fatalf("engine %s: err = %v, want mid-run cancellation", eng, err)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("engine %s: cancellation took %v", eng, el)
		}
	}
}

// TestBytecodeProgramSharedAcrossGoroutines enforces
// internal/compile's immutability contract: code is built exactly once
// (via CompileProgram, the serving layer's cache-insert path) and the
// bytecode Program is immutable after lowering, so 16 goroutines
// execute the same flat code concurrently through one handle, each
// over its own register banks. Run under -race in CI; results and
// output must agree across all goroutines, with zero compile work
// during execution.
func TestBytecodeProgramSharedAcrossGoroutines(t *testing.T) {
	prog, err := lang.Parse(sandboxSrc)
	if err != nil {
		t.Fatal(err)
	}
	cp := CompileProgram(prog)
	if err := cp.Err(); err != nil {
		t.Fatal(err)
	}
	before := CompileCount()
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]int64, goroutines)
	outputs := make([]string, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out bytes.Buffer
			ip := NewCompiled(cp, Config{Engine: EngineBytecode, Output: &out})
			v, err := ip.Call("print_bomb", IntVal(50))
			results[i], outputs[i], errs[i] = v.I, out.String(), err
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != 50 || outputs[i] != outputs[0] {
			t.Errorf("goroutine %d: result %d output %q diverged", i, results[i], outputs[i])
		}
	}
	if n := CompileCount() - before; n != 0 {
		t.Errorf("%d extra compiles during concurrent execution; running a handle must do zero compile work", n)
	}
}
