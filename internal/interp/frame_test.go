package interp

import (
	"strings"
	"testing"

	"repro/internal/lang"
)

// The walker's frame is one []Value per call, indexed by the checker's
// slots. These tests pin what that costs and what it refuses.

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
