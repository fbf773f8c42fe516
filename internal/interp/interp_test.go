package interp

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/lang"
)

func run(t *testing.T, src, fn string, args ...Value) (Value, string) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ip := New(prog, Config{Output: &out, Seed: 1})
	v, err := ip.Call(fn, args...)
	if err != nil {
		t.Fatalf("run %s: %v", fn, err)
	}
	return v, out.String()
}

const listSrc = `
type List [X]
{ int v;
  List *next is uniquely forward along X;
};

function List * build(int n) {
  var List *head = NULL;
  var int i = n;
  while i > 0 {
    var List *node = new List;
    node->v = i;
    node->next = head;
    head = node;
    i = i - 1;
  }
  return head;
}

function int sum(List *head) {
  var int s = 0;
  var List *p = head;
  while p != NULL {
    s = s + p->v;
    p = p->next;
  }
  return s;
}
`

func TestListBuildAndSum(t *testing.T) {
	v, _ := run(t, listSrc+`
function int main() {
  var List *h = build(10);
  return sum(h);
}`, "main")
	if v.I != 55 {
		t.Errorf("sum = %d, want 55", v.I)
	}
}

func TestArithmeticAndPrint(t *testing.T) {
	_, out := run(t, `
procedure main() {
  var int i = 7 % 3;
  var real r = 1.5 * 4.0;
  var bool b = 3 < 4 && !(2 >= 5);
  print(i, r, b, "done");
  print(10 / 3, -2, sqrt(16.0), abs(-3.5));
}`, "main")
	want := "1 6 true done\n3 -2 4 3.5\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestSpeculativeTraversability(t *testing.T) {
	// Walking next past the end yields NULL rather than faulting (§3.2).
	v, _ := run(t, listSrc+`
function bool main() {
  var List *h = build(2);
  var List *p = h;
  var int i = 0;
  while i < 10 {
    p = p->next;
    i = i + 1;
  }
  return p == NULL;
}`, "main")
	if !v.B {
		t.Error("speculative walk should settle at NULL")
	}
}

func TestDataFieldThroughNullFaults(t *testing.T) {
	prog := lang.MustParse(listSrc + `
function int main() {
  var List *p = NULL;
  return p->v;
}`)
	ip := New(prog, Config{})
	if _, err := ip.Call("main"); err == nil {
		t.Error("data-field read through NULL must fault even speculatively")
	}
}

func TestForLoops(t *testing.T) {
	v, _ := run(t, `
function int main() {
  var int s = 0;
  for i = 1 to 5 {
    s = s + i;
  }
  for i = 5 to 1 {
    s = s + 100;   // empty range: from > to
  }
  return s;
}`, "main")
	if v.I != 15 {
		t.Errorf("s = %d, want 15", v.I)
	}
}

func TestForallRealMode(t *testing.T) {
	// Parallel iterations write disjoint nodes; result must equal the
	// sequential sum.
	src := listSrc + `
procedure scale_at(int i, List *head) {
  var List *p = head;
  for k = 1 to i {
    p = p->next;
  }
  if p != NULL {
    p->v = p->v * 2;
  }
}

function int main() {
  var List *h = build(8);
  forall i = 0 to 7 {
    scale_at(i, h);
  }
  return sum(h);
}`
	v, _ := run(t, src, "main")
	if v.I != 72 { // 2 * 36
		t.Errorf("parallel scaled sum = %d, want 72", v.I)
	}
}

func TestForallSimulatedTiming(t *testing.T) {
	src := `
procedure work(int i) {
  var int s = 0;
  for k = 1 to 1000 {
    s = s + k;
  }
}

procedure main() {
  forall i = 0 to 3 {
    work(i);
  }
}`
	prog := lang.MustParse(src)

	run := func(pes int) int64 {
		ip := New(prog, Config{Mode: Simulated, PEs: pes})
		if _, err := ip.Call("main"); err != nil {
			t.Fatal(err)
		}
		return ip.Stats().Cycles
	}
	t1, t2, t4 := run(1), run(2), run(4)
	if !(t4 < t2 && t2 < t1) {
		t.Errorf("simulated cycles must shrink with PEs: %d, %d, %d", t1, t2, t4)
	}
	// 4 identical iterations on 4 PEs: elapsed ≈ 1 iteration + barrier;
	// on 1 PE: 4 iterations + barrier. The (deliberately large) barrier
	// cost keeps the observed gap below the ideal 4x.
	if t1 < 2*t4 {
		t.Errorf("expected a clear parallel win, got t1=%d t4=%d", t1, t4)
	}
	// Work is conserved (modulo the barrier accounting).
	ip := New(prog, Config{Mode: Simulated, PEs: 4})
	if _, err := ip.Call("main"); err != nil {
		t.Fatal(err)
	}
	st := ip.Stats()
	if st.WorkCycles <= st.Cycles {
		t.Errorf("work %d should exceed elapsed %d on 4 PEs", st.WorkCycles, st.Cycles)
	}
	if st.Barriers != 1 {
		t.Errorf("barriers = %d, want 1", st.Barriers)
	}
}

func TestRecursion(t *testing.T) {
	v, _ := run(t, `
function int fib(int n) {
  if n < 2 {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}
function int main() {
  return fib(15);
}`, "main")
	if v.I != 610 {
		t.Errorf("fib(15) = %d, want 610", v.I)
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	prog := lang.MustParse(`
function int inf(int n) {
  return inf(n + 1);
}`)
	ip := New(prog, Config{MaxDepth: 100})
	if _, err := ip.Call("inf", IntVal(0)); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("expected depth error, got %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	prog := lang.MustParse(`
procedure main() {
  var int i = 0;
  while true {
    i = i + 1;
  }
}`)
	ip := New(prog, Config{MaxSteps: 1000})
	if _, err := ip.Call("main"); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("expected step limit error, got %v", err)
	}
}

func TestRandDeterminism(t *testing.T) {
	src := `
function real main() {
  var real s = 0.0;
  for i = 1 to 100 {
    var real r = rand();
    if r < 0.0 {
      s = s - 1000.0;
    }
    if r >= 1.0 {
      s = s + 1000.0;
    }
    s = s + r;
  }
  return s;
}`
	prog := lang.MustParse(src)
	v1, err := New(prog, Config{Seed: 42}).Call("main")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := New(prog, Config{Seed: 42}).Call("main")
	if err != nil {
		t.Fatal(err)
	}
	if v1.F != v2.F {
		t.Errorf("rand not deterministic: %g vs %g", v1.F, v2.F)
	}
	if v1.F < 20 || v1.F > 80 {
		t.Errorf("mean of 100 uniforms suspicious: %g", v1.F)
	}
	v3, err := New(prog, Config{Seed: 43}).Call("main")
	if err != nil {
		t.Fatal(err)
	}
	if v3.F == v1.F {
		t.Error("different seeds should give different streams")
	}
}

func TestPointerArrays(t *testing.T) {
	v, _ := run(t, `
type Tree [down]
{ int v;
  Tree *kids[4] is uniquely forward along down;
};

function int total(Tree *t) {
  if t == NULL {
    return 0;
  }
  var int s = t->v;
  for i = 0 to 3 {
    s = s + total(t->kids[i]);
  }
  return s;
}

function int main() {
  var Tree *root = new Tree;
  root->v = 1;
  for i = 0 to 3 {
    var Tree *c = new Tree;
    c->v = 10;
    root->kids[i] = c;
  }
  return total(root);
}`, "main")
	if v.I != 41 {
		t.Errorf("total = %d, want 41", v.I)
	}
}

func TestIndexOutOfRange(t *testing.T) {
	prog := lang.MustParse(`
type Tree [down]
{ int v;
  Tree *kids[4] is uniquely forward along down;
};
function Tree * main() {
  var Tree *root = new Tree;
  return root->kids[9];
}`)
	if _, err := New(prog, Config{}).Call("main"); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("expected range error, got %v", err)
	}
}

func TestDivisionByZero(t *testing.T) {
	prog := lang.MustParse(`
function int main() {
  var int z = 0;
  return 3 / z;
}`)
	if _, err := New(prog, Config{}).Call("main"); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("expected div-zero error, got %v", err)
	}
}

func TestHelpers(t *testing.T) {
	prog := lang.MustParse(listSrc)
	ip := New(prog, Config{})
	h, err := ip.Call("build", IntVal(3))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := Field(h, "v"); v.I != 1 {
		t.Errorf("Field = %v", v)
	}
	if _, err := Field(h, "nosuch"); err == nil {
		t.Error("a missing field must fail")
	}
	nx, err := FieldPtr(h, "next")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := Field(nx, "v"); v.I != 2 {
		t.Errorf("next v = %v", v)
	}
	if ip.Stats().Allocations != 3 {
		t.Errorf("allocations = %d", ip.Stats().Allocations)
	}
}

func TestBlockScheduling(t *testing.T) {
	// 8 iterations, 2 PEs: block gives PE0 iterations 0-3. With equal
	// work the elapsed time matches cyclic.
	src := `
procedure work(int i) {
  var int s = 0;
  for k = 1 to 100 { s = s + k; }
}
procedure main() {
  forall i = 0 to 7 { work(i); }
}`
	prog := lang.MustParse(src)
	ipC := New(prog, Config{Mode: Simulated, PEs: 2, Sched: Cyclic})
	if _, err := ipC.Call("main"); err != nil {
		t.Fatal(err)
	}
	ipB := New(prog, Config{Mode: Simulated, PEs: 2, Sched: Block})
	if _, err := ipB.Call("main"); err != nil {
		t.Fatal(err)
	}
	if ipC.Stats().Cycles != ipB.Stats().Cycles {
		t.Errorf("uniform work: cyclic %d vs block %d should match", ipC.Stats().Cycles, ipB.Stats().Cycles)
	}
}

// TestCallRejectsMismatchedArgs: Call widens an int argument of a real
// parameter and refuses any other argument whose kind does not fit its
// parameter, and a node of another record type or of another program's
// declaration of the same name, with one error on every engine, before
// any engine runs. Each engine once read the wrong kind's zero field
// instead (a real passed for an int ran as 0, an int for a bool as
// false, an int for a pointer as NULL), and the VM indexed a node of
// another type, or of another program's, at the parameter type's
// offsets.
func TestCallRejectsMismatchedArgs(t *testing.T) {
	prog := lang.MustParse(listSrc + `
type Pair [Y] { int a; real c; Pair *p is uniquely forward along Y; Pair *q is uniquely forward along Y; };
function int twice(int x) { return x + x; }
function real half(real x) { return x / 2; }
function bool not(bool b) { return !b; }
function bool empty(List *l) { return l == NULL; }
function real second(Pair *x) { return x->c + x->q->c; }
function int value(List *l) { return l->v; }
`)
	list, _, err := Run(prog, Config{}, "build", IntVal(2))
	if err != nil {
		t.Fatal(err)
	}
	// Another program's List has no data field: read at this program's
	// offset of v, it had the VM index past its words and panic.
	foreign, _, err := Run(lang.MustParse(`type List [X] { List *next is uniquely forward along X; };
function List * mk() { return new List; }`), Config{}, "mk")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		fn   string
		arg  Value
		want string // the result, or the error
	}{
		{"twice", IntVal(21), "42"},
		{"twice", RealVal(1.5), "interp: twice: argument 1 is real, not int"},
		{"half", IntVal(3), "1.5"},
		{"half", BoolVal(true), "interp: half: argument 1 is bool, not real"},
		{"not", BoolVal(false), "true"},
		{"not", IntVal(1), "interp: not: argument 1 is int, not bool"},
		{"empty", NullVal(), "true"},
		{"empty", IntVal(0), "interp: empty: argument 1 is int, not List*"},
		{"empty", RealVal(0), "interp: empty: argument 1 is real, not List*"},
		{"build", NullVal(), "interp: build: argument 1 is ptr, not int"},
		{"empty", list, "false"},
		{"second", list, "interp: second: argument 1 is List*, not Pair*"},
		{"twice", list, "interp: twice: argument 1 is List*, not int"},
		{"value", foreign, "interp: value: argument 1 is another program's List*, not List*"},
	}
	configs := map[string]Config{
		"walk":      {Engine: EngineWalk},
		"bytecode":  {Engine: EngineBytecode},
		"kernel":    {Engine: EngineKernel},
		"simulated": {Mode: Simulated},
	}
	for name, cfg := range configs {
		for _, c := range cases {
			var out bytes.Buffer
			cfg.Output = &out
			v, st, err := Run(prog, cfg, c.fn, c.arg)
			got := v.String()
			if err != nil {
				got = err.Error()
				if st.Steps != 0 || out.Len() != 0 {
					t.Errorf("%s: %s(%v) ran %d steps before failing", name, c.fn, c.arg, st.Steps)
				}
			}
			if got != c.want {
				t.Errorf("%s: %s(%s %s) = %q, want %q", name, c.fn, c.arg.Kind, c.arg, got, c.want)
			}
		}
	}
}

// TestValueSize: a Value is five words, a kind and one field for each
// of int, real, bool and pointer; no value is a string.
func TestValueSize(t *testing.T) {
	if sz := unsafe.Sizeof(Value{}); sz != 40 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 40", sz)
	}
}

// TestNodeSize: a Node is its declaration, its data words, its pointer
// slots and its id — 64 bytes, Go's 64-byte size class. Its type name
// is its declaration's, and the shape checker's in-edge counts live in
// the checker's own table.
func TestNodeSize(t *testing.T) {
	if sz := unsafe.Sizeof(Node{}); sz != 64 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, want 64", sz)
	}
}
