package interp

import (
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/nbody"
)

const checkListSrc = `
type List [X]
{ int v;
  List *next is uniquely forward along X;
};
`

func TestShapeCheckCycle(t *testing.T) {
	prog := lang.MustParse(checkListSrc + `
procedure main() {
  var List *a = new List;
  var List *b = new List;
  a->next = b;
  b->next = a;   // closes a forward cycle
}`)
	ip := New(prog, Config{ShapeChecks: true})
	if _, err := ip.Call("main"); err != nil {
		t.Fatal(err)
	}
	vs := ip.ShapeViolations()
	if len(vs) != 1 || vs[0].Kind != "cycle" {
		t.Fatalf("violations = %v", vs)
	}
	if !strings.Contains(vs[0].String(), "cycle of List along X") {
		t.Errorf("message = %s", vs[0])
	}
}

func TestShapeCheckSharing(t *testing.T) {
	prog := lang.MustParse(checkListSrc + `
procedure main() {
  var List *a = new List;
  var List *b = new List;
  var List *n = new List;
  a->next = n;
  b->next = n;   // n acquires a second in-edge along X
}`)
	ip := New(prog, Config{ShapeChecks: true})
	if _, err := ip.Call("main"); err != nil {
		t.Fatal(err)
	}
	vs := ip.ShapeViolations()
	if len(vs) != 1 || vs[0].Kind != "sharing" {
		t.Fatalf("violations = %v", vs)
	}
}

func TestShapeCheckRepairedSharingIsClean(t *testing.T) {
	// The §3.3.1 subtree-move pattern at runtime: sharing appears and
	// the repairing store removes the extra in-edge; only the transient
	// event is logged.
	prog := lang.MustParse(`
type Tree [down]
{ int v;
  Tree *left, *right is uniquely forward along down;
};
procedure main() {
  var Tree *p1 = new Tree;
  var Tree *p2 = new Tree;
  var Tree *c = new Tree;
  p2->left = c;
  p1->left = p2->left;   // transient sharing
  p2->left = NULL;       // repair
  var Tree *d = new Tree;
  p2->left = d;          // no new violation
}`)
	ip := New(prog, Config{ShapeChecks: true})
	if _, err := ip.Call("main"); err != nil {
		t.Fatal(err)
	}
	vs := ip.ShapeViolations()
	if len(vs) != 1 || vs[0].Kind != "sharing" {
		t.Fatalf("expected exactly the transient sharing event, got %v", vs)
	}
}

func TestShapeCheckFatal(t *testing.T) {
	prog := lang.MustParse(checkListSrc + `
procedure main() {
  var List *a = new List;
  a->next = a;
}`)
	ip := New(prog, Config{ShapeChecks: true, ShapeChecksFatal: true})
	if _, err := ip.Call("main"); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("fatal mode should abort with a cycle error, got %v", err)
	}
}

func TestShapeCheckCleanProgram(t *testing.T) {
	prog := lang.MustParse(checkListSrc + `
function List * build(int n) {
  var List *head = NULL;
  var int i = 0;
  while i < n {
    var List *node = new List;
    node->next = head;
    head = node;
    i = i + 1;
  }
  return head;
}
procedure main() {
  var List *h = build(100);
  var List *p = h;
  while p != NULL {
    p->v = 1;
    p = p->next;
  }
}`)
	ip := New(prog, Config{ShapeChecks: true, ShapeChecksFatal: true})
	if _, err := ip.Call("main"); err != nil {
		t.Fatal(err)
	}
	if vs := ip.ShapeViolations(); len(vs) != 0 {
		t.Errorf("clean program flagged: %v", vs)
	}
}

func TestShapeCheckBarnesHutCleanExceptInsertTransient(t *testing.T) {
	// The full Barnes-Hut run under runtime checks: insert_particle's
	// documented transient sharing appears (once per subdivision) and
	// nothing else; in particular, no cycles ever.
	prog := lang.MustParse(nbody.BarnesHutPSL)
	ip := New(prog, Config{ShapeChecks: true, Seed: 7})
	if _, err := ip.Call("simulate", IntVal(24), IntVal(1), RealVal(0.5), RealVal(0.01)); err != nil {
		t.Fatal(err)
	}
	for _, v := range ip.ShapeViolations() {
		if v.Kind != "sharing" || v.Dim != "down" {
			t.Errorf("unexpected runtime violation: %s", v)
		}
	}
}

// shapeViolationsOn runs main with shape checks on under eng and
// returns the rendered violations.
func shapeViolationsOn(t *testing.T, src string, eng Engine) []string {
	t.Helper()
	ip := New(lang.MustParse(src), Config{Engine: eng, ShapeChecks: true})
	if _, err := ip.Call("main"); err != nil {
		t.Fatalf("%s: %v", eng, err)
	}
	var out []string
	for _, v := range ip.ShapeViolations() {
		out = append(out, v.String())
	}
	return out
}

// TestShapeCheckSharedDimensionAcrossTypes: in-edges along a dimension
// are counted by its name, whatever record declares it and at whatever
// position it stands in that record's dimension list. A's X is its
// second dimension and B's its first; n's in-edge from a->c and its
// second from x->m are both along X, so the second store shares n.
func TestShapeCheckSharedDimensionAcrossTypes(t *testing.T) {
	const src = `
type B [X] { int w; B *m is uniquely forward along X; };
type A [Y][X] { int v; A *up is uniquely forward along Y; B *c is uniquely forward along X; };
procedure main() {
  var A *a = new A;
  var B *x = new B;
  var B *n = new B;
  a->c = n;
  x->m = n;
}`
	for _, eng := range []Engine{EngineWalk, EngineBytecode} {
		got := shapeViolationsOn(t, src, eng)
		want := []string{"9:4: runtime sharing of B along X"}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: violations = %q, want %q", eng, got, want)
		}
	}
}

// TestShapeCheckPointerArraySharing: a pointer-array element is checked
// like a plain pointer field, at a constant or a computed index.
func TestShapeCheckPointerArraySharing(t *testing.T) {
	const src = `
type T [down] { int v; T *kids[2] is uniquely forward along down; };
procedure main() {
  var T *a = new T;
  var T *b = new T;
  var T *n = new T;
  var int i = 1;
  a->kids[i] = n;
  b->kids[0] = n;
  a->kids[i] = NULL;
  b->kids[i] = n;
}`
	for _, eng := range []Engine{EngineWalk, EngineBytecode} {
		got := shapeViolationsOn(t, src, eng)
		want := []string{"9:4: runtime sharing of T along down", "11:4: runtime sharing of T along down"}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: violations = %q, want %q", eng, got, want)
		}
	}
}

// TestShapeCheckedStoreAllocs: with shape checks on, a warmed
// interpreter relinks an existing list — reversing it in place, every
// store into a node that exists, no `new` — without allocating: the
// in-edge counts and the cycle walk's visited set and stack are the
// checker's, reused. The cost is read as a reversal of n nodes less a
// reversal of none. Under the race detector the counts are not read.
func TestShapeCheckedStoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes what allocates")
	}
	prog := lang.MustParse(checkListSrc + `
function List * build(int n) {
  var List *head = NULL;
  var int i = 0;
  while i < n {
    var List *node = new List;
    node->next = head;
    head = node;
    i = i + 1;
  }
  return head;
}
function List * reverse(List *p) {
  var List *prev = NULL;
  while p != NULL {
    var List *next = p->next;
    p->next = prev;
    prev = p;
    p = next;
  }
  return prev;
}`)
	for _, eng := range []Engine{EngineWalk, EngineBytecode} {
		ip := New(prog, Config{Engine: eng, ShapeChecks: true, ShapeChecksFatal: true})
		const n = 256
		list, err := ip.Call("build", IntVal(n))
		if err != nil {
			t.Fatal(err)
		}
		relink := func(head Value) func() {
			return func() {
				v, err := ip.Call("reverse", head)
				if err != nil || v.IsNull() != head.IsNull() {
					t.Fatalf("%s: reverse = %v, %v", eng, v, err)
				}
				head = v
			}
		}
		perStore := (testing.AllocsPerRun(10, relink(list)) - testing.AllocsPerRun(10, relink(NullVal()))) / n
		if perStore != 0 {
			t.Errorf("%s: a checked store costs %.2f allocations, want 0", eng, perStore)
		}
		if vs := ip.ShapeViolations(); len(vs) != 0 {
			t.Errorf("%s: relinking flagged %v", eng, vs)
		}
	}
}
