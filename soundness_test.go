// Planner soundness, first leg (ROADMAP item 1(a)): the paper's
// deliverable is a safety verdict — an approved loop's iterations are
// independent — and independent iterations give the same answer in any
// order. The engine grid and the plan goldens pin what the planner said;
// this file runs what it approved in the order a serial run never uses
// and compares with the serial run of the program it was handed.
package repro

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/adds"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/transform"
)

// probeRun is what the order probe compares of one run on the walker.
type probeRun struct {
	value, output string
	st            interp.Stats
	err           error
}

// walkRun runs fn on the walking oracle, serially — every forall in
// place, in index order — or, reversed, with every forall window's
// iterations executed last to first, one after another, each on a fresh
// fork of the root. The reversed scheduler runs every iteration whatever
// an earlier one returned, as the ForallScheduler contract asks; the
// interpreter keeps what a serial run would have left of the window —
// output flushed in index order up to the first failing iteration, that
// iteration's error, the later iterations' counts taken back — so a
// reversed run differs from the serial one only through an order
// dependence. walkRun also returns how many windows the scheduler was
// handed.
func walkRun(prog *lang.Program, seed uint64, fn string, args []interp.Value, reversed bool) (probeRun, int) {
	var out bytes.Buffer
	var root *interp.Interp
	foralls := 0
	cfg := interp.Config{Engine: interp.EngineWalk, Seed: seed, Output: &out}
	if reversed {
		cfg.Forall = func(_ lang.Pos, from, to int64, run func(w *interp.Interp, k int64) error) error {
			foralls++
			for k := to; k >= from; k-- {
				_ = run(root.Fork(io.Discard), k) // the interpreter keeps the error
			}
			return nil
		}
	}
	root = interp.New(prog, cfg)
	v, err := root.Call(fn, args...)
	return probeRun{value: v.String(), output: out.String(), st: root.Stats(), err: err}, foralls
}

// orderSensitive is the probe: it runs ref serially, and par both
// serially and with every forall reversed, all on the walker, and
// describes how the reversed run disagrees ("" when it does not). The
// reversed run must give ref's error text, value, print output and
// allocation count, and par's serial step and barrier counts (strip-
// mining adds steps, so those are par's own). foralls is how many
// windows the reversed run executed. A program that fails serially
// (serialErr) must fail the same way reversed.
func orderSensitive(ref, par *lang.Program, seed uint64, fn string, args []interp.Value) (diff string, foralls int, serialErr error) {
	serial, _ := walkRun(ref, seed, fn, args, false)
	inPlace, _ := walkRun(par, seed, fn, args, false)
	got, foralls := walkRun(par, seed, fn, args, true)
	switch {
	case fmt.Sprint(got.err) != fmt.Sprint(serial.err):
		diff = fmt.Sprintf("reversed run: %v; serial run: %v", got.err, serial.err)
	case serial.err == nil && got.value != serial.value:
		diff = fmt.Sprintf("value %s with foralls reversed, %s serially", got.value, serial.value)
	case got.output != serial.output:
		diff = fmt.Sprintf("output with foralls reversed:\n%s\nserially:\n%s", got.output, serial.output)
	case got.st.Allocations != serial.st.Allocations:
		diff = fmt.Sprintf("%d allocations with foralls reversed, %d serially", got.st.Allocations, serial.st.Allocations)
	case got.st.Steps != inPlace.st.Steps || got.st.Barriers != inPlace.st.Barriers:
		diff = fmt.Sprintf("%d steps and %d barriers with foralls reversed, %d and %d in place",
			got.st.Steps, got.st.Barriers, inPlace.st.Steps, inPlace.st.Barriers)
	}
	return diff, foralls, serial.err
}

// TestApprovedLoopsAreOrderInsensitive: for every corpus program, what
// core.AutoParallel approved computes the serial program's value,
// output and allocations, and its own in-place steps and barriers,
// when each strip runs backwards.
func TestApprovedLoopsAreOrderInsensitive(t *testing.T) {
	for _, p := range equivalenceCorpus(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			c, err := core.Compile(p.src)
			if err != nil {
				t.Fatal(err)
			}
			auto, err := c.AutoParallel(8)
			if err != nil {
				t.Fatal(err)
			}
			diff, foralls, err := orderSensitive(c.Program, auto.Program, p.seed, p.fn, p.args)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			if diff != "" {
				t.Errorf("an approved loop depends on iteration order: %s\n%s", diff, auto.Plan)
			}
			if auto.Plan.Parallelized > 0 && foralls == 0 {
				t.Errorf("the plan approved %d loops and the run reached no forall: the probe saw nothing", auto.Plan.Parallelized)
			}
			t.Logf("%d approved loops, %d foralls reversed", auto.Plan.Parallelized, foralls)
		})
	}
}

// carriedForall is a loop the planner would never approve, written as a
// forall by hand: iteration i stores into the node iteration i+1 reads.
const carriedForall = `
type OneWayList [X]
{ int data;
  OneWayList *next is uniquely forward along X;
};

function int main() {
  var OneWayList *head = NULL;
  var int i = 0;
  while i < 8 {
    var OneWayList *t = new OneWayList;
    t->next = head;
    head = t;
    i = i + 1;
  }
  forall k = 0 to 6 {
    var OneWayList *p = head;
    var int j = 0;
    while j < k {
      p = p->next;
      j = j + 1;
    }
    p->next->data = p->data + 1;
  }
  var int s = 0;
  var OneWayList *q = head;
  while q != NULL {
    s = s + q->data;
    q = q->next;
  }
  return s;
}
`

// TestOrderProbeCanFail: the probe flags a forall whose iterations are
// not independent, so a green TestApprovedLoopsAreOrderInsensitive
// means something.
func TestOrderProbeCanFail(t *testing.T) {
	prog, err := lang.Parse(carriedForall)
	if err != nil {
		t.Fatal(err)
	}
	diff, foralls, err := orderSensitive(prog, prog, 0, "main", nil)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if foralls != 1 {
		t.Fatalf("%d foralls reversed, want 1", foralls)
	}
	if diff == "" {
		t.Fatal("a forall that writes p->next->data ran backwards unnoticed")
	}
	t.Log(diff)
}

// genDriver is the one entry point appended to every generated program
// (transform.GenLoopProgramPSL): two short lists, every generated
// procedure called on them in order (the %s), a checksum over both.
const genDriver = `
function OneWayList * gen_list(int n, int base) {
  var OneWayList *head = NULL;
  var int i = 0;
  while i < n {
    var OneWayList *t = new OneWayList;
    t->data = base + i;
    t->next = head;
    head = t;
    i = i + 1;
  }
  return head;
}
function int gen_main(int n) {
  var OneWayList *head = gen_list(5, 1);
  var OneWayList *other = gen_list(3, 100);
%s  return total(head) * 31 + total(other);
}
`

// genShapes are the three statement kinds the generator emits for
// ROADMAP item 1(b), each recognised by the line that opens it.
var genShapes = []struct {
	name string
	line *regexp.Regexp
}{
	{"alias of the loop handle", regexp.MustCompile(`^\s*var OneWayList \*a\d+ = \w+;$`)},
	{"neighbour read beside an own-node write", regexp.MustCompile(`^\s*if \w+->next != NULL \{$`)},
	{"literal NULL for a pointer parameter", regexp.MustCompile(`^\s*(spread\(NULL, 1\)|\w+->data = total\(NULL\));$`)},
}

// enclosingLoop returns the 1-based line of the innermost while loop
// around line i (0-based) of a generated program's lines, 0 when there
// is none. The generator indents each statement by its nesting depth,
// so that loop is the nearest line above, indented less, that opens a
// while.
func enclosingLoop(lines []string, i int) int {
	indent := func(l string) int { return len(l) - len(strings.TrimLeft(l, " ")) }
	d := indent(lines[i])
	for j := i - 1; j >= 0; j-- {
		if lines[j] == "}" {
			return 0 // the end of the procedure before it
		}
		if indent(lines[j]) < d && strings.HasPrefix(strings.TrimSpace(lines[j]), "while ") {
			return j + 1
		}
	}
	return 0
}

// TestGeneratedApprovedLoopsAreOrderInsensitive is the corpus probe
// over the shapes the corpus lacks: sibling and nested list loops,
// bodies calling procedures that hold approved loops, recursive
// callees, loop-carried scalars, and the three of genShapes. A failing
// seed is a planner soundness bug. A generated procedure may be handed
// p->next at a list's last node and read through it; such a program
// fails serially, and the probe then requires the reversed run to fail
// with the same error. It logs, per shape of genShapes, how many seeds
// place it inside a loop the planner tested (it tests every while
// loop) and how many inside one that runs as parallel iterations
// (approved, or absorbed into an approved loop); each must occur in a
// tested loop at least once, or the probe says nothing about it.
func TestGeneratedApprovedLoopsAreOrderInsensitive(t *testing.T) {
	withApproval, failing := 0, 0
	tested := make([]int, len(genShapes))
	parallel := make([]int, len(genShapes))
	for seed := int64(1); seed <= 50; seed++ {
		gen := transform.GenLoopProgramPSL(seed)
		var calls strings.Builder
		for i := 0; strings.Contains(gen, fmt.Sprintf("procedure f%d(", i)); i++ {
			fmt.Fprintf(&calls, "  f%d(head, other, n);\n", i)
		}
		src := gen + fmt.Sprintf(genDriver, calls.String())
		c, err := core.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		auto, err := c.AutoParallel(8)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if auto.Plan.Parallelized > 0 {
			withApproval++
		}
		verdict := map[int]*transform.LoopPlan{}
		for _, lp := range auto.Plan.Loops {
			verdict[lp.Pos.Line] = lp
		}
		lines := strings.Split(gen, "\n")
		for k, sh := range genShapes {
			inTested, inParallel := false, false
			for i, l := range lines {
				if !sh.line.MatchString(l) {
					continue
				}
				if lp := verdict[enclosingLoop(lines, i)]; lp != nil {
					inTested = true
					inParallel = inParallel || lp.Parallelized || lp.Absorbed
				}
			}
			if inTested {
				tested[k]++
			}
			if inParallel {
				parallel[k]++
			}
		}
		diff, _, serialErr := orderSensitive(c.Program, auto.Program, 0, "gen_main", []interp.Value{interp.IntVal(3)})
		if serialErr != nil {
			failing++
		}
		if diff != "" {
			t.Errorf("seed %d: an approved loop depends on iteration order: %s\n%s\n%s", seed, diff, auto.Plan, src)
		}
	}
	t.Logf("%d of 50 seeds had at least one approved loop; %d fail serially, identically reversed", withApproval, failing)
	for k, sh := range genShapes {
		t.Logf("%s: inside a tested loop in %d seeds, inside parallel iterations in %d", sh.name, tested[k], parallel[k])
		if tested[k] == 0 {
			t.Errorf("no seed places the %s inside a tested loop", sh.name)
		}
	}
}

// nullArgList is the list and driver the NULL-argument programs share:
// a five-node list, the procedure under test (the %s) run over it, and
// a checksum that weighs every node's data by its position, so a write
// that lands on the wrong node or in the wrong order shows.
const nullArgList = `
type OneWayList [X]
{ int data;
  OneWayList *next is uniquely forward along X;
};

function int main() {
  var OneWayList *head = NULL;
  var int i = 0;
  while i < 5 {
    var OneWayList *t = new OneWayList;
    t->data = 10 + i;
    t->next = head;
    head = t;
    i = i + 1;
  }
  walk(head);
  var int s = 0;
  var OneWayList *q = head;
  i = 1;
  while q != NULL {
    s = s + i * q->data;
    print(q->data);
    q = q->next;
    i = i + 1;
  }
  return s;
}
%s`

// TestNullArgumentLoops covers the shape ROADMAP item 1(b) lists last:
// a loop body that passes a literal NULL for a pointer parameter of a
// callee that writes through it. Effects maps a callee's
// parameter-anchored accesses onto the regions of the caller's
// argument, and NULL has none, so the write through the parameter
// itself drops out of the caller's summary. The three forms: the callee
// writes through the parameter as it is (approved; the program faults on
// the first iteration, serially and reversed alike); it first replaces
// a NULL parameter with the induction pointer (approved: each iteration
// writes its own node, reached through the second parameter); it
// replaces it with the list head (rejected: every iteration writes
// head->data, reached the same way). Each verdict and its reason are
// pinned, and every approved loop must pass the order probe.
func TestNullArgumentLoops(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		approved  bool
		reason    string
		serialErr string // the run's error, "<nil>" for none
	}{
		{name: "plain write", src: `
procedure set(OneWayList *q, int v) {
  q->data = v;
}
procedure walk(OneWayList *head) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data + 1;
    set(NULL, p->data);
    p = p->next;
  }
}`, approved: true, reason: approvedOwnNode, serialErr: "31:4: interp: store through NULL pointer"},
		{name: "NULL replaced by the induction pointer", src: `
procedure put(OneWayList *q, OneWayList *r, int v) {
  if q == NULL {
    q = r;
  }
  q->data = v;
}
procedure walk(OneWayList *head) {
  var OneWayList *p = head;
  while p != NULL {
    put(NULL, p, p->data * 2);
    p = p->next;
  }
}`, approved: true, reason: approvedOwnNode, serialErr: "<nil>"},
		{name: "NULL replaced by the list head", src: `
procedure put(OneWayList *q, OneWayList *r, int v) {
  if q == NULL {
    q = r;
  }
  q->data = v;
}
procedure walk(OneWayList *head) {
  var OneWayList *p = head;
  while p != NULL {
    put(NULL, head, p->data);
    p = p->next;
  }
}`, reason: "write W head.data is not confined to the iteration's own node", serialErr: "<nil>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.Compile(fmt.Sprintf(nullArgList, tc.src))
			if err != nil {
				t.Fatal(err)
			}
			auto, err := c.AutoParallel(2)
			if err != nil {
				t.Fatal(err)
			}
			var walk *transform.LoopPlan
			for _, lp := range auto.Plan.Loops {
				if lp.Func == "walk" {
					walk = lp
				}
			}
			if walk == nil || walk.Parallelized != tc.approved || walk.ReasonText() != tc.reason {
				t.Fatalf("walk's loop: %v, want approved=%t for %q", walk, tc.approved, tc.reason)
			}
			diff, foralls, err := orderSensitive(c.Program, auto.Program, 0, "main", nil)
			if fmt.Sprint(err) != tc.serialErr {
				t.Errorf("serial run: %v, want %s", err, tc.serialErr)
			}
			if diff != "" {
				t.Errorf("an approved loop depends on iteration order: %s\n%s", diff, auto.Plan)
			}
			if tc.approved && foralls == 0 {
				t.Error("the approved loop reached no forall: the probe saw nothing")
			}
		})
	}
}

// neighbourList is nullArgList's driver over a record with two int
// fields: a five-node list, walk (the %s) run over it, a position-
// weighted checksum of both fields.
const neighbourList = `
type L [X]
{ int a;
  int b;
  L *next is uniquely forward along X;
};

function int main() {
  var L *head = NULL;
  var int i = 0;
  while i < 5 {
    var L *t = new L;
    t->a = 10 + i;
    t->b = 20 + 3 * i;
    t->next = head;
    head = t;
    i = i + 1;
  }
  walk(head);
  var int s = 0;
  var L *q = head;
  i = 1;
  while q != NULL {
    s = s + i * q->a + 7 * i * q->b;
    print(q->a, q->b);
    q = q->next;
    i = i + 1;
  }
  return s;
}
%s`

// approvedOwnNode is the planner's text for an approval along a
// uniquely forward next. Only the declared annotation in parentheses
// varies (approvedForward); the rest is fixed text, whatever was proved
// (ROADMAP item 3).
const approvedOwnNode = "p advances along next (uniquely forward): iterations visit distinct nodes; body performs no pointer-field stores; writes land only on the iteration's own node; overlapping reads touch disjoint fields"

// approvedForward is approvedOwnNode for a next declared forward but not
// uniquely forward.
var approvedForward = strings.Replace(approvedOwnNode, "(uniquely forward)", "(forward)", 1)

// walkLoop is the loop the hand-written soundness tests over a list of L
// plan: walk advances p along next and runs the body (the %s) on every
// node with a successor.
const walkLoop = `
procedure walk(L *head) {
  var L *p = head;
  while p != NULL {
    if p->next != NULL {
      %s
    }
    p = p->next;
  }
}`

// walkVerdict plans src at width 2, returns walk's loop, and runs the
// order probe over the plan: an approved loop must reach a forall and
// give the serial answer with every forall reversed.
func walkVerdict(t *testing.T, src string) *transform.LoopPlan {
	t.Helper()
	c, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := c.AutoParallel(2)
	if err != nil {
		t.Fatal(err)
	}
	var lp *transform.LoopPlan
	for _, l := range auto.Plan.Loops {
		if l.Func == "walk" {
			lp = l
		}
	}
	if lp == nil {
		t.Fatalf("no plan entry for walk's loop:\n%s", auto.Plan)
	}
	diff, foralls, err := orderSensitive(c.Program, auto.Program, 0, "main", nil)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if diff != "" {
		t.Errorf("an approved loop depends on iteration order: %s\n%s", diff, auto.Plan)
	}
	if lp.Parallelized && foralls == 0 {
		t.Error("the approved loop reached no forall: the probe saw nothing")
	}
	return lp
}

// TestNeighbourReadLoops covers ROADMAP item 1(b)'s first and fourth
// shapes: a body that reads its successor's fields beside a write of its
// own, and a second handle aliasing the induction pointer. Reading the
// field the iteration writes one node ahead is a carried dependence and
// is rejected; reading the other field is not; writing the successor is
// rejected; a write and read through an alias of p land on p's own node
// and are approved. Each verdict and its reason are pinned, and every
// approved loop must pass the order probe.
func TestNeighbourReadLoops(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		approved   bool
		reason     string
	}{
		{name: "successor's written field", body: "p->a = p->next->a + 1;",
			reason: "write W p.a may collide with R p.X*.a in another iteration"},
		{name: "successor's other field", body: "p->a = p->next->b + 1;",
			approved: true, reason: approvedOwnNode},
		{name: "write to the successor", body: "p->next->a = p->b;",
			reason: "write W p.X*.a is not confined to the iteration's own node"},
		{name: "alias of the induction pointer", body: "var L *q = p; q->a = q->b + 1;",
			approved: true, reason: approvedOwnNode},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lp := walkVerdict(t, fmt.Sprintf(neighbourList, fmt.Sprintf(walkLoop, tc.body)))
			if lp.Parallelized != tc.approved || lp.ReasonText() != tc.reason {
				t.Errorf("walk's loop: %v, want approved=%t for %q", lp, tc.approved, tc.reason)
			}
		})
	}
}

// sharedTailList is neighbourList's record with next declared forward
// but not uniquely forward, and a heap that uses the licence: a second
// list, other, joins head's list at its second node, so that node has
// two predecessors. walk (the %s) runs over both lists.
const sharedTailList = `
type L [X]
{ int a;
  int b;
  L *next is forward along X;
};

function int main() {
  var L *head = NULL;
  var int i = 0;
  while i < 5 {
    var L *t = new L;
    t->a = 10 + i;
    t->b = 20 + 3 * i;
    t->next = head;
    head = t;
    i = i + 1;
  }
  var L *other = new L;
  other->a = 7;
  other->b = 8;
  other->next = head->next;
  walk(head);
  walk(other);
  var int s = 13 * other->a + 17 * other->b;
  var L *q = head;
  i = 1;
  while q != NULL {
    s = s + i * q->a + 7 * i * q->b;
    print(q->a, q->b);
    q = q->next;
    i = i + 1;
  }
  return s;
}
%s`

// TestNonUniqueAdvanceLoops covers ROADMAP item 1(b)'s second shape: the
// loop advances along a dimension declared forward but not uniquely
// forward. One traversal of an acyclic dimension still visits distinct
// nodes, so the planner gives the verdicts it gives on a uniquely
// forward list: writes confined to the own node are approved, a read of
// the successor's written field and a write to the successor are
// rejected. The approval states the annotation as declared: "(forward)",
// not "(uniquely forward)".
func TestNonUniqueAdvanceLoops(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		approved   bool
		reason     string
	}{
		{name: "own node's other field", body: "p->a = p->b + 1;",
			approved: true, reason: approvedForward},
		{name: "own node's written field", body: "p->a = p->a * 2;",
			approved: true, reason: approvedForward},
		{name: "successor's other field", body: "p->a = p->next->b + 1;",
			approved: true, reason: approvedForward},
		{name: "successor's written field", body: "p->a = p->next->a + 1;",
			reason: "write W p.a may collide with R p.X*.a in another iteration"},
		{name: "write to the successor", body: "p->next->a = p->b;",
			reason: "write W p.X*.a is not confined to the iteration's own node"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lp := walkVerdict(t, fmt.Sprintf(sharedTailList, fmt.Sprintf(walkLoop, tc.body)))
			if lp.Parallelized != tc.approved || lp.ReasonText() != tc.reason {
				t.Errorf("walk's loop: %v, want approved=%t for %q", lp, tc.approved, tc.reason)
			}
		})
	}
}

// TestCalleeWriteLoops covers ROADMAP item 1(b)'s third shape: the body
// calls bump, which writes q->a through its parameter q. Handed the
// induction pointer, the write lands on the iteration's own node and the
// loop is approved. Handed the successor, the write is mapped onto p's
// next node and rejected (each iteration bumps a different node, so the
// rejection is conservative, not required). Handed the list head, every
// iteration writes one node, and the loop is rejected.
func TestCalleeWriteLoops(t *testing.T) {
	const bump = `
procedure bump(L *q) {
  q->a = q->a + 1;
}`
	for _, tc := range []struct {
		name, arg string
		approved  bool
		reason    string
	}{
		{name: "the induction pointer", arg: "p",
			approved: true, reason: "p advances along next (uniquely forward): iterations visit distinct nodes; body performs no pointer-field stores; writes land only on the iteration's own node; overlapping reads touch disjoint fields"},
		{name: "its successor", arg: "p->next",
			reason: "write W p.X*.a is not confined to the iteration's own node"},
		{name: "the list head", arg: "head",
			reason: "write W head.a is not confined to the iteration's own node"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lp := walkVerdict(t, fmt.Sprintf(neighbourList, bump+fmt.Sprintf(walkLoop, "bump("+tc.arg+");")))
			if lp.Parallelized != tc.approved || lp.ReasonText() != tc.reason {
				t.Errorf("walk's loop: %v, want approved=%t for %q", lp, tc.approved, tc.reason)
			}
		})
	}
}

// brokenList is a program whose build breaks the uniquely forward
// promise of next (the %s is build's body after the four-node list
// head → … → tail is made), then hands the list to walk, a loop the
// planner approves on the declaration's word.
const brokenList = `
type OneWayList [X]
{ int data;
  OneWayList *next is uniquely forward along X;
};

function OneWayList * build() {
  var OneWayList *tail = new OneWayList;
  var OneWayList *head = tail;
  var int i = 0;
  while i < 3 {
    var OneWayList *t = new OneWayList;
    t->data = i;
    t->next = head;
    head = t;
    i = i + 1;
  }
%s  return head;
}

procedure walk(OneWayList *head) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data + 1;
    p = p->next;
  }
}

function int main() {
  var OneWayList *h = build();
  walk(h);
  return h->data;
}
`

// orthRow is testdata/orthlist.psl with breakage inserted at the end of
// make_row, after the row is built: scale_row's loop then runs over the
// broken row.
func orthRow(t *testing.T, breakage string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "orthlist.psl"))
	if err != nil {
		t.Fatal(err)
	}
	const ret = "  return head;\n"
	if strings.Count(string(src), ret) != 1 {
		t.Fatalf("orthlist.psl no longer has one %q for the breakage to precede", ret)
	}
	return strings.Replace(string(src), ret, breakage+ret, 1)
}

// rangeTree is a 2-D range tree (adds.TwoDRangeTreeSrc, sub||down and
// sub||leaves) whose build links a node reached along sub from a down
// pointer too, which the declaration rules out, then walks the tree's
// leaves list.
const rangeTree = adds.TwoDRangeTreeSrc + `
function TwoDRangeTree * build() {
  var TwoDRangeTree *root = new TwoDRangeTree;
  var TwoDRangeTree *l = new TwoDRangeTree;
  var TwoDRangeTree *r = new TwoDRangeTree;
  root->left = l;
  root->right = r;
  l->next = r;
  var TwoDRangeTree *s = new TwoDRangeTree;
  root->subtree = s;
  l->left = s;
  return l;
}

procedure walk(TwoDRangeTree *head) {
  var TwoDRangeTree *p = head;
  while p != NULL {
    p->data = p->data + 1;
    p = p->next;
  }
}

function int main() {
  var TwoDRangeTree *h = build();
  walk(h);
  return h->data;
}
`

// octree is nbody.BarnesHutPSL, with breakage inserted before the one
// occurrence of anchor, plus a main that simulates one step of six
// particles.
func octree(t *testing.T, anchor, breakage string) string {
	t.Helper()
	if strings.Count(nbody.BarnesHutPSL, anchor) != 1 {
		t.Fatalf("BarnesHutPSL no longer has one %q for the breakage to precede", anchor)
	}
	return strings.Replace(nbody.BarnesHutPSL, anchor, breakage+anchor, 1) + `
function int main() {
  var Octree *p = simulate(6, 1, 0.5, 0.01);
  return 0;
}
`
}

// brokenDeclaration is one program of TestBrokenDeclarationsAreFlagged.
type brokenDeclaration struct {
	name, src     string
	builder, loop string // the function that breaks the declaration, the one whose loop runs over it
	approved      bool   // whether the planner approves loop's first while loop
	reason        string // the rejection's reason when it does not
	exit          string // builder's exit violations, as PM3 prints them
	shapeErr      string // the fatal shape check's error, "<nil>" for none
	hole          bool   // approved with neither alarm: a reported hole (ROADMAP item 1(c))
}

func brokenDeclarations(t *testing.T) []brokenDeclaration {
	list := func(breakage string) string { return fmt.Sprintf(brokenList, breakage) }
	return []brokenDeclaration{
		{name: "join", src: list("  var OneWayList *x = new OneWayList;\n  x->next = head->next;\n"),
			builder: "build", loop: "walk",
			reason: "the OneWayList declaration along X does not hold of the heap: build exits with an active violation (sharing of OneWayList along X)",
			exit:   "[sharing of OneWayList along X]", shapeErr: "interp: 19:4: runtime sharing of OneWayList along X"},
		{name: "cycle", src: list("  tail->next = head;\n"),
			builder: "build", loop: "walk", approved: true,
			exit: "[]", shapeErr: "interp: 18:7: runtime cycle of OneWayList along X"},
		{name: "orthlist across join", src: orthRow(t, "  var OrthList *x = new OrthList;\n  x->across = head->across;\n"),
			builder: "make_row", loop: "scale_row",
			reason: "the OrthList declaration along X does not hold of the heap: make_row exits with an active violation (sharing of OrthList along X)",
			exit:   "[sharing of OrthList along X]", shapeErr: "interp: 29:4: runtime sharing of OrthList along X"},
		{name: "orthlist across cycle", src: orthRow(t, "  head->across->across = head;\n"),
			builder: "make_row", loop: "scale_row",
			reason: "the OrthList declaration along X does not hold of the heap: make_row exits with an active violation (cycle of OrthList along X)",
			exit:   "[cycle of OrthList along X]", shapeErr: "interp: 28:15: runtime cycle of OrthList along X"},
		{name: "orthlist down join", src: orthRow(t, "  var OrthList *x = new OrthList;\n  x->down = head->across;\n  head->down = head->across;\n"),
			builder: "make_row", loop: "scale_row", approved: true,
			exit: "[sharing of OrthList along Y]", shapeErr: "interp: 30:7: runtime sharing of OrthList along Y"},
		{name: "octree down join", src: octree(t, "  return root;\n", "  var Octree *x = new Octree;\n  x->subtrees[0] = particles;\n"),
			builder: "build_tree", loop: "timestep", approved: true,
			exit: "[]", shapeErr: "interp: 115:12: runtime sharing of Octree along down"},
		{name: "octree leaves join", src: octree(t, "  return head;\n", "  var Octree *x = new Octree;\n  x->next = head->next;\n"),
			builder: "make_particles", loop: "timestep",
			reason: "the Octree declaration along leaves does not hold of the heap: make_particles exits with an active violation (sharing of Octree along leaves)",
			exit:   "[sharing of Octree along leaves]", shapeErr: "interp: 235:4: runtime sharing of Octree along leaves"},
		{name: "range tree sub also down", src: rangeTree,
			builder: "build", loop: "walk", approved: true,
			exit: "[]", shapeErr: "<nil>", hole: true},
	}
}

// TestBrokenDeclarationsAreFlagged is the declaration leg of ROADMAP
// item 1(c): a verdict is sound only if the declaration is true of the
// heap. Each program breaks a declaration in the function that builds
// the structure and then runs a loop over it, which the loop's function
// may assume. Validation is a premise of the verdict (ROADMAP item
// 2(a)): the planner rejects a loop over type T along dimension D when
// some function exits with an active violation on (T, D), and says
// which. A broken program must be flagged before that loop runs: by PM3
// validation (the builder exits with a violation, and the loop is then
// rejected) or by the runtime shape checks (ShapeChecksFatal) on the
// walker and on the VM alike. Whether the loop is approved, the
// rejection's reason, and which alarms fire are pinned; an approved
// loop that neither alarm flags is a soundness hole.
//
// The first two rows break the one-way list's uniquely forward next: a
// join, two nodes pointing at one; a cycle, tail->next = head. The
// join trips both alarms, and walk's loop is rejected. The cycle trips
// only the shape checks, and walk's loop stays approved: after build's
// loop the path matrix relates head and tail by =? alone — the next+
// path between them is lost — so the store closing the cycle is
// recorded as a possible alias, not as a cycle, and PM3 calls build
// valid at exit. The other three break testdata/orthlist.psl's row,
// and every one trips both alarms: a join and a cycle along across,
// the dimension scale_row walks (the cycle closes through an exact
// edge, head->across, so unlike the list's PM3 sees it), which reject
// scale_row's loop, and a join along down, the row's other dimension,
// which leaves scale_row's X traversal as sound as it was and its loop
// approved.
//
// The last two break the octree of nbody.BarnesHutPSL, whose BHL1
// (timestep's first loop) walks the particles along leaves and reads
// the tree along down. A join along leaves in make_particles trips both
// alarms and rejects BHL1. A join along down before build_tree returns
// (a fresh node's subtrees[0] = the first particle, a leaf of the tree)
// leaves BHL1 approved — it only reads the tree — and PM3 calls
// build_tree valid at exit: it does not see the join. The fatal shape
// check does fire, but earlier and not for the join: insert_particle's
// sub->subtrees[cq] = child shares child until the next store repairs
// it, which the unbroken octree trips too (115:12). So on the octree
// the runtime alarm cannot tell a broken build from a sound one.
//
// The last row declares independent dimensions: a 2-D range tree
// (sub||down) whose build makes a node it hangs off the root along sub
// a down child of another node as well. Neither alarm fires — PM3
// checks sharing and cycles along one dimension, the shape checks the
// same, and nothing checks that independent dimensions stay disjoint —
// and the walk along leaves stays approved (it does not reach the
// shared node, so it is sound here). That is a hole, reported in
// ROADMAP item 1(c), not fixed: the load rule's independence disproof
// trusts sub||down.
func TestBrokenDeclarationsAreFlagged(t *testing.T) {
	for _, tc := range brokenDeclarations(t) {
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.Compile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			auto, err := c.AutoParallel(2)
			if err != nil {
				t.Fatal(err)
			}
			approved, reason := false, ""
			for _, lp := range auto.Plan.Loops {
				if lp.Func == tc.loop && lp.Index == 0 {
					approved = lp.Parallelized
					if lp.Report != nil && !lp.Report.Parallelizable {
						reason = strings.Join(lp.Report.Reasons, "; ")
					}
				}
			}
			if approved != tc.approved || reason != tc.reason {
				t.Errorf("%s's loop approved = %t (%q), want %t (%q):\n%s", tc.loop, approved, reason, tc.approved, tc.reason, auto.Plan)
			}
			keys, err := c.ExitViolations(tc.builder)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(keys); got != tc.exit {
				t.Errorf("PM3: %s exits with %s, want %s", tc.builder, got, tc.exit)
			}
			for _, eng := range []interp.Engine{interp.EngineWalk, interp.EngineBytecode} {
				_, _, err := interp.Run(auto.Program, interp.Config{
					Engine: eng, ShapeChecks: true, ShapeChecksFatal: true, MaxSteps: 1 << 20,
				}, "main")
				if fmt.Sprint(err) != tc.shapeErr {
					t.Errorf("%s with fatal shape checks: %v, want %s", eng, err, tc.shapeErr)
				}
			}
			if approved && len(keys) == 0 && tc.shapeErr == "<nil>" && !tc.hole {
				t.Error("neither alarm fires: the approved loop runs over a heap its declaration lies about")
			}
		})
	}
}
