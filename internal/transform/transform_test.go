package transform

import (
	"strings"
	"testing"

	"repro/internal/adds"
	"repro/internal/interp"
	"repro/internal/lang"
)

const scaleSrc = adds.OneWayListSrc + `
function OneWayList * build(int n) {
  var OneWayList *head = NULL;
  var int i = n;
  while i > 0 {
    var OneWayList *node = new OneWayList;
    node->data = i;
    node->next = head;
    head = node;
    i = i - 1;
  }
  return head;
}

procedure scale(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->data = p->data * c;
    p = p->next;
  }
}

function int total(OneWayList *head) {
  var int s = 0;
  var OneWayList *p = head;
  while p != NULL {
    s = s + p->data;
    p = p->next;
  }
  return s;
}

function int main(int n, int c) {
  var OneWayList *h = build(n);
  scale(h, c);
  return total(h);
}
`

func TestStripMineShape(t *testing.T) {
	prog := lang.MustParse(scaleSrc)
	res, err := StripMine(prog, "scale", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The original program is untouched.
	if prog.Func(res.Helper) != nil {
		t.Error("StripMine must not modify the input program")
	}
	helper := res.Program.Func(res.Helper)
	if helper == nil {
		t.Fatal("helper procedure missing")
	}
	// Helper signature: (_pe int, p OneWayList*, c int) — frees sorted.
	if len(helper.Params) != 3 {
		t.Fatalf("helper params = %+v", helper.Params)
	}
	if helper.Params[0].Name != "_pe" || helper.Params[1].Name != "p" {
		t.Errorf("params = %+v", helper.Params)
	}
	text := lang.FormatFunc(res.Program.Func("scale"))
	if !strings.Contains(text, "forall") {
		t.Errorf("transformed scale lacks forall:\n%s", text)
	}
	// FOR1: serial advance by PEs steps.
	if !strings.Contains(text, "p = p->next;") {
		t.Errorf("missing serial advance:\n%s", text)
	}
	// The helper contains FOR2 (skip-ahead) and the guarded body.
	htext := lang.FormatFunc(helper)
	if !strings.Contains(htext, "for _k = 1 to _pe") {
		t.Errorf("missing FOR2 skip loop:\n%s", htext)
	}
	if !strings.Contains(htext, "if (p != NULL)") {
		t.Errorf("missing NULL guard:\n%s", htext)
	}
}

func TestStripMineSemantics(t *testing.T) {
	prog := lang.MustParse(scaleSrc)
	want, _, err := interp.Run(prog, interp.Config{Seed: 1}, "main", interp.IntVal(37), interp.IntVal(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, pes := range []int{1, 2, 4, 7, 16} {
		res, err := StripMine(prog, "scale", 0, pes)
		if err != nil {
			t.Fatalf("pes=%d: %v", pes, err)
		}
		got, _, err := interp.Run(res.Program, interp.Config{Seed: 1}, "main", interp.IntVal(37), interp.IntVal(3))
		if err != nil {
			t.Fatalf("pes=%d: %v", pes, err)
		}
		if got.I != want.I {
			t.Errorf("pes=%d: result %d, want %d", pes, got.I, want.I)
		}
	}
}

func TestStripMineRejectsBadLoop(t *testing.T) {
	src := adds.OneWayListSrc + `
function int sum(OneWayList *head) {
  var int s = 0;
  var OneWayList *p = head;
  while p != NULL {
    s = s + p->data;
    p = p->next;
  }
  return s;
}`
	prog := lang.MustParse(src)
	if _, err := StripMine(prog, "sum", 0, 4); err == nil {
		t.Error("reduction loop must be refused")
	} else if !strings.Contains(err.Error(), "not parallelizable") {
		t.Errorf("error = %v", err)
	}
}

func TestStripMineRejectsUnannotated(t *testing.T) {
	src := adds.ListNodeSrc + `
procedure scale(ListNode *head, int c) {
  var ListNode *p = head;
  while p != NULL {
    p->coef = p->coef * c;
    p = p->next;
  }
}`
	prog := lang.MustParse(src)
	if _, err := StripMine(prog, "scale", 0, 4); err == nil {
		t.Error("unannotated structure must be refused")
	}
}

func TestStripMineBadArgs(t *testing.T) {
	prog := lang.MustParse(scaleSrc)
	if _, err := StripMine(prog, "scale", 0, 0); err == nil {
		t.Error("pes=0 must fail")
	}
	if _, err := StripMine(prog, "nosuch", 0, 2); err == nil {
		t.Error("unknown function must fail")
	}
	if _, err := StripMine(prog, "scale", 5, 2); err == nil {
		t.Error("unknown loop index must fail")
	}
}

func TestStripMineSimulatedSpeedsUp(t *testing.T) {
	// Strip-mining pays off when per-node processing dominates the
	// traversal (the paper's footnote 1), so give each node real work.
	src := adds.OneWayListSrc + `
function OneWayList * build(int n) {
  var OneWayList *head = NULL;
  var int i = n;
  while i > 0 {
    var OneWayList *node = new OneWayList;
    node->data = i;
    node->next = head;
    head = node;
    i = i - 1;
  }
  return head;
}

procedure crunch(OneWayList *head) {
  var OneWayList *p = head;
  while p != NULL {
    var int acc = 0;
    for k = 1 to 300 {
      acc = acc + k * p->data;
    }
    p->data = acc;
    p = p->next;
  }
}

procedure main(int n) {
  var OneWayList *h = build(n);
  crunch(h);
}
`
	prog := lang.MustParse(src)
	run := func(p *lang.Program, pes int) int64 {
		ip := interp.New(p, interp.Config{Mode: interp.Simulated, PEs: pes, Seed: 1})
		if _, err := ip.Call("main", interp.IntVal(200)); err != nil {
			t.Fatal(err)
		}
		return ip.Stats().Cycles
	}
	seq := run(prog, 1)
	res, err := StripMine(prog, "crunch", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	par := run(res.Program, 4)
	if par >= seq {
		t.Errorf("strip-mined simulated time %d should beat sequential %d", par, seq)
	}
	speedup := float64(seq) / float64(par)
	if speedup >= 4.0 {
		t.Errorf("speedup %.2f must be sublinear on 4 PEs", speedup)
	}
	t.Logf("seq=%d par4=%d speedup=%.2f", seq, par, speedup)
}
