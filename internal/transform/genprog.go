package transform

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/adds"
)

// ManyLoopProgramPSL generates the R7 planner-cost workload: a PSL
// program with funcs procedures of loopsPerFunc approvable
// pointer-chasing loops each (funcs·loopsPerFunc approved rewrites in
// total), plus a main that calls every worker, so every rewritten
// procedure has a caller whose summaries consume its own.
// BenchmarkAutoParallelizePlanCost, TestPlanCostSubquadratic,
// BENCH_plan.json, and `cmd/experiments -plancost` all measure planning
// over this program.
func ManyLoopProgramPSL(funcs, loopsPerFunc int) string {
	var b strings.Builder
	b.WriteString(adds.OneWayListSrc)
	b.WriteString("\n")
	for i := 0; i < funcs; i++ {
		fmt.Fprintf(&b, "procedure work%d(OneWayList *head) {\n", i)
		fmt.Fprintf(&b, "  var OneWayList *p = head;\n")
		for j := 0; j < loopsPerFunc; j++ {
			fmt.Fprintf(&b, "  p = head;\n")
			fmt.Fprintf(&b, "  while p != NULL {\n")
			fmt.Fprintf(&b, "    p->data = p->data + %d;\n", j+1)
			fmt.Fprintf(&b, "    p = p->next;\n")
			fmt.Fprintf(&b, "  }\n")
		}
		b.WriteString("}\n")
	}
	b.WriteString("procedure main(OneWayList *head) {\n")
	for i := 0; i < funcs; i++ {
		fmt.Fprintf(&b, "  work%d(head);\n", i)
	}
	b.WriteString("}\n")
	return b.String()
}

// genLoopLibrary is the fixed part of every generated program: callees
// that hold an approved loop (show reads, bump writes), and recursive
// ones (total reads, spread writes).
const genLoopLibrary = `
procedure show(OneWayList *l) {
  var OneWayList *q = l;
  while q != NULL {
    print(q->data);
    q = q->next;
  }
}
procedure bump(OneWayList *l, int c) {
  var OneWayList *q = l;
  while q != NULL {
    q->data = q->data + c;
    q = q->next;
  }
}
function int total(OneWayList *l) {
  if l == NULL {
    return 0;
  }
  return l->data + total(l->next);
}
procedure spread(OneWayList *l, int c) {
  if l != NULL {
    l->data = l->data + c;
    spread(l->next, c);
  }
}
`

// GenLoopProgramPSL generates, from seed, a small well-typed list program
// built from the shapes a strip-mine rewrite could plausibly disturb in
// a neighbour's verdict: sibling loops sharing a handle, list loops in
// list loops and in counting loops up to three deep (approved in
// approved, approved in rejected), loop bodies that call a procedure
// holding an approved loop — a library one, or an earlier generated
// procedure, so every callee has several callers — recursive callees,
// and loop-carried scalars. The planner's and the effect analysis'
// differential tests and fuzz targets draw their programs from it.
func GenLoopProgramPSL(seed int64) string {
	g := &loopGen{r: rand.New(rand.NewSource(seed))}
	g.b.WriteString(adds.OneWayListSrc + genLoopLibrary)
	for n := 1 + g.r.Intn(3); g.procs < n; g.procs++ {
		fmt.Fprintf(&g.b, "procedure f%d(OneWayList *head, OneWayList *other, int n) {\n", g.procs)
		g.line(1, "var int s = 0;")
		g.line(1, "var OneWayList *p = head;")
		for i := 1 + g.r.Intn(4); i > 0; i-- {
			if g.r.Intn(3) > 0 {
				g.line(1, "p = head;")
				g.listLoop(1, "p")
			} else {
				g.stmt(1, "head")
			}
		}
		g.b.WriteString("}\n")
	}
	return g.b.String()
}

type loopGen struct {
	r     *rand.Rand
	b     strings.Builder
	procs int // generated procedures f0..f<procs-1> exist and may be called
	vars  int // suffix of the next fresh local
}

func (g *loopGen) line(depth int, format string, args ...any) {
	g.b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// listLoop emits `while h != NULL { stmts; h = h->next; }` at the given
// loop depth.
func (g *loopGen) listLoop(depth int, h string) {
	g.line(depth, "while %s != NULL {", h)
	for i := 1 + g.r.Intn(3); i > 0; i-- {
		g.stmt(depth+1, h)
	}
	g.line(depth+1, "%s = %s->next;", h, h)
	g.line(depth, "}")
}

// stmt emits one statement about the node h points to; depth is one
// more than the loops around it, and nesting stops at three.
func (g *loopGen) stmt(depth int, h string) {
	pick := g.r.Intn(12)
	if depth > 3 && pick >= 9 {
		pick -= 9
	}
	from := []string{"other", h, h + "->next"}[g.r.Intn(3)]
	switch pick {
	case 0:
		g.line(depth, "%s->data = %s->data + %d;", h, h, 1+g.r.Intn(9))
	case 1:
		g.line(depth, "print(%s->data);", h)
	case 2:
		g.line(depth, "s = s + %s->data;", h)
	case 3:
		g.line(depth, "show(%s);", from)
	case 4:
		g.line(depth, "bump(%s, 1);", from)
	case 5:
		g.line(depth, "%s->data = total(%s);", h, from)
	case 6:
		g.line(depth, "spread(%s, 1);", from)
	case 7:
		g.line(depth, "%s->data = %s->data + n;", h, h)
	case 8:
		if g.procs > 0 {
			g.line(depth, "f%d(%s, other, n);", g.r.Intn(g.procs), from)
		} else {
			g.line(depth, "bump(%s, n);", h)
		}
	case 9, 10:
		g.vars++
		q := fmt.Sprintf("q%d", g.vars)
		g.line(depth, "var OneWayList *%s = %s;", q, from)
		g.listLoop(depth, q)
	case 11:
		g.vars++
		k := fmt.Sprintf("k%d", g.vars)
		g.line(depth, "var int %s = 0;", k)
		g.line(depth, "while %s < n {", k)
		g.stmt(depth+1, h)
		g.line(depth+1, "%s = %s + 1;", k, k)
		g.line(depth, "}")
	}
}
