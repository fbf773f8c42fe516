package transform

import (
	"fmt"
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
