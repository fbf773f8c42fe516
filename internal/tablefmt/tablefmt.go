// Package tablefmt renders the paper-style evaluation grids — a label
// column followed by one column per problem size N — of the simulated
// Sequent tables (package sequent, §4.4 TIMES/SPEEDUP).
package tablefmt

import (
	"fmt"
	"strings"
)

// Table is one grid: Label heads the corner cell, Columns are the N
// values, and each row pairs a configuration label with one cell per N.
type Table struct {
	Label   string
	Columns []int
	rows    []row
}

type row struct {
	label string
	cells []float64
}

// New starts a grid with the given corner label and N columns.
func New(label string, columns ...int) *Table {
	return &Table{Label: label, Columns: columns}
}

// AddRow appends a configuration row; cells align with Columns.
func (t *Table) AddRow(label string, cells ...float64) *Table {
	t.rows = append(t.rows, row{label: label, cells: cells})
	return t
}

// Format renders the grid with prec digits after the decimal point.
func (t *Table) Format(prec int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s", t.Label)
	for _, n := range t.Columns {
		fmt.Fprintf(&b, "| N = %-6d ", n)
	}
	b.WriteString("\n")
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-9s", r.label)
		for i := range t.Columns {
			var cell float64
			if i < len(r.cells) {
				cell = r.cells[i]
			}
			fmt.Fprintf(&b, "| %-10.*f ", prec, cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}
