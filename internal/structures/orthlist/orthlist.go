// Package orthlist implements the paper's §3.1.3 orthogonal list
// (Figure 3): a sparse matrix whose nonzero elements are threaded into
// per-row lists along the X dimension (across / back) and per-column
// lists along the Y dimension (down / up). X and Y are dependent
// dimensions — one node is reachable along both — but each row (and
// each column) is disjoint from its siblings, which licenses parallel
// row operations.
package orthlist

import (
	"fmt"
	"sync/atomic"

	"repro/internal/sched"
)

// Node is one nonzero element with its four links.
type Node struct {
	Row, Col int
	Val      float64
	// Across/Back traverse the X dimension (uniquely forward/backward).
	Across, Back *Node
	// Down/Up traverse the Y dimension.
	Down, Up *Node
}

// Matrix is a sparse rows×cols matrix.
type Matrix struct {
	Rows, Cols int
	rowHead    []*Node
	colHead    []*Node
	nnz        int
}

// New creates an empty rows×cols sparse matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("orthlist: negative dimensions")
	}
	return &Matrix{
		Rows: rows, Cols: cols,
		rowHead: make([]*Node, rows),
		colHead: make([]*Node, cols),
	}
}

// NNZ returns the number of stored nonzeros.
func (m *Matrix) NNZ() int { return m.nnz }

func (m *Matrix) check(r, c int) {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("orthlist: index (%d,%d) out of %dx%d", r, c, m.Rows, m.Cols))
	}
}

// Get returns the element at (r, c) (zero when absent).
func (m *Matrix) Get(r, c int) float64 {
	m.check(r, c)
	for n := m.rowHead[r]; n != nil && n.Col <= c; n = n.Across {
		if n.Col == c {
			return n.Val
		}
	}
	return 0
}

// Set stores v at (r, c); storing zero removes the element.
func (m *Matrix) Set(r, c int, v float64) {
	m.check(r, c)
	// Find in the row list; update, remove or create.
	var prev *Node
	n := m.rowHead[r]
	for n != nil && n.Col < c {
		prev = n
		n = n.Across
	}
	if n != nil && n.Col == c {
		if v == 0 {
			m.unlink(n)
		} else {
			n.Val = v
		}
		return
	}
	if v == 0 {
		return
	}
	node := &Node{Row: r, Col: c, Val: v}
	// Row splice.
	node.Across = n
	node.Back = prev
	if n != nil {
		n.Back = node
	}
	if prev == nil {
		m.rowHead[r] = node
	} else {
		prev.Across = node
	}
	// Column splice.
	var cprev *Node
	cn := m.colHead[c]
	for cn != nil && cn.Row < r {
		cprev = cn
		cn = cn.Down
	}
	node.Down = cn
	node.Up = cprev
	if cn != nil {
		cn.Up = node
	}
	if cprev == nil {
		m.colHead[c] = node
	} else {
		cprev.Down = node
	}
	m.nnz++
}

// unlink splices n out of its row and its column.
func (m *Matrix) unlink(n *Node) {
	if n.Back != nil {
		n.Back.Across = n.Across
	} else {
		m.rowHead[n.Row] = n.Across
	}
	if n.Across != nil {
		n.Across.Back = n.Back
	}
	if n.Up != nil {
		n.Up.Down = n.Down
	} else {
		m.colHead[n.Col] = n.Down
	}
	if n.Down != nil {
		n.Down.Up = n.Up
	}
	m.nnz--
}

// EachInRow traverses row r forward along X.
func (m *Matrix) EachInRow(r int, fn func(*Node)) {
	for n := m.rowHead[r]; n != nil; n = n.Across {
		fn(n)
	}
}

// Mul returns the sparse product m × o.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic("orthlist: dimension mismatch")
	}
	out := New(m.Rows, o.Cols)
	for r := 0; r < m.Rows; r++ {
		acc := map[int]float64{}
		for a := m.rowHead[r]; a != nil; a = a.Across {
			for b := o.rowHead[a.Col]; b != nil; b = b.Across {
				acc[b.Col] += a.Val * b.Val
			}
		}
		for c, v := range acc {
			if v != 0 {
				out.Set(r, c, v)
			}
		}
	}
	return out
}

// Transpose returns mᵀ (X and Y dimensions exchange roles).
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		m.EachInRow(r, func(n *Node) {
			out.Set(n.Col, n.Row, n.Val)
		})
	}
	return out
}

// ScaleRowsParallel multiplies every row by its factor on pes PEs — the
// caller and pes−1 goroutines — each taking the next row from
// sched.ForEach's cursor; pes ≤ 0 means GOMAXPROCS. Rows are disjoint
// along X ("parallel traversals of different rows along X will never
// visit the same node"), which is exactly the ADDS property that makes
// this safe. Elements that become zero are unlinked after the parallel
// pass, row by row on the calling goroutine: columns cross rows, so
// their links are not disjoint between PEs. The pass only flags that
// some element became zero, so a scale that zeroes nothing neither
// allocates nor walks the rows twice.
func (m *Matrix) ScaleRowsParallel(pes int, factor func(row int) float64) {
	var zeroed atomic.Bool
	sched.ForEach(pes, m.Rows, func(r int) {
		f := factor(r)
		for n := m.rowHead[r]; n != nil; n = n.Across {
			if n.Val *= f; n.Val == 0 {
				zeroed.Store(true)
			}
		}
	})
	if !zeroed.Load() {
		return
	}
	for r := 0; r < m.Rows; r++ {
		for n := m.rowHead[r]; n != nil; n = n.Across {
			if n.Val == 0 {
				m.unlink(n)
			}
		}
	}
}

// MulVec returns m·x as a dense vector.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("orthlist: vector length mismatch")
	}
	out := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var s float64
		for n := m.rowHead[r]; n != nil; n = n.Across {
			s += n.Val * x[n.Col]
		}
		out[r] = s
	}
	return out
}

// Dense converts to a dense [][]float64 (for tests and display).
func (m *Matrix) Dense() [][]float64 {
	out := make([][]float64, m.Rows)
	for r := range out {
		out[r] = make([]float64, m.Cols)
		m.EachInRow(r, func(n *Node) { out[r][n.Col] = n.Val })
	}
	return out
}

// Verify checks the orthogonal-list invariants: every node holds a
// nonzero, row lists strictly increasing in column with consistent back
// links, column lists strictly increasing in row with consistent up
// links, and the same node set reachable along both dimensions (the
// declared dependence of X and Y).
func (m *Matrix) Verify() error {
	rowNodes := map[*Node]bool{}
	for r := 0; r < m.Rows; r++ {
		lastCol := -1
		var prev *Node
		for n := m.rowHead[r]; n != nil; n = n.Across {
			if n.Row != r {
				return fmt.Errorf("orthlist: node (%d,%d) threaded into row %d", n.Row, n.Col, r)
			}
			if n.Col <= lastCol {
				return fmt.Errorf("orthlist: row %d not strictly increasing at col %d", r, n.Col)
			}
			if n.Back != prev {
				return fmt.Errorf("orthlist: row %d broken back link at col %d", r, n.Col)
			}
			if n.Val == 0 {
				return fmt.Errorf("orthlist: zero stored at (%d,%d)", r, n.Col)
			}
			lastCol = n.Col
			prev = n
			if rowNodes[n] {
				return fmt.Errorf("orthlist: node visited twice along X")
			}
			rowNodes[n] = true
		}
	}
	colNodes := map[*Node]bool{}
	for c := 0; c < m.Cols; c++ {
		lastRow := -1
		var prev *Node
		for n := m.colHead[c]; n != nil; n = n.Down {
			if n.Col != c {
				return fmt.Errorf("orthlist: node (%d,%d) threaded into col %d", n.Row, n.Col, c)
			}
			if n.Row <= lastRow {
				return fmt.Errorf("orthlist: col %d not strictly increasing at row %d", c, n.Row)
			}
			if n.Up != prev {
				return fmt.Errorf("orthlist: col %d broken up link at row %d", c, n.Row)
			}
			lastRow = n.Row
			prev = n
			if colNodes[n] {
				return fmt.Errorf("orthlist: node visited twice along Y")
			}
			colNodes[n] = true
		}
	}
	if len(rowNodes) != len(colNodes) || len(rowNodes) != m.nnz {
		return fmt.Errorf("orthlist: X reaches %d nodes, Y reaches %d, nnz %d",
			len(rowNodes), len(colNodes), m.nnz)
	}
	for n := range rowNodes {
		if !colNodes[n] {
			return fmt.Errorf("orthlist: node (%d,%d) reachable along X but not Y", n.Row, n.Col)
		}
	}
	return nil
}
