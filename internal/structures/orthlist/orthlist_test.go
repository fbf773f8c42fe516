package orthlist

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSetGet(t *testing.T) {
	m := New(4, 5)
	m.Set(1, 2, 3.5)
	m.Set(0, 0, 1)
	m.Set(3, 4, -2)
	if got := m.Get(1, 2); got != 3.5 {
		t.Errorf("get = %g", got)
	}
	if got := m.Get(2, 2); got != 0 {
		t.Errorf("absent = %g", got)
	}
	if m.NNZ() != 3 {
		t.Errorf("nnz = %d", m.NNZ())
	}
	// Overwrite.
	m.Set(1, 2, 9)
	if m.Get(1, 2) != 9 || m.NNZ() != 3 {
		t.Error("overwrite broken")
	}
	// Zero removes.
	m.Set(1, 2, 0)
	if m.Get(1, 2) != 0 || m.NNZ() != 2 {
		t.Error("zero-removal broken")
	}
	if err := m.Verify(); err != nil {
		t.Error(err)
	}
}

func TestRemoveEdgeCases(t *testing.T) {
	m := New(3, 3)
	for c := 0; c < 3; c++ {
		m.Set(1, c, float64(c+1))
		m.Set(c, 1, float64(c+10))
	}
	// Remove head of a row, middle, and a column head.
	m.Set(1, 0, 0)
	m.Set(1, 1, 0)
	m.Set(0, 1, 0)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	// Removing an absent element is a no-op.
	before := m.NNZ()
	m.Set(2, 2, 0)
	if m.NNZ() != before {
		t.Error("removing absent changed nnz")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	for _, fn := range []func(){
		func() { m.Get(2, 0) },
		func() { m.Set(0, 2, 1) },
		func() { m.Get(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSums(t *testing.T) {
	m := New(3, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 2)
	m.Set(2, 0, 3)
	sum := func(xs ...float64) (s float64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	d := m.Dense()
	if got := sum(d[0]...); got != 3 {
		t.Errorf("row sum = %g", got)
	}
	if got := sum(m.Get(0, 0), m.Get(1, 0), m.Get(2, 0)); got != 4 {
		t.Errorf("col sum = %g", got)
	}
	if got := sum(d[1]...); got != 0 {
		t.Errorf("empty row = %g", got)
	}
}

func TestMulAgainstDense(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a, b := New(5, 7), New(7, 4)
	da := make([][]float64, 5)
	db := make([][]float64, 7)
	for i := range da {
		da[i] = make([]float64, 7)
	}
	for i := range db {
		db[i] = make([]float64, 4)
	}
	for k := 0; k < 12; k++ {
		i, j, v := r.Intn(5), r.Intn(7), float64(r.Intn(9)+1)
		a.Set(i, j, v)
		da[i][j] = v
		i2, j2, v2 := r.Intn(7), r.Intn(4), float64(r.Intn(9)+1)
		b.Set(i2, j2, v2)
		db[i2][j2] = v2
	}
	got := a.Mul(b).Dense()
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			var want float64
			for k := 0; k < 7; k++ {
				want += da[i][k] * db[k][j]
			}
			if math.Abs(got[i][j]-want) > 1e-12 {
				t.Fatalf("(%d,%d) = %g, want %g", i, j, got[i][j], want)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m := New(2, 3)
	m.Set(0, 1, 4)
	m.Set(1, 2, 5)
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("shape = %dx%d", tr.Rows, tr.Cols)
	}
	if tr.Get(1, 0) != 4 || tr.Get(2, 1) != 5 {
		t.Errorf("transpose = %v", tr.Dense())
	}
	if err := tr.Verify(); err != nil {
		t.Error(err)
	}
}

func TestMulVec(t *testing.T) {
	m := New(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 2)
	m.Set(1, 1, 3)
	got := m.MulVec([]float64{1, 2, 3})
	if !reflect.DeepEqual(got, []float64{7, 6}) {
		t.Errorf("m·x = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch must panic")
		}
	}()
	m.MulVec([]float64{1})
}

func TestScaleRowsParallel(t *testing.T) {
	for _, pes := range []int{-1, 0, 1, 2, 4, 7} {
		m := New(20, 20)
		for r := 0; r < 20; r++ {
			for c := 0; c < 20; c += r + 1 {
				m.Set(r, c, 1)
			}
		}
		m.ScaleRowsParallel(pes, func(row int) float64 { return float64(row + 1) })
		for r := 0; r < 20; r++ {
			m.EachInRow(r, func(n *Node) {
				if n.Val != float64(r+1) {
					t.Fatalf("pes=%d row %d: val %g", pes, r, n.Val)
				}
			})
		}
		if err := m.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScaleRowsToZeroUnlinks: a row scaled to zero, by a zero factor or
// by one that underflows, loses its nodes, so NNZ, Dense and Verify
// agree with a matrix built without them.
func TestScaleRowsToZeroUnlinks(t *testing.T) {
	for _, pes := range []int{1, 2, 4} {
		m := New(3, 3)
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				m.Set(r, c, 1e-300)
			}
		}
		m.Set(2, 1, 2)
		factors := []float64{0, 1e-300, 1}
		m.ScaleRowsParallel(pes, func(row int) float64 { return factors[row] })
		want := [][]float64{{0, 0, 0}, {0, 0, 0}, {1e-300, 2, 1e-300}}
		if !reflect.DeepEqual(m.Dense(), want) {
			t.Errorf("pes=%d: dense = %v", pes, m.Dense())
		}
		if m.NNZ() != 3 {
			t.Errorf("pes=%d: nnz = %d, want 3", pes, m.NNZ())
		}
		if err := m.Verify(); err != nil {
			t.Errorf("pes=%d: %v", pes, err)
		}
	}
}

// TestVerifyRejectsStoredZero: a node holding zero breaks "a node is
// one nonzero element".
func TestVerifyRejectsStoredZero(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 1, 5)
	m.rowHead[1].Val = 0
	if err := m.Verify(); err == nil {
		t.Error("stored zero not detected")
	}
}

// TestQuickMatchesDenseOracle: random edits keep the orthogonal list
// consistent with a dense matrix and structurally valid.
func TestQuickMatchesDenseOracle(t *testing.T) {
	f := func(ops []uint32) bool {
		m := New(6, 6)
		dense := make([][]float64, 6)
		for i := range dense {
			dense[i] = make([]float64, 6)
		}
		for _, op := range ops {
			r := int(op % 6)
			c := int((op / 6) % 6)
			v := float64(int((op/36)%7)) - 3 // -3..3 incl. 0 (removal)
			m.Set(r, c, v)
			dense[r][c] = v
		}
		if err := m.Verify(); err != nil {
			return false
		}
		return reflect.DeepEqual(m.Dense(), dense)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickTransposeInvolution: (mᵀ)ᵀ == m.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(ops []uint32) bool {
		m := New(5, 7)
		for _, op := range ops {
			m.Set(int(op%5), int((op/5)%7), float64(op%9)+1)
		}
		return reflect.DeepEqual(m.Transpose().Transpose().Dense(), m.Dense())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
