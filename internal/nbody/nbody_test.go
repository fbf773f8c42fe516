package nbody

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTreeInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 17, 128, 500} {
		s := NewUniform(n, 42, 0.5, 0.01)
		s.BuildTree()
		if got := countLeaves(s.Root); got != n {
			t.Errorf("n=%d: tree has %d leaves", n, got)
		}
		if err := checkTree(s); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestPlummerTree(t *testing.T) {
	s := NewPlummer(300, 9, 0.5, 0.01)
	s.BuildTree()
	if got := countLeaves(s.Root); got != 300 {
		t.Errorf("leaves = %d", got)
	}
	if err := checkTree(s); err != nil {
		t.Error(err)
	}
}

func TestMassConservedInTree(t *testing.T) {
	s := NewUniform(200, 7, 0.5, 0.01)
	s.BuildTree()
	var want float64
	for _, b := range s.Bodies {
		want += b.Mass
	}
	if math.Abs(s.Root.Mass-want) > 1e-9*want {
		t.Errorf("root mass %g, bodies sum %g", s.Root.Mass, want)
	}
}

// TestQuickInsertion: random bodies always produce a structurally valid
// tree with the right leaf count.
func TestQuickInsertion(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		s := NewUniform(n, seed, 0.5, 0.01)
		s.BuildTree()
		return countLeaves(s.Root) == n && checkTree(s) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickOctantGeometry: octantCenter and octant are inverse-ish —
// the center of octant q lies in octant q.
func TestQuickOctantGeometry(t *testing.T) {
	f := func(cx, cy, cz float64, hRaw uint8, qRaw uint8) bool {
		if math.IsNaN(cx) || math.IsNaN(cy) || math.IsNaN(cz) ||
			math.IsInf(cx, 0) || math.IsInf(cy, 0) || math.IsInf(cz, 0) ||
			math.Abs(cx) > 1e12 || math.Abs(cy) > 1e12 || math.Abs(cz) > 1e12 {
			return true
		}
		h := float64(hRaw%100) + 1
		q := int(qRaw % 8)
		n := &Node{Center: Vec3{cx, cy, cz}, Half: h}
		c := octantCenter(n, q)
		return octant(n.Center, c) == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBHApproximatesDirect: for small theta the Barnes-Hut force is
// close to the O(N²) direct force.
func TestBHApproximatesDirect(t *testing.T) {
	n := 150
	bh := NewUniform(n, 5, 0.3, 0.01)
	direct := NewUniform(n, 5, 0.3, 0.01)

	bh.BuildTree()
	for _, b := range bh.Bodies {
		b.Force = Vec3{}
		bh.forceOn(b, bh.Root)
	}
	for _, b := range direct.Bodies {
		b.Force = Vec3{}
	}
	for i, a := range direct.Bodies {
		for j, b := range direct.Bodies {
			if i != j {
				direct.addPairForce(a, b.Mass, b.Pos)
			}
		}
	}
	var relErrSum float64
	for i := range bh.Bodies {
		fb, fd := bh.Bodies[i].Force, direct.Bodies[i].Force
		diff := fb.Sub(fd).Norm()
		if fd.Norm() > 1e-12 {
			relErrSum += diff / fd.Norm()
		}
	}
	avg := relErrSum / float64(n)
	if avg > 0.05 {
		t.Errorf("average relative force error %.3f > 5%%", avg)
	}
}

// TestParallelMatchesSequential: the strided driver computes identical
// trajectories (forces are per-body; no reduction order differences)
// at every PE count, pes ≤ 0 meaning GOMAXPROCS.
func TestParallelMatchesSequential(t *testing.T) {
	ref := NewUniform(120, 3, 0.5, 0.01)
	for i := 0; i < 3; i++ {
		ref.Step()
	}
	for _, pes := range []int{-1, 0, 1, 2, 4, 7} {
		s := NewUniform(120, 3, 0.5, 0.01)
		if err := s.Run("par", 3, pes); err != nil {
			t.Fatal(err)
		}
		for i := range ref.Bodies {
			if ref.Bodies[i].Pos != s.Bodies[i].Pos {
				t.Fatalf("par(%d): body %d position %v vs %v",
					pes, i, s.Bodies[i].Pos, ref.Bodies[i].Pos)
			}
		}
	}
}

func TestMomentumRoughlyConserved(t *testing.T) {
	s := NewUniform(100, 11, 0.5, 0.001)
	before := s.TotalMomentum()
	for i := 0; i < 5; i++ {
		s.Step()
	}
	after := s.TotalMomentum()
	// Barnes-Hut approximation breaks exact symmetry; drift must stay
	// small relative to the velocity scale (~0.05 per body).
	if after.Sub(before).Norm() > 0.5 {
		t.Errorf("momentum drift %v too large", after.Sub(before))
	}
}

func TestRunUnknownDriver(t *testing.T) {
	s := NewUniform(4, 1, 0.5, 0.01)
	if err := s.Run("warp", 1, 2); err == nil {
		t.Error("unknown driver must error")
	}
}

func TestDirectStepMovesBodies(t *testing.T) {
	s := NewUniform(30, 2, 0.5, 0.01)
	orig := make([]Vec3, len(s.Bodies))
	for i, b := range s.Bodies {
		orig[i] = b.Pos
	}
	s.DirectStep()
	moved := 0
	for i, b := range s.Bodies {
		if b.Pos != orig[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no body moved")
	}
}

func TestVecOps(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, 5, 6}
	if !reflect.DeepEqual(v.Add(w), Vec3{5, 7, 9}) {
		t.Error("Add")
	}
	if !reflect.DeepEqual(w.Sub(v), Vec3{3, 3, 3}) {
		t.Error("Sub")
	}
	if !reflect.DeepEqual(v.Scale(2), Vec3{2, 4, 6}) {
		t.Error("Scale")
	}
	if math.Abs(Vec3{3, 4, 0}.Norm()-5) > 1e-12 {
		t.Error("Norm")
	}
}

// TestDeterministicGenerator: same seed, same bodies.
func TestDeterministicGenerator(t *testing.T) {
	a := NewUniform(10, 99, 0.5, 0.01)
	b := NewUniform(10, 99, 0.5, 0.01)
	for i := range a.Bodies {
		if a.Bodies[i].Pos != b.Bodies[i].Pos {
			t.Fatal("generator not deterministic")
		}
	}
	c := NewUniform(10, 100, 0.5, 0.01)
	same := true
	for i := range a.Bodies {
		if a.Bodies[i].Pos != c.Bodies[i].Pos {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

// TestQuickExpandBoxContains: after expansion the root always contains
// the body.
func TestQuickExpandBoxContains(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		root := &Node{Center: Vec3{0, 0, 0}, Half: 1}
		b := &Body{Pos: Vec3{r.Float64()*2000 - 1000, r.Float64()*2000 - 1000, r.Float64()*2000 - 1000}}
		root = expandBox(b, root)
		if !root.contains(b.Pos) {
			t.Fatalf("expanded root %v half %g does not contain %v", root.Center, root.Half, b.Pos)
		}
	}
}

func TestThetaSweepMonotone(t *testing.T) {
	rows := ThetaSweep(300, 7, []float64{0.2, 0.5, 1.0})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].MeanRelErr < rows[i-1].MeanRelErr {
			t.Errorf("error must grow with theta: %v then %v", rows[i-1], rows[i])
		}
		if rows[i].Interactions >= rows[i-1].Interactions {
			t.Errorf("work must shrink with theta: %v then %v", rows[i-1], rows[i])
		}
	}
	if rows[0].MeanRelErr > 0.01 {
		t.Errorf("theta=0.2 error %.4f too large", rows[0].MeanRelErr)
	}
	if rows[0].DirectPairs != 300*299 {
		t.Errorf("direct pairs = %d", rows[0].DirectPairs)
	}
}

// countLeaves walks the tree and counts bodies (must equal len(Bodies)).
func countLeaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	total := 0
	for _, c := range n.Children {
		total += countLeaves(c)
	}
	return total
}

// checkTree verifies structural invariants: every leaf body lies inside
// its ancestors' boxes, children occupy their octants, and each body
// appears exactly once.
func checkTree(s *System) error {
	seen := map[*Body]bool{}
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n == nil {
			return nil
		}
		if n.IsLeaf() {
			if seen[n.Body] {
				return fmt.Errorf("nbody: body appears twice in the tree")
			}
			seen[n.Body] = true
			return nil
		}
		for q, c := range n.Children {
			if c == nil {
				continue
			}
			if !c.IsLeaf() {
				// expandBox and octantCenter derive child centers by
				// different (mathematically equal) expressions, so
				// compare with a tolerance scaled to the cell size.
				want := octantCenter(n, q)
				eps := n.Half * 1e-9
				if math.Abs(c.Center.X-want.X) > eps ||
					math.Abs(c.Center.Y-want.Y) > eps ||
					math.Abs(c.Center.Z-want.Z) > eps {
					return fmt.Errorf("nbody: child %d center %v, want %v", q, c.Center, want)
				}
				if math.Abs(c.Half-n.Half/2) > eps {
					return fmt.Errorf("nbody: child %d half %g, want %g", q, c.Half, n.Half/2)
				}
			} else if octant(n.Center, c.Body.Pos) != q {
				return fmt.Errorf("nbody: leaf in wrong octant")
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(s.Root); err != nil {
		return err
	}
	if len(seen) != len(s.Bodies) {
		return fmt.Errorf("nbody: tree holds %d bodies, system has %d", len(seen), len(s.Bodies))
	}
	return nil
}
