package nbody

import (
	"fmt"
	"math"

	"repro/internal/sched"
)

// Vec3 is a 3-vector.
type Vec3 struct{ X, Y, Z float64 }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.X*v.X + v.Y*v.Y + v.Z*v.Z) }

// Body is one particle. Next threads the particles into the one-way
// leaves list of the paper's octree declaration.
type Body struct {
	Mass  float64
	Pos   Vec3
	Vel   Vec3
	Force Vec3
	Next  *Body
}

// Node is an octree node: an internal cell (with its bounding box and
// aggregated mass) or a leaf holding one body.
type Node struct {
	// Center and Half describe the cell's box.
	Center Vec3
	Half   float64
	// Mass and COM aggregate the subtree (for leaves: the body).
	Mass float64
	COM  Vec3
	// Children are the eight octants (nil for leaves).
	Children [8]*Node
	// Body is non-nil exactly for leaves.
	Body *Body
}

// IsLeaf reports whether the node holds a single body.
func (n *Node) IsLeaf() bool { return n.Body != nil }

// System is an N-body simulation instance.
type System struct {
	Bodies []*Body
	Head   *Body // the leaves list
	Theta  float64
	Dt     float64
	// Root is the most recent tree (rebuilt every step).
	Root *Node
	// Eps2 is the softening length squared.
	Eps2 float64
	// Interactions counts pair-force evaluations when CountWork is set
	// (sequential drivers only; not synchronized).
	Interactions int64
	// CountWork enables interaction counting.
	CountWork bool
}

// splitmix is the same deterministic generator the interpreter uses.
type splitmix struct{ state uint64 }

func (r *splitmix) next() float64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// NewUniform creates n bodies uniformly distributed in a 100³ box with
// random masses in [1, 2) and small random velocities, matching the PSL
// make_particles generator.
func NewUniform(n int, seed uint64, theta, dt float64) *System {
	r := &splitmix{state: seed*2862933555777941757 + 3037000493}
	s := &System{Theta: theta, Dt: dt, Eps2: 0.0001}
	var head *Body
	for i := 0; i < n; i++ {
		b := &Body{
			Mass: 1.0 + r.next(),
			Pos:  Vec3{r.next()*100 - 50, r.next()*100 - 50, r.next()*100 - 50},
			Vel:  Vec3{r.next()*0.1 - 0.05, r.next()*0.1 - 0.05, r.next()*0.1 - 0.05},
		}
		b.Next = head
		head = b
	}
	// The PSL generator prepends, so walk the list to register bodies in
	// traversal order.
	s.Head = head
	for b := head; b != nil; b = b.Next {
		s.Bodies = append(s.Bodies, b)
	}
	return s
}

// NewPlummer creates a centrally condensed cluster (a Plummer-like
// profile), the distribution real tree-code papers exercise; it stresses
// the tree with highly non-uniform depth.
func NewPlummer(n int, seed uint64, theta, dt float64) *System {
	r := &splitmix{state: seed*2862933555777941757 + 3037000493}
	s := &System{Theta: theta, Dt: dt, Eps2: 0.0001}
	var head *Body
	for i := 0; i < n; i++ {
		// Sample radius from the Plummer cumulative mass profile.
		m := 0.1 + 0.8*r.next()
		radius := 10.0 / math.Sqrt(math.Pow(m, -2.0/3.0)-1)
		u, v := r.next(), r.next()
		thetaA := math.Acos(2*u - 1)
		phi := 2 * math.Pi * v
		b := &Body{
			Mass: 1.0,
			Pos: Vec3{
				radius * math.Sin(thetaA) * math.Cos(phi),
				radius * math.Sin(thetaA) * math.Sin(phi),
				radius * math.Cos(thetaA),
			},
			Vel: Vec3{r.next()*0.02 - 0.01, r.next()*0.02 - 0.01, r.next()*0.02 - 0.01},
		}
		b.Next = head
		head = b
	}
	s.Head = head
	for b := head; b != nil; b = b.Next {
		s.Bodies = append(s.Bodies, b)
	}
	return s
}

// ---------------------------------------------------------------------------
// Tree construction (expand_box + insert_particle, §4.3.2)

func octant(center Vec3, p Vec3) int {
	q := 0
	if p.X >= center.X {
		q |= 1
	}
	if p.Y >= center.Y {
		q |= 2
	}
	if p.Z >= center.Z {
		q |= 4
	}
	return q
}

func octantCenter(n *Node, q int) Vec3 {
	h := n.Half / 2
	c := n.Center
	if q&1 != 0 {
		c.X += h
	} else {
		c.X -= h
	}
	if q&2 != 0 {
		c.Y += h
	} else {
		c.Y -= h
	}
	if q&4 != 0 {
		c.Z += h
	} else {
		c.Z -= h
	}
	return c
}

func (n *Node) contains(p Vec3) bool {
	return p.X >= n.Center.X-n.Half && p.X < n.Center.X+n.Half &&
		p.Y >= n.Center.Y-n.Half && p.Y < n.Center.Y+n.Half &&
		p.Z >= n.Center.Z-n.Half && p.Z < n.Center.Z+n.Half
}

// expandBox grows the tree upward until p's position fits (§4.3.2).
func expandBox(b *Body, root *Node) *Node {
	if root == nil {
		return &Node{Center: b.Pos, Half: 1}
	}
	r := root
	for !r.contains(b.Pos) {
		h := r.Half
		c := r.Center
		nc := Vec3{c.X - h, c.Y - h, c.Z - h}
		if b.Pos.X >= c.X {
			nc.X = c.X + h
		}
		if b.Pos.Y >= c.Y {
			nc.Y = c.Y + h
		}
		if b.Pos.Z >= c.Z {
			nc.Z = c.Z + h
		}
		nr := &Node{Center: nc, Half: 2 * h}
		nr.Children[octant(nc, c)] = r
		r = nr
	}
	return r
}

// insertBody descends the tree looking for b's quadrant, subdividing
// occupied quadrants (§4.3.2).
func insertBody(b *Body, root *Node) {
	t := root
	for {
		q := octant(t.Center, b.Pos)
		child := t.Children[q]
		if child == nil {
			t.Children[q] = &Node{Body: b, Mass: b.Mass, COM: b.Pos}
			return
		}
		if !child.IsLeaf() {
			t = child
			continue
		}
		// Occupied by another particle: subdivide (nudging exact
		// coincidences apart, as the PSL version does).
		other := child.Body
		if other.Pos == b.Pos {
			b.Pos.X += t.Half*0.001 + 1e-7
		}
		sub := &Node{Center: octantCenter(t, q), Half: t.Half / 2}
		sub.Children[octant(sub.Center, other.Pos)] = child
		t.Children[q] = sub
		t = sub
	}
}

// BuildTree rebuilds the octree from the leaves list (§4.3.2's
// build_tree) and computes the mass aggregation.
func (s *System) BuildTree() *Node {
	var root *Node
	for b := s.Head; b != nil; b = b.Next {
		root = expandBox(b, root)
		insertBody(b, root)
	}
	computeMass(root)
	s.Root = root
	return root
}

func computeMass(n *Node) {
	if n == nil || n.IsLeaf() {
		return
	}
	var m float64
	var mx, my, mz float64
	for _, c := range n.Children {
		if c == nil {
			continue
		}
		computeMass(c)
		m += c.Mass
		mx += c.Mass * c.COM.X
		my += c.Mass * c.COM.Y
		mz += c.Mass * c.COM.Z
	}
	n.Mass = m
	if m > 0 {
		n.COM = Vec3{mx / m, my / m, mz / m}
	}
}

// ---------------------------------------------------------------------------
// Force computation

// forceOn accumulates the force on b from the subtree rooted at node
// (§4.1's compute_force).
func (s *System) forceOn(b *Body, node *Node) {
	if node == nil {
		return
	}
	if node.IsLeaf() {
		if node.Body != b {
			s.addPairForce(b, node.Mass, node.COM)
		}
		return
	}
	d := node.COM.Sub(b.Pos).Norm() + 1e-6
	if node.Half*2/d < s.Theta {
		s.addPairForce(b, node.Mass, node.COM) // well separated
		return
	}
	for _, c := range node.Children {
		s.forceOn(b, c)
	}
}

func (s *System) addPairForce(b *Body, m float64, at Vec3) {
	if s.CountWork {
		s.Interactions++
	}
	d := at.Sub(b.Pos)
	d2 := d.X*d.X + d.Y*d.Y + d.Z*d.Z + s.Eps2
	inv := m * b.Mass / (d2 * math.Sqrt(d2))
	b.Force = b.Force.Add(d.Scale(inv))
}

// integrate applies §4.1's compute_new_vel_pos.
func (s *System) integrate(b *Body) {
	a := b.Force.Scale(1 / b.Mass)
	b.Vel = b.Vel.Add(a.Scale(s.Dt))
	b.Pos = b.Pos.Add(b.Vel.Scale(s.Dt))
}

// ---------------------------------------------------------------------------
// Drivers

// Step runs one sequential Barnes-Hut time step: rebuild, BHL1, BHL2.
func (s *System) Step() {
	s.BuildTree()
	for b := s.Head; b != nil; b = b.Next { // BHL1
		b.Force = Vec3{}
		s.forceOn(b, s.Root)
	}
	for b := s.Head; b != nil; b = b.Next { // BHL2
		s.integrate(b)
	}
}

// StepParallel runs one time step with BHL1 and BHL2 each spread over
// pes PEs — the caller and pes−1 goroutines — by sched.Stride along the
// leaves list: PE i starts at particle i (FOR2's skip) and advances pes
// particles after each one (FOR1's advance), with no barrier between
// trips. pes ≤ 0 means GOMAXPROCS. Forces are per-body, so the
// trajectory is Step's bit for bit.
func (s *System) StepParallel(pes int) {
	s.BuildTree()
	next := func(b *Body) *Body { return b.Next }
	sched.Stride(pes, s.Head, next, func(b *Body) {
		b.Force = Vec3{}
		s.forceOn(b, s.Root)
	})
	sched.Stride(pes, s.Head, next, s.integrate)
}

// DirectStep runs one O(N²) time step — the paper's §4.1 "obvious
// implementation", the baseline Barnes-Hut improves on.
func (s *System) DirectStep() {
	for _, b := range s.Bodies {
		b.Force = Vec3{}
	}
	for i, a := range s.Bodies {
		for j, b := range s.Bodies {
			if i == j {
				continue
			}
			s.addPairForce(a, b.Mass, b.Pos)
		}
	}
	for _, b := range s.Bodies {
		s.integrate(b)
	}
}

// Run advances the system `steps` steps with the given driver:
// "seq", "par" or "direct". pes is ignored for seq/direct.
func (s *System) Run(driver string, steps, pes int) error {
	for i := 0; i < steps; i++ {
		switch driver {
		case "seq":
			s.Step()
		case "par":
			s.StepParallel(pes)
		case "direct":
			s.DirectStep()
		default:
			return fmt.Errorf("nbody: unknown driver %q", driver)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Diagnostics

// ThetaRow is one row of the accuracy/work sweep.
type ThetaRow struct {
	Theta        float64
	MeanRelErr   float64 // mean relative force error vs the O(N²) direct method
	Interactions int64   // pair-force evaluations for one force pass
	DirectPairs  int64   // N(N-1), the direct method's work
}

// ThetaSweep quantifies Barnes-Hut's central design choice: larger
// well-separated thresholds do less work and lose accuracy. It runs
// one force computation per theta over the same particle set and
// compares against the direct method.
func ThetaSweep(n int, seed uint64, thetas []float64) []ThetaRow {
	direct := NewUniform(n, seed, 0, 0.01)
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
	var rows []ThetaRow
	for _, theta := range thetas {
		s := NewUniform(n, seed, theta, 0.01)
		s.CountWork = true
		s.BuildTree()
		for _, b := range s.Bodies {
			b.Force = Vec3{}
			s.forceOn(b, s.Root)
		}
		var relErr float64
		for i := range s.Bodies {
			fd := direct.Bodies[i].Force
			if d := fd.Norm(); d > 1e-12 {
				relErr += s.Bodies[i].Force.Sub(fd).Norm() / d
			}
		}
		rows = append(rows, ThetaRow{
			Theta:        theta,
			MeanRelErr:   relErr / float64(n),
			Interactions: s.Interactions,
			DirectPairs:  int64(n) * int64(n-1),
		})
	}
	return rows
}

// TotalMomentum returns Σ m·v (approximately conserved).
func (s *System) TotalMomentum() Vec3 {
	var p Vec3
	for _, b := range s.Bodies {
		p = p.Add(b.Vel.Scale(b.Mass))
	}
	return p
}
