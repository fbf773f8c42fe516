package main

import (
	"math"
	"time"
)

// The sandbox the benchmark runs in shares its host: identical work
// takes 10-30% longer for minutes at a time when a neighbour presses on
// the caches, and every timing of a run moves with it. A fixed
// arithmetic loop does not move at all (the clock is steady), a pointer
// chase and an allocate-and-dispatch loop do, as the interpreter does.
// The calibrator times those two, which call nothing of the repository,
// before and after every slice of a run; the end-to-end timings are
// divided by what they read over a fixed reference, so a run taken in a
// slow spell and one taken in a quiet one report the same program the
// same. README.md ("Noise") has the measurements that led here.
type calibrator struct {
	ring *calNode
	sink float64
}

// calNode is one cache line of the pointer chase.
type calNode struct {
	next *calNode
	a, b float64
	_    [5]uint64
}

// calExpr is a small expression tree walked through an interface, the
// shape of a tree-walking or closure-compiled interpreter.
type calExpr interface{ eval(x float64) float64 }

type (
	calLeaf struct{ v float64 }
	calAdd  struct{ l, r calExpr }
	calMul  struct{ l, r calExpr }
)

func (n *calLeaf) eval(x float64) float64 { return n.v + x }
func (n *calAdd) eval(x float64) float64  { return n.l.eval(x) + n.r.eval(x) }
func (n *calMul) eval(x float64) float64  { return n.l.eval(x) * 0.5 * n.r.eval(x) }

// Reference times of the two kernels: their medians on the 2-vCPU
// sandbox the benchmark was sized on, in a quiet spell. They only fix
// the scale (a slowdown of 1 there); a change of the program under test
// cannot move them.
const (
	chaseRef = 0.70e-3
	treeRef  = 0.31e-3
	// calSlice is how long one reading takes.
	calSlice = 30 * time.Millisecond
)

func newCalibrator() *calibrator {
	// 4096 nodes of 64 bytes (an L2's worth), linked in shuffled order.
	nodes := make([]calNode, 4096)
	perm := make([]int, len(nodes))
	for i := range perm {
		perm[i] = i
	}
	r := rng(12345)
	for i := len(perm) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, at := range perm {
		n := &nodes[at]
		n.next = &nodes[perm[(i+1)%len(perm)]]
		n.a, n.b = float64(i), 1.0001
	}
	return &calibrator{ring: &nodes[perm[0]]}
}

// chase follows 100 000 dependent pointers.
func (c *calibrator) chase() float64 {
	t0 := time.Now()
	n, s := c.ring, 0.0
	for i := 0; i < 100000; i++ {
		s += n.a * n.b
		n = n.next
	}
	c.sink += s
	return time.Since(t0).Seconds()
}

func buildExpr(depth int, r *rng) calExpr {
	if depth == 0 {
		return &calLeaf{v: float64(r.intn(7))}
	}
	if r.intn(2) == 0 {
		return &calAdd{buildExpr(depth-1, r), buildExpr(depth-1, r)}
	}
	return &calMul{buildExpr(depth-1, r), buildExpr(depth-1, r)}
}

// tree allocates a 4095-node expression tree and evaluates it eight
// times through the interface.
func (c *calibrator) tree() float64 {
	t0 := time.Now()
	r := rng(777)
	e := buildExpr(11, &r)
	s := 0.0
	for i := 0; i < 8; i++ {
		s += e.eval(float64(i) * 1e-9)
	}
	c.sink += s
	return time.Since(t0).Seconds()
}

// slowdown reads the machine: the two kernels alternately for calSlice,
// the geometric mean of their medians over their references. 1 is the
// reference machine in a quiet spell, 1.2 a machine or a spell in which
// this kind of work takes a fifth longer.
func (c *calibrator) slowdown() float64 {
	var chase, tree samples
	until(time.Now().Add(calSlice), 3, func() {
		chase.add(c.chase())
		tree.add(c.tree())
	})
	return math.Sqrt(chase.median() / chaseRef * tree.median() / treeRef)
}
