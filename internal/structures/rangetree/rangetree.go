// Package rangetree implements the paper's §3.1.3 two-dimensional range
// tree (Figure 4): a binary tree over x (the down dimension) whose
// leaves are threaded into a two-way linked list (the leaves
// dimension), where every internal node carries a secondary binary tree
// over y (the sub dimension) of the points below it. The sub dimension
// is independent of down and of leaves — the declaration's
// "where sub||down, sub||leaves" — because secondary-tree nodes are
// fresh copies, never shared with the primary structure.
package rangetree

import (
	"fmt"
	"sort"
)

// Point is a 2-D point with an optional payload.
type Point struct {
	X, Y float64
	ID   int
}

// Node is a primary-tree node (internal or leaf).
type Node struct {
	// Left/Right are the down-dimension children (uniquely forward).
	Left, Right *Node
	// Subtree is the secondary y-tree over this node's points
	// (uniquely forward along the independent sub dimension).
	Subtree *YNode
	// Next/Prev thread leaf nodes into the leaves dimension.
	Next, Prev *Node
	// MinX and MaxX bound the x-values stored in this subtree.
	MinX, MaxX float64
	// Point is set exactly for leaves.
	Point *Point
}

// IsLeaf reports whether n is a leaf.
func (n *Node) IsLeaf() bool { return n.Point != nil }

// YNode is a secondary-tree node over y.
type YNode struct {
	Left, Right *YNode
	Point       *Point
	// MinY and MaxY bound the y-values stored in this subtree.
	MinY, MaxY float64
}

// IsLeaf reports whether y is a leaf.
func (y *YNode) IsLeaf() bool { return y.Point != nil }

// Tree is a 2-D range tree.
type Tree struct {
	Root *Node
	// LeftmostLeaf is the origin of the leaves dimension.
	LeftmostLeaf *Node
	n            int
}

// Build constructs the range tree for the points (copied, then sorted
// by x).
func Build(points []Point) *Tree {
	if len(points) == 0 {
		return &Tree{}
	}
	pts := make([]Point, len(points))
	copy(pts, points)
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		return pts[i].Y < pts[j].Y
	})
	t := &Tree{n: len(pts)}
	var leaves []*Node
	t.Root = buildX(pts, &leaves)
	for i, leaf := range leaves {
		if i > 0 {
			leaves[i-1].Next = leaf
			leaf.Prev = leaves[i-1]
		}
	}
	t.LeftmostLeaf = leaves[0]
	return t
}

func buildX(pts []Point, leaves *[]*Node) *Node {
	if len(pts) == 1 {
		p := pts[0]
		leaf := &Node{Point: &p, MinX: p.X, MaxX: p.X, Subtree: buildY(pts)}
		*leaves = append(*leaves, leaf)
		return leaf
	}
	mid := len(pts) / 2
	n := &Node{
		MinX:    pts[0].X,
		MaxX:    pts[len(pts)-1].X,
		Subtree: buildY(pts),
	}
	n.Left = buildX(pts[:mid], leaves)
	n.Right = buildX(pts[mid:], leaves)
	return n
}

func buildY(pts []Point) *YNode {
	ys := make([]Point, len(pts))
	copy(ys, pts)
	sort.Slice(ys, func(i, j int) bool {
		if ys[i].Y != ys[j].Y {
			return ys[i].Y < ys[j].Y
		}
		return ys[i].X < ys[j].X
	})
	return buildYSorted(ys)
}

func buildYSorted(pts []Point) *YNode {
	if len(pts) == 1 {
		p := pts[0]
		return &YNode{Point: &p, MinY: p.Y, MaxY: p.Y}
	}
	mid := len(pts) / 2
	return &YNode{
		MinY:  pts[0].Y,
		MaxY:  pts[len(pts)-1].Y,
		Left:  buildYSorted(pts[:mid]),
		Right: buildYSorted(pts[mid:]),
	}
}

// Len returns the number of points.
func (t *Tree) Len() int { return t.n }

// QueryX returns the points with x ∈ [x1, x2], by walking down the
// primary tree and then along the leaves dimension — the query the
// paper quotes ("find all points within the interval x1..x2").
func (t *Tree) QueryX(x1, x2 float64) []Point {
	var out []Point
	if t.Root == nil || x1 > x2 {
		return out
	}
	// Find the leftmost leaf with X >= x1 by descending toward the
	// first subtree whose range reaches x1.
	n := t.Root
	for !n.IsLeaf() {
		if n.Left.MaxX >= x1 {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	// It may still be below x1; the leaves list is x-sorted.
	for n != nil && n.Point.X < x1 {
		n = n.Next
	}
	for n != nil && n.Point.X <= x2 {
		out = append(out, *n.Point)
		n = n.Next
	}
	return out
}

// QueryRect returns the points within the rectangle [x1,x2]×[y1,y2]
// using the canonical range-tree decomposition: O(log n) primary
// subtrees, each answered by its secondary y-tree.
func (t *Tree) QueryRect(x1, y1, x2, y2 float64) []Point {
	var out []Point
	if t.Root == nil || x1 > x2 || y1 > y2 {
		return out
	}
	var collectY func(y *YNode)
	collectY = func(y *YNode) {
		if y == nil || y.MaxY < y1 || y.MinY > y2 {
			return // disjoint in y
		}
		if y.IsLeaf() {
			// x-filtering happened structurally: only canonical
			// subtrees fully inside [x1,x2] are queried.
			out = append(out, *y.Point)
			return
		}
		collectY(y.Left)
		collectY(y.Right)
	}
	var visit func(n *Node)
	visit = func(n *Node) {
		if n == nil || n.MaxX < x1 || n.MinX > x2 {
			return // disjoint in x
		}
		if x1 <= n.MinX && n.MaxX <= x2 {
			// Canonical subtree fully inside [x1,x2]: answer with the
			// secondary y-tree.
			collectY(n.Subtree)
			return
		}
		if n.IsLeaf() {
			return // leaf outside the range (covered cases returned above)
		}
		visit(n.Left)
		visit(n.Right)
	}
	visit(t.Root)
	sort.Slice(out, func(i, j int) bool {
		if out[i].X != out[j].X {
			return out[i].X < out[j].X
		}
		return out[i].Y < out[j].Y
	})
	return out
}

// Leaves returns the points in leaves-dimension order.
func (t *Tree) Leaves() []Point {
	var out []Point
	for n := t.LeftmostLeaf; n != nil; n = n.Next {
		out = append(out, *n.Point)
	}
	return out
}

// Verify checks the structural invariants behind the ADDS declaration:
// the down dimension is a proper binary tree (unique in-edges), leaves
// are exactly the tree's leaves in x order with consistent next/prev,
// and secondary subtrees are disjoint from the primary structure and
// from each other (the sub||down, sub||leaves independence).
func (t *Tree) Verify() error {
	if t.Root == nil {
		if t.n != 0 {
			return fmt.Errorf("rangetree: nil root with %d points", t.n)
		}
		return nil
	}
	seen := map[*Node]bool{}
	ySeen := map[*YNode]bool{}
	var leaves []*Node
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if seen[n] {
			return fmt.Errorf("rangetree: primary node shared (down not unique)")
		}
		seen[n] = true
		if n.Subtree == nil {
			return fmt.Errorf("rangetree: node lacks a secondary tree")
		}
		var walkY func(y *YNode) error
		walkY = func(y *YNode) error {
			if y == nil {
				return nil
			}
			if ySeen[y] {
				return fmt.Errorf("rangetree: secondary node shared (sub not independent)")
			}
			ySeen[y] = true
			if err := walkY(y.Left); err != nil {
				return err
			}
			return walkY(y.Right)
		}
		if err := walkY(n.Subtree); err != nil {
			return err
		}
		if n.IsLeaf() {
			leaves = append(leaves, n)
			return nil
		}
		if n.Left == nil || n.Right == nil {
			return fmt.Errorf("rangetree: internal node with missing child")
		}
		if err := walk(n.Left); err != nil {
			return err
		}
		return walk(n.Right)
	}
	if err := walk(t.Root); err != nil {
		return err
	}
	// Leaves list order matches tree leaf order.
	i := 0
	for n := t.LeftmostLeaf; n != nil; n = n.Next {
		if i >= len(leaves) || leaves[i] != n {
			return fmt.Errorf("rangetree: leaves list diverges from tree order at %d", i)
		}
		if n.Next != nil && n.Next.Prev != n {
			return fmt.Errorf("rangetree: broken next/prev pairing")
		}
		if n.Next != nil && n.Next.Point.X < n.Point.X {
			return fmt.Errorf("rangetree: leaves not x-sorted")
		}
		i++
	}
	if i != len(leaves) || i != t.n {
		return fmt.Errorf("rangetree: %d leaves threaded, %d in tree, %d points", i, len(leaves), t.n)
	}
	return nil
}
