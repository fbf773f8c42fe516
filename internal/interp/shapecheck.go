package interp

import (
	"fmt"
	"slices"

	"repro/internal/adds"
	"repro/internal/lang"
)

// Runtime shape checking implements the paper's §2.2 suggestion that
// ADDS declarations let "the compiler ... generate run-time checks for
// the proper use of dynamic data structures" (and footnote 5's
// debugging switch). When Config.ShapeChecks is on, every pointer
// store is checked against the stored-into field's ADDS annotation:
//
//   - sharing: a store that gives a node a second in-edge along a
//     uniquely-forward dimension;
//   - cycle: a store that closes a cycle along a declared-forward
//     (acyclic) direction, detected by a bounded walk.
//
// A store names its field by offset in the node's declaration, and the
// check counts in-edges by node id and dimension number in a side
// table that exists only while the checks are on. Violations are
// recorded (see ShapeViolations); with ShapeChecksFatal they abort
// execution instead, which is the behaviour a debugging build would want.

// ShapeViolation is one runtime shape-check failure.
type ShapeViolation struct {
	Pos  lang.Pos
	Kind string // "sharing" or "cycle"
	Type string
	Dim  string
}

// String renders "3:5: runtime sharing of Octree along down".
func (v ShapeViolation) String() string {
	return fmt.Sprintf("%s: runtime %s of %s along %s", v.Pos, v.Kind, v.Type, v.Dim)
}

// ShapeViolations returns the runtime shape-check log.
func (ip *Interp) ShapeViolations() []ShapeViolation {
	ip.sh.shapeMu.Lock()
	defer ip.sh.shapeMu.Unlock()
	return append([]ShapeViolation{}, ip.sh.shapeLog...)
}

// shapeTable is the checker's state, shared by an interpreter and its
// forks under state.shapeMu. dimOf[d][off] numbers the dimension of
// declaration d's pointer field off, or is -1 if the field is not
// forward; a name has one number in every declaration. rows holds one
// row per node id (see row), and stack is the cycle walks', reused.
// Ids are the run's own (the Interp's and its forks'), so a node
// another interpreter allocated shares the row of this run's node of
// its id.
type shapeTable struct {
	dimOf map[*adds.Decl][]int32
	ndims int
	rows  []int64
	walk  int64
	stack []*Node
}

// newShapeTable numbers the dimensions u's forward fields run along.
func newShapeTable(u *adds.Universe) *shapeTable {
	tab := &shapeTable{dimOf: make(map[*adds.Decl][]int32, u.Len())}
	var names []string
	for _, t := range u.Types() {
		d := u.Decl(t)
		row := make([]int32, len(d.Pointers))
		for i, pf := range d.Pointers {
			row[i] = int32(slices.Index(names, pf.Dim))
			if pf.Dir != adds.Forward {
				row[i] = -1
			} else if row[i] < 0 {
				row[i], names = int32(len(names)), append(names, pf.Dim)
			}
		}
		tab.dimOf[d] = row
	}
	tab.ndims = len(names)
	return tab
}

// row returns node n's row, growing the table to hold it: row[0] is the
// last cycle walk to visit n, and row[1+dim] counts its in-edges along dim.
func (tab *shapeTable) row(n *Node) []int64 {
	w, id := 1+tab.ndims, int(n.id)
	if more := (id+1)*w - len(tab.rows); more > 0 {
		tab.rows = append(tab.rows, make([]int64, max(more, len(tab.rows)))...)
	}
	return tab.rows[id*w : (id+1)*w]
}

// checkStore validates the store node.parr[off][idx] = target against
// the field's ADDS annotation. old is the edge's previous target.
func (ip *Interp) checkStore(pos lang.Pos, node *Node, off int32, old, target *Node) error {
	ip.sh.shapeMu.Lock()
	defer ip.sh.shapeMu.Unlock()
	tab, pf := ip.sh.shape, &node.decl.Pointers[off]
	dim := tab.dimOf[node.decl][off]
	if dim < 0 {
		return nil
	}
	violation := func(kind string) error {
		v := ShapeViolation{Pos: pos, Kind: kind, Type: node.decl.Name, Dim: pf.Dim}
		if ip.sh.shapeLog = append(ip.sh.shapeLog, v); ip.cfg.ShapeChecksFatal {
			return fmt.Errorf("interp: %s", v)
		}
		return nil
	}
	// Uniqueness: count in-edges along dim.
	if pf.Unique && old != nil {
		tab.row(old)[1+dim]--
	}
	var err error
	if pf.Unique && target != nil {
		in := tab.row(target)
		if in[1+dim]++; in[1+dim] > 1 {
			err = violation("sharing")
		}
	}
	// Acyclicity: does the new edge close a forward cycle along dim?
	if err == nil && target != nil && tab.reaches(target, node, dim) {
		err = violation("cycle")
	}
	return err
}

// shapeWalkLimit bounds the cycle check's walk, in nodes visited.
const shapeWalkLimit = 100_000

// reaches reports whether dst is reachable from src by following
// forward fields along dim, visiting at most shapeWalkLimit nodes.
func (tab *shapeTable) reaches(src, dst *Node, dim int32) bool {
	tab.walk++
	stack := append(tab.stack[:0], src)
	defer func() { tab.stack = stack[:0] }()
	for visited := 0; len(stack) > 0 && visited < shapeWalkLimit; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == dst {
			return true
		}
		if n == nil || tab.row(n)[0] == tab.walk {
			continue
		}
		tab.row(n)[0] = tab.walk
		visited++
		for i, d := range tab.dimOf[n.decl] {
			if d == dim {
				stack = append(stack, n.parr[i]...)
			}
		}
	}
	return false
}
