package interp

import (
	"fmt"

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
// Violations are recorded (see ShapeViolations); with
// ShapeChecksFatal they abort execution instead, which is the
// behaviour a debugging build would want.

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
	out := make([]ShapeViolation, len(ip.sh.shapeLog))
	copy(out, ip.sh.shapeLog)
	return out
}

func (ip *Interp) recordShape(v ShapeViolation) error {
	ip.sh.shapeMu.Lock()
	ip.sh.shapeLog = append(ip.sh.shapeLog, v)
	ip.sh.shapeMu.Unlock()
	if ip.cfg.ShapeChecksFatal {
		return fmt.Errorf("interp: %s", v)
	}
	return nil
}

// checkStore validates the store node.field[idx] = target against the
// field's ADDS annotation. old is the edge's previous target.
func (ip *Interp) checkStore(pos lang.Pos, node *Node, field string, old, target *Node) error {
	decl := ip.prog.Universe.Decl(node.Type)
	if decl == nil {
		return nil
	}
	pf := decl.Pointer(field)
	if pf == nil || pf.Dir != adds.Forward {
		return nil
	}

	// Uniqueness: maintain per-dimension in-edge counts.
	if pf.Unique {
		if old != nil {
			ip.sh.shapeMu.Lock()
			if old.inEdges != nil {
				old.inEdges[pf.Dim]--
			}
			ip.sh.shapeMu.Unlock()
		}
		if target != nil {
			ip.sh.shapeMu.Lock()
			if target.inEdges == nil {
				target.inEdges = map[string]int{}
			}
			target.inEdges[pf.Dim]++
			count := target.inEdges[pf.Dim]
			ip.sh.shapeMu.Unlock()
			if count > 1 {
				if err := ip.recordShape(ShapeViolation{
					Pos: pos, Kind: "sharing", Type: node.Type, Dim: pf.Dim,
				}); err != nil {
					return err
				}
			}
		}
	}

	// Acyclicity: does the new edge close a forward cycle along the
	// dimension? Bounded DFS from target through forward fields.
	if target != nil && ip.reachesForward(target, node, pf.Dim, ip.cfg.ShapeWalkLimit) {
		if err := ip.recordShape(ShapeViolation{
			Pos: pos, Kind: "cycle", Type: node.Type, Dim: pf.Dim,
		}); err != nil {
			return err
		}
	}
	return nil
}

// reachesForward reports whether dst is reachable from src by following
// forward fields along dim, visiting at most limit nodes.
func (ip *Interp) reachesForward(src, dst *Node, dim string, limit int) bool {
	if limit <= 0 {
		limit = 100000
	}
	seen := map[*Node]bool{}
	stack := []*Node{src}
	for len(stack) > 0 && len(seen) < limit {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == dst {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		decl := ip.prog.Universe.Decl(n.Type)
		if decl == nil {
			continue
		}
		for _, pf := range decl.FieldsAlong(dim, adds.Forward) {
			for _, next := range n.ptrs(pf.Name) {
				if next != nil {
					stack = append(stack, next)
				}
			}
		}
	}
	return false
}
