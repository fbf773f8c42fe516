// Package list implements the paper's §3.1.1 one-way linked list as a
// generic Go container, with runtime verifiers for the ADDS properties
// its declaration promises (acyclicity and uniqueness along the X
// dimension) and a strided parallel traversal in the shape of the
// paper's §4.3.3 transformation.
package list

import (
	"fmt"

	"repro/internal/sched"
)

// Node is a one-way list node ("OneWayList *next is uniquely forward
// along X").
type Node[T any] struct {
	Data T
	Next *Node[T]
}

// List is a one-way linked list with O(1) append.
type List[T any] struct {
	head, tail *Node[T]
	n          int
}

// New builds a list from the given elements.
func New[T any](xs ...T) *List[T] {
	l := &List[T]{}
	for _, x := range xs {
		l.Append(x)
	}
	return l
}

// Len returns the number of nodes.
func (l *List[T]) Len() int { return l.n }

// Head returns the first node (nil when empty).
func (l *List[T]) Head() *Node[T] { return l.head }

// Append adds x at the tail.
func (l *List[T]) Append(x T) *Node[T] {
	node := &Node[T]{Data: x}
	if l.tail == nil {
		l.head, l.tail = node, node
	} else {
		l.tail.Next = node
		l.tail = node
	}
	l.n++
	return node
}

// Prepend adds x at the head.
func (l *List[T]) Prepend(x T) *Node[T] {
	node := &Node[T]{Data: x, Next: l.head}
	l.head = node
	if l.tail == nil {
		l.tail = node
	}
	l.n++
	return node
}

// InsertAfter inserts x after node n (which must belong to the list).
func (l *List[T]) InsertAfter(n *Node[T], x T) *Node[T] {
	node := &Node[T]{Data: x, Next: n.Next}
	n.Next = node
	if l.tail == n {
		l.tail = node
	}
	l.n++
	return node
}

// Remove unlinks the first node for which pred holds and reports
// whether one was removed.
func (l *List[T]) Remove(pred func(T) bool) bool {
	var prev *Node[T]
	for p := l.head; p != nil; p = p.Next {
		if pred(p.Data) {
			if prev == nil {
				l.head = p.Next
			} else {
				prev.Next = p.Next
			}
			if l.tail == p {
				l.tail = prev
			}
			l.n--
			return true
		}
		prev = p
	}
	return false
}

// Slice copies the elements into a slice.
func (l *List[T]) Slice() []T {
	out := make([]T, 0, l.n)
	for p := l.head; p != nil; p = p.Next {
		out = append(out, p.Data)
	}
	return out
}

// ParallelEach runs fn on every node on pes PEs — the caller and pes−1
// goroutines — with sched.Stride: PE i starts at node i (FOR2's skip)
// and advances pes nodes after each node (FOR1's advance), with no
// barrier between trips. pes ≤ 0 means GOMAXPROCS. fn must not touch
// other nodes (the dependence condition the analysis proves for such
// loops).
func (l *List[T]) ParallelEach(pes int, fn func(*Node[T])) {
	sched.Stride(pes, l.head, func(n *Node[T]) *Node[T] { return n.Next }, fn)
}

// VerifyAcyclic checks the "forward along X" promise at runtime with
// Floyd's algorithm.
func (l *List[T]) VerifyAcyclic() error {
	slow, fast := l.head, l.head
	for fast != nil && fast.Next != nil {
		slow = slow.Next
		fast = fast.Next.Next
		if slow == fast {
			return fmt.Errorf("list: cycle detected (forward-along-X violated)")
		}
	}
	return nil
}

// VerifyUnique checks the "uniquely forward" promise: no node is the
// next of two different nodes reachable from head.
func (l *List[T]) VerifyUnique() error {
	seen := make(map[*Node[T]]bool, l.n)
	for p := l.head; p != nil; p = p.Next {
		if p.Next != nil {
			if seen[p.Next] {
				return fmt.Errorf("list: node has two in-edges (uniquely-forward violated)")
			}
			seen[p.Next] = true
		}
		if seen[p] && p == l.head {
			return fmt.Errorf("list: head has an in-edge")
		}
	}
	return nil
}
