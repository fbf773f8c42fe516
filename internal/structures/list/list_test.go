package list

import (
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	l := New(1, 2, 3)
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	if !reflect.DeepEqual(l.Slice(), []int{1, 2, 3}) {
		t.Errorf("slice = %v", l.Slice())
	}
	l.Prepend(0)
	l.Append(4)
	if !reflect.DeepEqual(l.Slice(), []int{0, 1, 2, 3, 4}) {
		t.Errorf("slice = %v", l.Slice())
	}
	if l.Head().Data != 0 {
		t.Errorf("head = %v", l.Head().Data)
	}
}

func TestInsertAfterAndRemove(t *testing.T) {
	l := New("a", "c")
	l.InsertAfter(l.Head(), "b")
	if !reflect.DeepEqual(l.Slice(), []string{"a", "b", "c"}) {
		t.Errorf("slice = %v", l.Slice())
	}
	// Inserting after the tail must update the tail.
	tail := l.Head()
	for tail.Next != nil {
		tail = tail.Next
	}
	l.InsertAfter(tail, "d")
	l.Append("e")
	if !reflect.DeepEqual(l.Slice(), []string{"a", "b", "c", "d", "e"}) {
		t.Errorf("slice = %v", l.Slice())
	}
	if !l.Remove(func(s string) bool { return s == "c" }) {
		t.Error("remove failed")
	}
	if l.Remove(func(s string) bool { return s == "zz" }) {
		t.Error("remove of absent must be false")
	}
	// Removing the tail updates the tail.
	l.Remove(func(s string) bool { return s == "e" })
	l.Append("f")
	if !reflect.DeepEqual(l.Slice(), []string{"a", "b", "d", "f"}) {
		t.Errorf("slice = %v", l.Slice())
	}
	// Removing the head.
	l.Remove(func(s string) bool { return s == "a" })
	if l.Head().Data != "b" {
		t.Errorf("head = %v", l.Head().Data)
	}
}

func TestParallelEach(t *testing.T) {
	for _, pes := range []int{-1, 0, 1, 2, 4, 7} {
		l := New[int]()
		for i := 0; i < 100; i++ {
			l.Append(i)
		}
		var visited atomic.Int64
		l.ParallelEach(pes, func(n *Node[int]) {
			n.Data *= 3
			visited.Add(1)
		})
		if visited.Load() != 100 {
			t.Errorf("pes=%d: visited %d nodes", pes, visited.Load())
		}
		for i, v := range l.Slice() {
			if v != 3*i {
				t.Fatalf("pes=%d: node %d = %d", pes, i, v)
			}
		}
	}
}

func TestVerifyDetectsCycle(t *testing.T) {
	l := New(1, 2, 3)
	last := l.Head()
	for last.Next != nil {
		last = last.Next
	}
	last.Next = l.Head() // close a cycle
	if err := l.VerifyAcyclic(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestVerifyDetectsSharing(t *testing.T) {
	// A Figure-1 "tournament"-like shape reachable in one walk:
	// x -> y -> z and z -> y gives y two in-edges.
	x := &Node[int]{Data: 1}
	y := &Node[int]{Data: 2}
	z := &Node[int]{Data: 3}
	x.Next = y
	y.Next = z
	z.Next = y
	shared := &List[int]{head: x, n: 3}
	if err := shared.VerifyUnique(); err == nil {
		t.Error("sharing not detected")
	}
}

func TestQuickAppendOrder(t *testing.T) {
	f := func(xs []int) bool {
		l := New(xs...)
		return reflect.DeepEqual(l.Slice(), append([]int{}, xs...)) &&
			l.Len() == len(xs) &&
			l.VerifyAcyclic() == nil && l.VerifyUnique() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
