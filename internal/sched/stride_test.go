package sched

import (
	"fmt"
	"testing"
)

type node struct {
	visits int
	next   *node
}

func chain(n int) (*node, []*node) {
	nodes := make([]*node, n)
	var head *node
	for i := n - 1; i >= 0; i-- {
		head = &node{next: head}
		nodes[i] = head
	}
	return head, nodes
}

// TestStrideCoversEveryNode: every node of the chain is visited exactly
// once, for chains shorter than, as long as and longer than the PE
// count. Each visit writes its node without synchronization, so under
// -race two PEs reaching one node is a reported race.
func TestStrideCoversEveryNode(t *testing.T) {
	for _, pes := range []int{-1, 0, 1, 2, 3, 4, 7} {
		for _, n := range []int{0, 1, pes - 1, pes, pes + 1, 100} {
			if n < 0 {
				continue
			}
			t.Run(fmt.Sprintf("pes=%d/n=%d", pes, n), func(t *testing.T) {
				head, nodes := chain(n)
				Stride(pes, head, func(p *node) *node { return p.next }, func(p *node) { p.visits++ })
				for i, p := range nodes {
					if p.visits != 1 {
						t.Errorf("node %d visited %d times, want 1", i, p.visits)
					}
				}
			})
		}
	}
}
