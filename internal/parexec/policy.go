package parexec

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Policy decides which PE executes which iteration of a parallel
// forall — the scheduling lever of the paper's §4.3.3 discussion and
// the X2 ablation (the "simple static scheduling" the paper blames for
// part of its sublinearity, versus the self-scheduling alternatives it
// cites). A Policy only chooses the iteration→PE mapping; Run's
// deterministic merge (per-iteration output buffers flushed in
// iteration order, heap writes disjoint by the dependence test) is
// identical under every policy, so the bit-identical-to-serial
// guarantee does not depend on the schedule.
type Policy interface {
	// Name is the stable identifier used by flags and table labels
	// ("block", "cyclic", "dynamic").
	Name() string
	// Assign returns the iteration assignment for one forall over the
	// inclusive range [from, to] executed by pes workers.
	Assign(from, to int64, pes int) Assignment
}

// Assignment hands out one forall's iterations to its workers. Worker
// pe calls Next(pe) repeatedly until ok is false. Calls with distinct
// pe values may be concurrent; calls for one pe are sequential. An
// Assignment must hand out every iteration of the range exactly once
// across all PEs.
type Assignment interface {
	Next(pe int) (k int64, ok bool)
}

// StaticBlock assigns each PE one contiguous chunk of ⌈n/pes⌉
// iterations (PE 0 the first chunk, and so on). Matches the simulated
// machine's interp.Block mapping. Lowest scheduling overhead, worst
// load balance when iteration costs are skewed toward one end of the
// range.
var StaticBlock Policy = blockPolicy{}

// StaticCyclic assigns iteration k to PE (k-from) mod pes — the
// paper's "simple static scheduling" (§4.4's sublinearity source (1)),
// and the mapping the simulated Sequent uses by default
// (interp.Cyclic). Good balance for smoothly varying iteration costs.
var StaticCyclic Policy = cyclicPolicy{}

// Dynamic returns a dynamic self-scheduling policy: idle PEs claim the
// next unclaimed chunk of `chunk` iterations from a shared cursor, so
// the schedule adapts to load at the cost of one atomic operation per
// chunk. chunk < 1 is treated as 1. Dynamic(1) is the default
// and reproduces the original task-queue behavior of the PR 1 pool.
func Dynamic(chunk int) Policy {
	if chunk < 1 {
		chunk = 1
	}
	return dynamicPolicy{chunk: int64(chunk)}
}

// PolicyNames lists the accepted ParsePolicy names in display order.
func PolicyNames() []string { return []string{"block", "cyclic", "dynamic"} }

// ParsePolicy resolves a policy name from the command line ("block",
// "cyclic", or "dynamic"; chunk applies to dynamic only).
func ParsePolicy(name string, chunk int) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "block":
		return StaticBlock, nil
	case "cyclic":
		return StaticCyclic, nil
	case "dynamic":
		return Dynamic(chunk), nil
	}
	return nil, fmt.Errorf("parexec: unknown scheduling policy %q (want %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// ---------------------------------------------------------------------------
// Static block

type blockPolicy struct{}

func (blockPolicy) Name() string { return "block" }

func (blockPolicy) Assign(from, to int64, pes int) Assignment {
	n := to - from + 1
	chunk := (n + int64(pes) - 1) / int64(pes)
	a := &staticAssign{cur: make([]span, pes)}
	for pe := range a.cur {
		lo := from + int64(pe)*chunk
		hi := lo + chunk
		if hi > to+1 {
			hi = to + 1
		}
		if lo > to {
			lo, hi = 0, 0
		}
		a.cur[pe] = span{lo: lo, hi: hi, stride: 1}
	}
	return a
}

// ---------------------------------------------------------------------------
// Static cyclic

type cyclicPolicy struct{}

func (cyclicPolicy) Name() string { return "cyclic" }

func (cyclicPolicy) Assign(from, to int64, pes int) Assignment {
	a := &staticAssign{cur: make([]span, pes)}
	for pe := range a.cur {
		a.cur[pe] = span{lo: from + int64(pe), hi: to + 1, stride: int64(pes)}
	}
	return a
}

// span is one PE's remaining iterations: lo, lo+stride, ... below hi.
type span struct {
	lo, hi, stride int64
}

// staticAssign serves precomputed per-PE spans; each slot is touched
// only by its own PE, so no synchronization is needed.
type staticAssign struct {
	cur []span
}

func (a *staticAssign) Next(pe int) (int64, bool) {
	s := &a.cur[pe]
	if s.lo >= s.hi {
		return 0, false
	}
	k := s.lo
	s.lo += s.stride
	return k, true
}

// ---------------------------------------------------------------------------
// Dynamic self-scheduling

type dynamicPolicy struct {
	chunk int64
}

func (p dynamicPolicy) Name() string { return "dynamic" }

func (p dynamicPolicy) Assign(from, to int64, pes int) Assignment {
	return &dynamicAssign{from: from, to: to, chunk: p.chunk, cur: make([]span, pes)}
}

// dynamicAssign shares one claim cursor; per-PE spans buffer the chunk
// each worker is currently draining (each slot touched only by its own
// PE).
type dynamicAssign struct {
	from, to int64
	chunk    int64
	next     atomic.Int64 // next unclaimed offset from `from`
	cur      []span
}

func (a *dynamicAssign) Next(pe int) (int64, bool) {
	s := &a.cur[pe]
	if s.lo >= s.hi {
		off := a.next.Add(a.chunk) - a.chunk
		lo := a.from + off
		if lo > a.to {
			return 0, false
		}
		hi := lo + a.chunk
		if hi > a.to+1 {
			hi = a.to + 1
		}
		s.lo, s.hi = lo, hi
	}
	k := s.lo
	s.lo++
	return k, true
}
