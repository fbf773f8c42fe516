// The kernel engine's run-time half: batched SPMD execution of
// vectorized strips (bytecode.Kernel) over struct-of-arrays slabs —
// the third engine, beside the tree-walking oracle and the bytecode VM
// it extends.
//
// A strip executes in three phases. Gather takes each lane's node from
// the strip's one chain walk (bcForall's stripWalk, which the scalar
// strip path shares), fills the root execution mask (lane is non-NULL),
// and copies every touched field AoS→SoA into flat per-bank slabs;
// scalar free variables broadcast into whole slabs.
// Compute runs the lowered body as fused whole-slab operations, each
// masked by its governing execution mask — `if` branches become mask
// refinements, never control flow. Scatter commits the strip's step
// accounting and writes the stored fields back to the heap, all
// root-active lanes unconditionally: a lane an `if` masked off writes
// back the value it was gathered with, which is exactly the value the
// scalar engines would have left in place.
//
// Execution is transactional: the heap is untouched until Scatter, so
// any fault (a zero divisor in an active lane — possibly a spurious
// one, since kernels evaluate && and || eagerly — or step-budget or
// cancellation pressure) simply discards the slabs and falls back to
// the scalar bytecode path, which re-executes the strip from
// unmodified state and reproduces the exact error text, partial
// writes, and accounting the other engines produce; a chain the walk
// could not follow to the last lane never reaches the kernel. Success
// commits step totals bit-identical to the scalar engines': 3+2k
// prologue steps for lane k in closed form plus one step per active
// lane per body statement (mask popcounts).
package interp

import (
	"errors"
	"math"
	"time"

	"repro/internal/bytecode"
	"repro/internal/lang"
)

// errKernelFault aborts a strip; it is never surfaced (the scalar
// fallback re-raises the real error with the scalar engines' text).
var errKernelFault = errors.New("interp: kernel strip fault")

// kernState is an Interp's reusable strip state: contiguous per-bank
// backing arrays, re-sliced per strip, and the binding fields below
// that aim the phases at the strip in flight — so a warm loop allocates
// nothing. One Interp executes one strip at a time (the strip is the
// barrier), so a single state per Interp suffices.
type kernState struct {
	nodes []*Node
	ib    []int64
	fb    []float64
	bb    []bool
	i     [][]int64
	f     [][]float64
	b     [][]bool
	// stepCounts[mask] aggregates how many KStep instructions each
	// execution mask governs, so scatter popcounts each distinct mask
	// once instead of once per statement.
	stepCounts []int64

	ip *Interp // the owner; scatter commits steps to its shared counters

	// The strip in flight, set by bcForallKernel before any phase runs;
	// nodes are its lanes' elements, from the strip's one chain walk.
	kern          *bytecode.Kernel
	fr            *bcFrame       // the caller's frame, read by gather
	args          []bytecode.Reg // the helper call's argument registers
	prologueSteps int64
}

// ensure aims the state at a strip whose lanes' elements are nodes and
// sizes its slabs.
func (ks *kernState) ensure(k *bytecode.Kernel, nodes []*Node) {
	ks.nodes = nodes
	n := len(nodes)
	if need := k.NInt * n; cap(ks.ib) < need {
		ks.ib = make([]int64, need)
	}
	if need := k.NReal * n; cap(ks.fb) < need {
		ks.fb = make([]float64, need)
	}
	if need := k.NBool * n; cap(ks.bb) < need {
		ks.bb = make([]bool, need)
	}
	ks.i = sliceSlabs(ks.i, ks.ib, k.NInt, n)
	ks.f = sliceSlabs(ks.f, ks.fb, k.NReal, n)
	ks.b = sliceSlabs(ks.b, ks.bb, k.NBool, n)
	if cap(ks.stepCounts) < k.NBool {
		ks.stepCounts = make([]int64, k.NBool)
	}
	ks.stepCounts = ks.stepCounts[:k.NBool]
}

func sliceSlabs[T any](dst [][]T, back []T, slabs, n int) [][]T {
	dst = dst[:0]
	for s := 0; s < slabs; s++ {
		dst = append(dst, back[s*n:(s+1)*n])
	}
	return dst
}

// bcForallKernel tries to run one parallel loop as a vectorized strip:
// gather, compute over every lane, scatter, in place on the calling
// goroutine, as one barrier. It reports whether the strip completed on
// the vector path; false means nothing observable happened (no heap
// writes, no accounting, no barrier) and the caller must run the scalar
// path, whose window is then the barrier.
//
// The compute phase is not split across a pool of PEs, because on the
// one host measured it never repaid the dispatch (2-vCPU sandbox,
// go1.24, PEs 2; nbody.VecForcePSL strip-mined at widths 8 to 8192, a
// 67-instruction kernel; µs per strip, lower quartile of 9–15 runs,
// three sweeps). In place, compute costs ≈0.75 ns per
// lane-instruction; split, a strip pays a channel send, a goroutine
// wake-up and a WaitGroup wait per PE, ≈4 µs at width 8:
//
//	lanes × 67 instrs   split ÷ in-place, whole strip
//	    536 … 4 288     2.1 – 4.2
//	  8 576 … 68 608    1.4 – 2.0
//	137 216, 205 824    1.25 – 1.5
//	274 432 … 548 864   0.94 – 1.29
//
// The planner and the server hand out strips of at most 128 lanes
// (16×PEs capped at 128, transform.DefaultWidth; ≈8 600 on that
// scale), far inside the region where splitting loses. Bringing a
// split back needs a workload of wider strips in the benchmark first,
// measured on a host whose PEs are independent cores.
func (ip *Interp) bcForallKernel(f *bytecode.Func, fr *bcFrame, site *bytecode.ForallSite, pos lang.Pos, lo, hi int64, nodes []*Node) bool {
	kern := site.Kernel
	n := hi - lo + 1
	// Pre-checks: any condition under which the strip could hit a
	// budget or cancellation mid-flight routes to the scalar path,
	// which raises the exact error at the exact statement. (bcForall
	// has already routed a strip at the depth limit or with negative
	// lane indices there.)
	if ip.ctx != nil && ip.ctx.Err() != nil {
		return false
	}
	// Per lane k the strip prologue (helper call, skip loop, NULL
	// guard) charges 3+2k steps; the body at most NSteps more. Lanes
	// whose skip loops alone outrun the budget would overflow it.
	if hi > ip.maxSteps/n {
		return false
	}
	prologueSteps := 3*n + (lo+hi)*n
	bound := prologueSteps + int64(kern.NSteps)*n
	if ip.sh.steps.Load()+ip.stepsLocal+bound > ip.maxSteps {
		return false
	}

	ks := ip.kern
	if ks == nil {
		ks = &kernState{ip: ip}
		ip.kern = ks
	}
	ks.ensure(kern, nodes)
	ks.kern, ks.fr, ks.args = kern, fr, f.Calls[site.Strip.CallSite].Args
	ks.prologueSteps = prologueSteps

	if ip.cfg.Profiler != nil {
		if !ks.profiled(pos) {
			return false
		}
	} else {
		ks.gather()
		if ks.compute() != nil {
			return false
		}
		ks.scatter()
	}
	ip.sh.barriers.Add(1)
	return true
}

// profiled runs the strip's phases as bcForallKernel does, timing each,
// and records a completed strip on Config.Profiler: its compute as one
// task on PE 0 of Config.PEs.
func (ks *kernState) profiled(pos lang.Pos) bool {
	start := time.Now()
	ks.gather()
	computeStart := time.Now()
	if ks.compute() != nil {
		return false
	}
	scatterStart := time.Now()
	ks.scatter()
	end := time.Now()
	pes := max(ks.ip.cfg.PEs, 1)
	busy, tasks := make([]int64, pes), make([]int64, pes)
	busy[0], tasks[0] = int64(scatterStart.Sub(computeStart)), 1
	ks.ip.cfg.Profiler.RecordKernel(pos.Line, int64(end.Sub(start)),
		int64(computeStart.Sub(start)), int64(end.Sub(scatterStart)), busy, tasks)
	return true
}

// gather is the strip's first phase: the root mask from the lanes'
// elements (the strip's chain walk already found them), then a
// field-major AoS→SoA copy and the free-argument broadcasts.
func (ks *kernState) gather() {
	kern, fr, args := ks.kern, ks.fr, ks.args
	root := ks.b[kern.RootMask]
	for j, nd := range ks.nodes {
		root[j] = nd != nil
	}
	// Field-major copy over the recorded nodes: one bank dispatch per
	// field, not per field per lane.
	for _, fld := range kern.Fields {
		switch fld.Bank {
		case bytecode.BankInt:
			s := ks.i[fld.Slab]
			for j, nd := range ks.nodes {
				if nd != nil {
					s[j] = nd.vals[fld.Off].I
				}
			}
		case bytecode.BankReal:
			s := ks.f[fld.Slab]
			for j, nd := range ks.nodes {
				if nd != nil {
					s[j] = nd.vals[fld.Off].F
				}
			}
		case bytecode.BankBool:
			s := ks.b[fld.Slab]
			for j, nd := range ks.nodes {
				if nd != nil {
					s[j] = nd.vals[fld.Off].B
				}
			}
		}
	}
	// Broadcast the free arguments: variables read the caller register
	// named by the call site's argument list; literal arguments were
	// folded into kconst entries at lowering (their caller registers are
	// only written by body code the kernel path never runs, so they
	// cannot be read here).
	for _, in := range kern.Prologue {
		switch in.Op {
		case bytecode.KParamInt:
			v := fr.i[args[in.B].Idx]
			s := ks.i[in.A]
			for j := range s {
				s[j] = v
			}
		case bytecode.KParamReal:
			v := fr.f[args[in.B].Idx]
			s := ks.f[in.A]
			for j := range s {
				s[j] = v
			}
		case bytecode.KParamBool:
			v := fr.b[args[in.B].Idx]
			s := ks.b[in.A]
			for j := range s {
				s[j] = v
			}
		case bytecode.KConstInt:
			s := ks.i[in.A]
			for j := range s {
				s[j] = in.Imm
			}
		case bytecode.KConstReal:
			s := ks.f[in.A]
			for j := range s {
				s[j] = in.Fv
			}
		case bytecode.KConstBool:
			v := in.Imm != 0
			s := ks.b[in.A]
			for j := range s {
				s[j] = v
			}
		}
	}
}

// scatter is the strip's last phase, and the only one that writes
// shared state: it commits the step total and stores the fields back.
func (ks *kernState) scatter() {
	kern, lanes := ks.kern, len(ks.nodes)
	// Commit the strip's exact step total: the closed-form prologue plus
	// each body statement's active-lane popcount. Masks are
	// single-assignment (every `if` refines into fresh slabs), so
	// counting after compute is exact. bcForallKernel's conservative
	// pre-check already proved the total fits the budget.
	total := ks.prologueSteps
	counts := ks.stepCounts
	for i := range counts {
		counts[i] = 0
	}
	for _, in := range kern.Code {
		if in.Op == bytecode.KStep {
			counts[in.M]++
		}
	}
	for mi, c := range counts {
		if c == 0 {
			continue
		}
		var pop int64
		for _, active := range ks.b[mi] {
			if active {
				pop++
			}
		}
		total += c * pop
	}
	ks.ip.addSteps(total)
	root := ks.b[kern.RootMask]
	// Writes update Kind and the data word in place rather than
	// assigning a fresh Value: a typed data field invariantly holds its
	// own kind with every other union member zero, so the end state is
	// identical to IntVal/RealVal/BoolVal assignment — minus the write
	// barrier the Value's pointer members would force.
	for _, fld := range kern.Fields {
		if !fld.Stored {
			continue
		}
		switch fld.Bank {
		case bytecode.BankInt:
			s := ks.i[fld.Slab]
			for j := 0; j < lanes; j++ {
				if root[j] {
					v := &ks.nodes[j].vals[fld.Off]
					v.Kind = KindInt
					v.I = s[j]
				}
			}
		case bytecode.BankReal:
			s := ks.f[fld.Slab]
			for j := 0; j < lanes; j++ {
				if root[j] {
					v := &ks.nodes[j].vals[fld.Off]
					v.Kind = KindReal
					v.F = s[j]
				}
			}
		case bytecode.BankBool:
			s := ks.b[fld.Slab]
			for j := 0; j < lanes; j++ {
				if root[j] {
					v := &ks.nodes[j].vals[fld.Off]
					v.Kind = KindBool
					v.B = s[j]
				}
			}
		}
	}
}

// compute is the strip's second phase: it executes the kernel body over
// every lane. Every op is elementwise; ops with no execution mask (temp
// destinations, mask combiners) run whole-slab, the rest test their
// governing mask per lane. Every slab of a strip has one length, and
// each op re-slices its operands and mask to its destination's, so the
// compiler proves every lane index in range once per op, not per lane.
func (ks *kernState) compute() error {
	for _, in := range ks.kern.Code {
		switch in.Op {
		case bytecode.KStep:
			// Accounted at scatter time from the final masks.

		case bytecode.KConstInt:
			a := ks.i[in.A]
			if in.M < 0 {
				for j := range a {
					a[j] = in.Imm
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = in.Imm
				}
			}
		case bytecode.KConstReal:
			a := ks.f[in.A]
			if in.M < 0 {
				for j := range a {
					a[j] = in.Fv
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = in.Fv
				}
			}
		case bytecode.KConstBool:
			a := ks.b[in.A]
			v := in.Imm != 0
			if in.M < 0 {
				for j := range a {
					a[j] = v
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = v
				}
			}
		case bytecode.KMovInt:
			a, b := ks.i[in.A], ks.i[in.B]
			b = b[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j]
				}
			}
		case bytecode.KMovReal:
			a, b := ks.f[in.A], ks.f[in.B]
			b = b[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j]
				}
			}
		case bytecode.KMovBool:
			a, b := ks.b[in.A], ks.b[in.B]
			b = b[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j]
				}
			}
		case bytecode.KIntToReal:
			a, b := ks.f[in.A], ks.i[in.B]
			b = b[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = float64(b[j])
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = float64(b[j])
				}
			}

		case bytecode.KAddInt:
			a, b, c := ks.i[in.A], ks.i[in.B], ks.i[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] + c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] + c[j]
				}
			}
		case bytecode.KSubInt:
			a, b, c := ks.i[in.A], ks.i[in.B], ks.i[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] - c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] - c[j]
				}
			}
		case bytecode.KMulInt:
			a, b, c := ks.i[in.A], ks.i[in.B], ks.i[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] * c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] * c[j]
				}
			}
		case bytecode.KDivInt:
			a, b, c, m := ks.i[in.A], ks.i[in.B], ks.i[in.C], ks.b[in.M]
			b, c, m = b[:len(a)], c[:len(a)], m[:len(a)]
			for j := range m {
				if m[j] {
					if c[j] == 0 {
						return errKernelFault
					}
					a[j] = b[j] / c[j]
				}
			}
		case bytecode.KModInt:
			a, b, c, m := ks.i[in.A], ks.i[in.B], ks.i[in.C], ks.b[in.M]
			b, c, m = b[:len(a)], c[:len(a)], m[:len(a)]
			for j := range m {
				if m[j] {
					if c[j] == 0 {
						return errKernelFault
					}
					a[j] = b[j] % c[j]
				}
			}
		case bytecode.KNegInt:
			a, b := ks.i[in.A], ks.i[in.B]
			b = b[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = -b[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = -b[j]
				}
			}
		case bytecode.KEqInt:
			a, b, c := ks.b[in.A], ks.i[in.B], ks.i[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] == c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] == c[j]
				}
			}
		case bytecode.KNeInt:
			a, b, c := ks.b[in.A], ks.i[in.B], ks.i[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] != c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] != c[j]
				}
			}
		case bytecode.KLtInt:
			a, b, c := ks.b[in.A], ks.i[in.B], ks.i[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] < c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] < c[j]
				}
			}
		case bytecode.KLeInt:
			a, b, c := ks.b[in.A], ks.i[in.B], ks.i[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] <= c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] <= c[j]
				}
			}
		case bytecode.KGtInt:
			a, b, c := ks.b[in.A], ks.i[in.B], ks.i[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] > c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] > c[j]
				}
			}
		case bytecode.KGeInt:
			a, b, c := ks.b[in.A], ks.i[in.B], ks.i[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] >= c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] >= c[j]
				}
			}

		case bytecode.KAddReal:
			a, b, c := ks.f[in.A], ks.f[in.B], ks.f[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] + c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] + c[j]
				}
			}
		case bytecode.KSubReal:
			a, b, c := ks.f[in.A], ks.f[in.B], ks.f[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] - c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] - c[j]
				}
			}
		case bytecode.KMulReal:
			a, b, c := ks.f[in.A], ks.f[in.B], ks.f[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] * c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] * c[j]
				}
			}
		case bytecode.KDivReal:
			a, b, c := ks.f[in.A], ks.f[in.B], ks.f[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] / c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] / c[j]
				}
			}
		case bytecode.KNegReal:
			a, b := ks.f[in.A], ks.f[in.B]
			b = b[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = -b[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = -b[j]
				}
			}
		case bytecode.KEqReal:
			a, b, c := ks.b[in.A], ks.f[in.B], ks.f[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] == c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] == c[j]
				}
			}
		case bytecode.KNeReal:
			a, b, c := ks.b[in.A], ks.f[in.B], ks.f[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] != c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] != c[j]
				}
			}
		case bytecode.KLtReal:
			a, b, c := ks.b[in.A], ks.f[in.B], ks.f[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] < c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] < c[j]
				}
			}
		case bytecode.KLeReal:
			a, b, c := ks.b[in.A], ks.f[in.B], ks.f[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] <= c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] <= c[j]
				}
			}
		case bytecode.KGtReal:
			a, b, c := ks.b[in.A], ks.f[in.B], ks.f[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] > c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] > c[j]
				}
			}
		case bytecode.KGeReal:
			a, b, c := ks.b[in.A], ks.f[in.B], ks.f[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] >= c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] >= c[j]
				}
			}

		case bytecode.KNot:
			a, b := ks.b[in.A], ks.b[in.B]
			b = b[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = !b[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = !b[j]
				}
			}
		case bytecode.KEqBool:
			a, b, c := ks.b[in.A], ks.b[in.B], ks.b[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] == c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] == c[j]
				}
			}
		case bytecode.KNeBool:
			a, b, c := ks.b[in.A], ks.b[in.B], ks.b[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] != c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] != c[j]
				}
			}
		case bytecode.KAndBool:
			a, b, c := ks.b[in.A], ks.b[in.B], ks.b[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] && c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] && c[j]
				}
			}
		case bytecode.KOrBool:
			a, b, c := ks.b[in.A], ks.b[in.B], ks.b[in.C]
			b, c = b[:len(a)], c[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = b[j] || c[j]
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = b[j] || c[j]
				}
			}

		case bytecode.KSqrt:
			a, b := ks.f[in.A], ks.f[in.B]
			b = b[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = math.Sqrt(b[j])
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = math.Sqrt(b[j])
				}
			}
		case bytecode.KAbs:
			a, b := ks.f[in.A], ks.f[in.B]
			b = b[:len(a)]
			if in.M < 0 {
				for j := range a {
					a[j] = math.Abs(b[j])
				}
				continue
			}
			m := ks.b[in.M][:len(a)]
			for j := range m {
				if m[j] {
					a[j] = math.Abs(b[j])
				}
			}

		case bytecode.KMaskAnd:
			// Unmasked by construction: a false parent lane forces false
			// regardless of the cond slab's (possibly stale) content there.
			a, b, c := ks.b[in.A], ks.b[in.B], ks.b[in.C]
			b, c = b[:len(a)], c[:len(a)]
			for j := range a {
				a[j] = b[j] && c[j]
			}
		case bytecode.KMaskAndNot:
			a, b, c := ks.b[in.A], ks.b[in.B], ks.b[in.C]
			b, c = b[:len(a)], c[:len(a)]
			for j := range a {
				a[j] = b[j] && !c[j]
			}

		default:
			return errKernelFault
		}
	}
	return nil
}
