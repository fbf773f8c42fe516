// The kernel engine's run-time half: batched SPMD execution of
// vectorized strips (bytecode.Kernel) over struct-of-arrays slabs —
// the third engine, beside the tree-walking oracle and the bytecode VM
// it extends.
//
// A strip executes in three phases. Gather walks the iterated pointer
// chain once, records each lane's node, fills the root execution mask
// (lane is non-NULL), and copies every touched field AoS→SoA into flat
// per-bank slabs; scalar free variables broadcast into whole slabs.
// Compute runs the lowered body as fused whole-slab operations, each
// masked by its governing execution mask — `if` branches become mask
// refinements, never control flow — over any lane sub-range. Scatter commits the strip's step
// accounting and writes the stored fields back to the heap, all
// root-active lanes unconditionally: a lane an `if` masked off writes
// back the value it was gathered with, which is exactly the value the
// scalar engines would have left in place.
//
// Execution is transactional: the heap is untouched until Scatter, so
// any fault (a zero divisor in an active lane — possibly a spurious
// one, since kernels evaluate && and || eagerly — a broken advance
// chain, step-budget or depth or cancellation pressure) simply
// discards the slabs and falls back to the scalar bytecode path, which
// re-executes the strip from unmodified state and reproduces the exact
// error text, partial writes, and accounting the other engines
// produce. Success commits step totals bit-identical to the scalar
// engines': 3+2k prologue steps for lane k in closed form plus one
// step per active lane per body statement (mask popcounts).
package interp

import (
	"errors"
	"math"

	"repro/internal/bytecode"
	"repro/internal/lang"
)

// errKernelFault aborts a strip; it is never surfaced (the scalar
// fallback re-raises the real error with the scalar engines' text).
var errKernelFault = errors.New("interp: kernel strip fault")

// kernState is an Interp's reusable strip state: contiguous per-bank
// backing arrays, re-sliced per strip, and the strip's phase closures,
// bound once to this state and re-aimed per strip through the binding
// fields below — so a warm loop allocates nothing. One Interp executes
// one strip at a time (the strip is the barrier), so a single state per
// Interp suffices.
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

	// The strip in flight, set by bcForallKernel before any phase runs.
	kern          *bytecode.Kernel
	fr            *bcFrame       // the caller's frame, read by gather
	args          []bytecode.Reg // the helper call's argument registers
	lo            int64          // first iteration index
	prologueSteps int64

	// phases holds gather/compute/scatter as method values of this
	// state, built once (newKernState): handing them to a StripScheduler
	// costs no allocation per strip.
	phases KernelStrip
}

func newKernState(ip *Interp) *kernState {
	ks := &kernState{ip: ip}
	ks.phases = KernelStrip{Gather: ks.gather, Compute: ks.compute, Scatter: ks.scatter}
	return ks
}

// ensure sizes the slabs for a strip of n lanes.
func (ks *kernState) ensure(k *bytecode.Kernel, n int) {
	if cap(ks.nodes) < n {
		ks.nodes = make([]*Node, n)
	}
	ks.nodes = ks.nodes[:n]
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

// kAdvance follows one link of the gather chain. NULL propagates
// (speculative traversability, §3.2 — the scalar engines' OpLoadNode
// does the same); an empty pointer array faults the strip so the
// scalar path can raise its index error.
func kAdvance(cur *Node, off int32) (*Node, error) {
	if cur == nil {
		return nil, nil
	}
	arr := cur.parr[off]
	if len(arr) == 0 {
		return nil, errKernelFault
	}
	return arr[0], nil
}

// bcForallKernel tries to run one parallel loop as a vectorized strip.
// It reports whether the strip completed on the vector path; false
// means nothing observable happened (no heap writes, no accounting)
// and the caller must run the scalar path.
func (ip *Interp) bcForallKernel(f *bytecode.Func, fr *bcFrame, site *bytecode.ForallSite, pos lang.Pos, lo, hi int64) bool {
	kern := site.Kernel
	n := hi - lo + 1
	lanes := int(n)
	if int64(lanes) != n {
		return false
	}
	// Pre-checks: any condition under which the strip could hit a
	// budget or cancellation mid-flight routes to the scalar path,
	// which raises the exact error at the exact statement.
	if ip.cdepth > ip.maxDepth {
		return false
	}
	if ip.ctx != nil && ip.ctx.Err() != nil {
		return false
	}
	// Per lane k the strip prologue (helper call, skip loop, NULL
	// guard) charges 3+2k steps; the body at most NSteps more. The
	// closed form holds for lane indices from 0 up, and lanes whose
	// skip loops alone outrun the budget would overflow it.
	if lo < 0 || hi > ip.maxSteps/n {
		return false
	}
	prologueSteps := 3*n + (lo+hi)*n
	bound := prologueSteps + int64(kern.NSteps)*n
	if ip.sh.steps.Load()+ip.stepsLocal+bound > ip.maxSteps {
		return false
	}

	ks := ip.kern
	if ks == nil {
		ks = newKernState(ip)
		ip.kern = ks
	}
	ks.ensure(kern, lanes)
	ks.kern, ks.fr, ks.args = kern, fr, f.Calls[kern.CallSite].Args
	ks.lo, ks.prologueSteps = lo, prologueSteps

	if ip.cfg.Strip != nil {
		return ip.cfg.Strip(pos, lanes, ks.phases) == nil
	}
	if ks.gather() != nil || ks.compute(0, lanes) != nil {
		return false
	}
	ks.scatter()
	return true
}

// gather is the strip's first phase: one chain walk recording each
// lane's node and the root mask, then a field-major AoS→SoA copy and
// the free-argument broadcasts.
func (ks *kernState) gather() error {
	kern, fr, args, lanes := ks.kern, ks.fr, ks.args, len(ks.nodes)
	// One chain walk: lane j's node is advance^(lo+j) of the caller's
	// element argument.
	cur := fr.n[args[1].Idx]
	var err error
	for s := int64(0); s < ks.lo; s++ {
		if cur, err = kAdvance(cur, kern.AdvanceOff); err != nil {
			return err
		}
	}
	root := ks.b[kern.RootMask]
	for j := 0; j < lanes; j++ {
		ks.nodes[j] = cur
		root[j] = cur != nil
		if j+1 < lanes {
			if cur, err = kAdvance(cur, kern.AdvanceOff); err != nil {
				return err
			}
		}
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
	return nil
}

// scatter is the strip's last phase, and the only one that writes
// shared state: it commits the step total and stores the fields back.
func (ks *kernState) scatter() error {
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
	return nil
}

// compute is the strip's second phase: it executes the kernel body over
// the lane range [lo, hi). Every
// op is elementwise over its own range, so disjoint ranges run
// concurrently without synchronization. Ops with no execution mask
// (temp destinations, mask combiners) run whole-slab; the rest test
// their governing mask per lane.
func (ks *kernState) compute(lo, hi int) error {
	for _, in := range ks.kern.Code {
		switch in.Op {
		case bytecode.KStep:
			// Accounted at scatter time from the final masks.

		case bytecode.KConstInt:
			a := ks.i[in.A]
			if in.M < 0 {
				av := a[lo:hi]
				for j := range av {
					av[j] = in.Imm
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = in.Imm
				}
			}
		case bytecode.KConstReal:
			a := ks.f[in.A]
			if in.M < 0 {
				av := a[lo:hi]
				for j := range av {
					av[j] = in.Fv
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = in.Fv
				}
			}
		case bytecode.KConstBool:
			a := ks.b[in.A]
			v := in.Imm != 0
			if in.M < 0 {
				av := a[lo:hi]
				for j := range av {
					av[j] = v
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = v
				}
			}
		case bytecode.KMovInt:
			a, b := ks.i[in.A], ks.i[in.B]
			if in.M < 0 {
				av, bv := a[lo:hi], b[lo:hi]
				for j := range av {
					av[j] = bv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j]
				}
			}
		case bytecode.KMovReal:
			a, b := ks.f[in.A], ks.f[in.B]
			if in.M < 0 {
				av, bv := a[lo:hi], b[lo:hi]
				for j := range av {
					av[j] = bv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j]
				}
			}
		case bytecode.KMovBool:
			a, b := ks.b[in.A], ks.b[in.B]
			if in.M < 0 {
				av, bv := a[lo:hi], b[lo:hi]
				for j := range av {
					av[j] = bv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j]
				}
			}
		case bytecode.KIntToReal:
			a, b := ks.f[in.A], ks.i[in.B]
			if in.M < 0 {
				av, bv := a[lo:hi], b[lo:hi]
				for j := range av {
					av[j] = float64(bv[j])
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = float64(b[j])
				}
			}

		case bytecode.KAddInt:
			a, b, c := ks.i[in.A], ks.i[in.B], ks.i[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] + cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] + c[j]
				}
			}
		case bytecode.KSubInt:
			a, b, c := ks.i[in.A], ks.i[in.B], ks.i[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] - cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] - c[j]
				}
			}
		case bytecode.KMulInt:
			a, b, c := ks.i[in.A], ks.i[in.B], ks.i[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] * cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] * c[j]
				}
			}
		case bytecode.KDivInt:
			a, b, c, m := ks.i[in.A], ks.i[in.B], ks.i[in.C], ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					if c[j] == 0 {
						return errKernelFault
					}
					a[j] = b[j] / c[j]
				}
			}
		case bytecode.KModInt:
			a, b, c, m := ks.i[in.A], ks.i[in.B], ks.i[in.C], ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					if c[j] == 0 {
						return errKernelFault
					}
					a[j] = b[j] % c[j]
				}
			}
		case bytecode.KNegInt:
			a, b := ks.i[in.A], ks.i[in.B]
			if in.M < 0 {
				av, bv := a[lo:hi], b[lo:hi]
				for j := range av {
					av[j] = -bv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = -b[j]
				}
			}
		case bytecode.KEqInt:
			a, b, c := ks.b[in.A], ks.i[in.B], ks.i[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] == cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] == c[j]
				}
			}
		case bytecode.KNeInt:
			a, b, c := ks.b[in.A], ks.i[in.B], ks.i[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] != cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] != c[j]
				}
			}
		case bytecode.KLtInt:
			a, b, c := ks.b[in.A], ks.i[in.B], ks.i[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] < cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] < c[j]
				}
			}
		case bytecode.KLeInt:
			a, b, c := ks.b[in.A], ks.i[in.B], ks.i[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] <= cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] <= c[j]
				}
			}
		case bytecode.KGtInt:
			a, b, c := ks.b[in.A], ks.i[in.B], ks.i[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] > cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] > c[j]
				}
			}
		case bytecode.KGeInt:
			a, b, c := ks.b[in.A], ks.i[in.B], ks.i[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] >= cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] >= c[j]
				}
			}

		case bytecode.KAddReal:
			a, b, c := ks.f[in.A], ks.f[in.B], ks.f[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] + cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] + c[j]
				}
			}
		case bytecode.KSubReal:
			a, b, c := ks.f[in.A], ks.f[in.B], ks.f[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] - cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] - c[j]
				}
			}
		case bytecode.KMulReal:
			a, b, c := ks.f[in.A], ks.f[in.B], ks.f[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] * cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] * c[j]
				}
			}
		case bytecode.KDivReal:
			a, b, c := ks.f[in.A], ks.f[in.B], ks.f[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] / cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] / c[j]
				}
			}
		case bytecode.KNegReal:
			a, b := ks.f[in.A], ks.f[in.B]
			if in.M < 0 {
				av, bv := a[lo:hi], b[lo:hi]
				for j := range av {
					av[j] = -bv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = -b[j]
				}
			}
		case bytecode.KEqReal:
			a, b, c := ks.b[in.A], ks.f[in.B], ks.f[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] == cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] == c[j]
				}
			}
		case bytecode.KNeReal:
			a, b, c := ks.b[in.A], ks.f[in.B], ks.f[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] != cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] != c[j]
				}
			}
		case bytecode.KLtReal:
			a, b, c := ks.b[in.A], ks.f[in.B], ks.f[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] < cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] < c[j]
				}
			}
		case bytecode.KLeReal:
			a, b, c := ks.b[in.A], ks.f[in.B], ks.f[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] <= cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] <= c[j]
				}
			}
		case bytecode.KGtReal:
			a, b, c := ks.b[in.A], ks.f[in.B], ks.f[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] > cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] > c[j]
				}
			}
		case bytecode.KGeReal:
			a, b, c := ks.b[in.A], ks.f[in.B], ks.f[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] >= cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] >= c[j]
				}
			}

		case bytecode.KNot:
			a, b := ks.b[in.A], ks.b[in.B]
			if in.M < 0 {
				av, bv := a[lo:hi], b[lo:hi]
				for j := range av {
					av[j] = !bv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = !b[j]
				}
			}
		case bytecode.KEqBool:
			a, b, c := ks.b[in.A], ks.b[in.B], ks.b[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] == cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] == c[j]
				}
			}
		case bytecode.KNeBool:
			a, b, c := ks.b[in.A], ks.b[in.B], ks.b[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] != cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] != c[j]
				}
			}
		case bytecode.KAndBool:
			a, b, c := ks.b[in.A], ks.b[in.B], ks.b[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] && cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] && c[j]
				}
			}
		case bytecode.KOrBool:
			a, b, c := ks.b[in.A], ks.b[in.B], ks.b[in.C]
			if in.M < 0 {
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				for j := range av {
					av[j] = bv[j] || cv[j]
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = b[j] || c[j]
				}
			}

		case bytecode.KSqrt:
			a, b := ks.f[in.A], ks.f[in.B]
			if in.M < 0 {
				av, bv := a[lo:hi], b[lo:hi]
				for j := range av {
					av[j] = math.Sqrt(bv[j])
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = math.Sqrt(b[j])
				}
			}
		case bytecode.KAbs:
			a, b := ks.f[in.A], ks.f[in.B]
			if in.M < 0 {
				av, bv := a[lo:hi], b[lo:hi]
				for j := range av {
					av[j] = math.Abs(bv[j])
				}
				continue
			}
			m := ks.b[in.M]
			for j := lo; j < hi; j++ {
				if m[j] {
					a[j] = math.Abs(b[j])
				}
			}

		case bytecode.KMaskAnd:
			// Unmasked by construction: a false parent lane forces false
			// regardless of the cond slab's (possibly stale) content there.
			a, b, c := ks.b[in.A], ks.b[in.B], ks.b[in.C]
			av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
			for j := range av {
				av[j] = bv[j] && cv[j]
			}
		case bytecode.KMaskAndNot:
			a, b, c := ks.b[in.A], ks.b[in.B], ks.b[in.C]
			av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
			for j := range av {
				av[j] = bv[j] && !cv[j]
			}

		default:
			return errKernelFault
		}
	}
	return nil
}
