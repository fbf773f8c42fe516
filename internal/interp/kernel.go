// The run-time half of the bytecode VM's vector path (the kernel
// engine): batched SPMD execution of vectorized strips (bytecode.Kernel)
// over struct-of-arrays slabs.
//
// A strip executes in three phases. Gather takes each lane's node from
// the strip's one chain walk (bcForall's stripWalk, which the scalar
// strip path shares), fills mask 0 (lane is non-NULL), copies every
// touched field AoS→SoA into flat per-bank slabs, and broadcasts the
// helper's scalar parameters from the caller's registers into whole
// slabs. Compute runs the kernel — the helper's own bytecode, renamed
// onto slabs — one whole-slab operation per instruction, each under its
// governing mask: a branch splits its mask in two, never jumps. Scatter
// commits the strip's step accounting and writes the stored fields back
// to the heap, all root-active lanes unconditionally: a lane a branch
// masked off writes back the value it was gathered with, which is
// exactly the value the scalar engines would have left in place.
//
// Execution is transactional: the heap is untouched until Scatter, so
// any fault (a zero divisor in an active lane, or steps the run cannot
// pay) simply discards the slabs and falls back to the scalar bytecode
// path, which re-executes the strip from unmodified state and
// reproduces the exact error text, partial writes, and accounting the
// other engines produce; a chain the walk could not follow to the last
// lane never reaches the kernel. Success pays step totals bit-identical
// to the scalar engines': 3+2k prologue steps for lane k in closed form
// plus one step per active lane per body statement (the masks' lane
// counts).
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
// backing arrays, re-sliced when a strip's kernel or width changes, and
// the binding fields below that aim the phases at the strip in flight —
// so a warm loop allocates nothing. One Interp executes one strip at a
// time (the strip is the barrier), so a single state per Interp
// suffices.
type kernState struct {
	nodes []*Node
	ib    []int64
	fb    []float64
	bb    []bool
	mb    []bool
	// i, f and b hold one slab per kernel slab of the bank and a last,
	// scratch slab; m one per mask.
	i [][]int64
	f [][]float64
	b [][]bool
	m [][]bool
	// pop[m] is how many lanes mask m holds; a mask no branch computed
	// holds none.
	pop []int

	ip *Interp // the owner; scatter pays the strip's steps to its ledger

	// The strip in flight, set by bcForallKernel before any phase runs;
	// nodes are its lanes' elements, from the strip's one chain walk.
	// kern and len(nodes) are also what the slabs are sliced for.
	kern  *bytecode.Kernel
	fr    *bcFrame           // the caller's frame, read by gather
	call  *bytecode.CallSite // the helper call, whose moves gather broadcasts
	steps int64              // the strip's step total, paid by scatter
}

// ensure aims the state at a strip of kernel k whose lanes' elements
// are nodes. It re-slices the slabs only when k or the lane count
// differs from the last strip's, so a loop's full strips share one
// slicing.
func (ks *kernState) ensure(k *bytecode.Kernel, nodes []*Node) {
	if n := len(nodes); k != ks.kern || n != len(ks.nodes) {
		ks.ib, ks.i = slabs(ks.ib, ks.i, k.NInt+1, n)
		ks.fb, ks.f = slabs(ks.fb, ks.f, k.NReal+1, n)
		ks.bb, ks.b = slabs(ks.bb, ks.b, k.NBool+1, n)
		ks.mb, ks.m = slabs(ks.mb, ks.m, k.NMasks, n)
		ks.pop = resize(ks.pop, k.NMasks)
	}
	ks.kern, ks.nodes = k, nodes
}

// slabs re-slices back, grown when it is short, into count slabs of n.
func slabs[T any](back []T, dst [][]T, count, n int) ([]T, [][]T) {
	if cap(back) < count*n {
		back = make([]T, count*n)
	}
	dst = dst[:0]
	for s := 0; s < count; s++ {
		dst = append(dst, back[s*n:(s+1)*n])
	}
	return back, dst
}

// bcForallKernel tries to run one parallel loop as a vectorized strip:
// gather, compute over every lane, scatter, in place on the calling
// goroutine, as one barrier. It reports whether the strip completed on
// the vector path; false means nothing observable happened (no heap
// writes, no accounting, no barrier) and the caller must run the scalar
// path, whose window is then the barrier. bcForall has already routed to
// the scalar path a strip whose prologues the room left cannot cover,
// one at the depth limit and one with negative lane indices.
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
	ks := ip.kern
	if ks == nil {
		ks = &kernState{ip: ip}
		ip.kern = ks
	}
	ks.ensure(kern, nodes)
	ks.fr, ks.call = fr, &f.Calls[site.Strip.CallSite]
	// Per lane k the strip prologue (helper call, skip loop, NULL guard)
	// charges 3+2k steps; compute adds the body's.
	ks.steps = 3*n + (lo+hi)*n

	if ip.cfg.Profiler != nil {
		if !ks.profiled(pos) {
			return false
		}
	} else {
		ks.gather()
		if ks.compute() != nil || !ks.scatter() {
			return false
		}
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
	if !ks.scatter() {
		return false
	}
	end := time.Now()
	pes := max(ks.ip.cfg.PEs, 1)
	busy, tasks := make([]int64, pes), make([]int64, pes)
	busy[0], tasks[0] = int64(scatterStart.Sub(computeStart)), 1
	ks.ip.cfg.Profiler.RecordKernel(pos.Line, int64(end.Sub(start)),
		int64(computeStart.Sub(start)), int64(end.Sub(scatterStart)), busy, tasks)
	return true
}

// gather is the strip's first phase: mask 0 from the lanes' elements
// (the strip's chain walk already found them), then a field-major
// AoS→SoA copy and the parameter broadcasts.
func (ks *kernState) gather() {
	kern, fr := ks.kern, ks.fr
	clear(ks.pop)
	root := ks.m[0]
	for j, nd := range ks.nodes {
		root[j] = nd != nil
		if nd != nil {
			ks.pop[0]++
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
					s[j] = int64(nd.words[fld.Off])
				}
			}
		case bytecode.BankReal:
			s := ks.f[fld.Slab]
			for j, nd := range ks.nodes {
				if nd != nil {
					s[j] = math.Float64frombits(nd.words[fld.Off])
				}
			}
		case bytecode.BankBool:
			s := ks.b[fld.Slab]
			for j, nd := range ks.nodes {
				if nd != nil {
					s[j] = nd.words[fld.Off] != 0
				}
			}
		}
	}
	// Each helper parameter's slab holds, in every lane, the caller
	// register the call site binds it from (the lane index and the
	// element, which the body never reads, included).
	for _, mv := range ks.call.Moves[bytecode.BankInt] {
		fill(ks.i[mv.Dst], fr.i[mv.Src])
	}
	for _, mv := range ks.call.Moves[bytecode.BankReal] {
		fill(ks.f[mv.Dst], fr.f[mv.Src])
	}
	for _, mv := range ks.call.Moves[bytecode.BankBool] {
		fill(ks.b[mv.Dst], fr.b[mv.Src])
	}
}

func fill[T any](s []T, v T) {
	for j := range s {
		s[j] = v
	}
}

// scatter is the strip's last phase, and the only one that writes
// shared state: it pays the strip's steps and stores the fields back. It
// reports false, having written nothing, when the steps cannot be paid:
// the scalar path then fails on the statement the budget runs out at.
func (ks *kernState) scatter() bool {
	kern, lanes := ks.kern, len(ks.nodes)
	if !ks.ip.pay(ks.steps) {
		return false
	}
	root := ks.m[0]
	for _, fld := range kern.Fields {
		if !fld.Stored {
			continue
		}
		switch fld.Bank {
		case bytecode.BankInt:
			s := ks.i[fld.Slab]
			for j := 0; j < lanes; j++ {
				if root[j] {
					ks.nodes[j].words[fld.Off] = uint64(s[j])
				}
			}
		case bytecode.BankReal:
			s := ks.f[fld.Slab]
			for j := 0; j < lanes; j++ {
				if root[j] {
					ks.nodes[j].words[fld.Off] = math.Float64bits(s[j])
				}
			}
		case bytecode.BankBool:
			s := ks.b[fld.Slab]
			for j := 0; j < lanes; j++ {
				if root[j] {
					ks.nodes[j].words[fld.Off] = boolWord(s[j])
				}
			}
		}
	}
	return true
}

// out is the slab an instruction under mask m writes: dst itself when
// the mask holds every lane (m nil), else the bank's scratch slab, which
// merge then copies into dst on the mask's lanes.
func out[T any](dst, scratch []T, m []bool) []T {
	if m == nil {
		return dst
	}
	return scratch[:len(dst)]
}

func merge[T any](dst, scratch []T, m []bool) {
	scratch, m = scratch[:len(dst)], m[:len(dst)]
	for j := range m {
		if m[j] {
			dst[j] = scratch[j]
		}
	}
}

// compute is the strip's second phase: it executes the kernel over every
// lane, one whole-slab loop per instruction. An instruction whose mask
// holds no lane is skipped, one whose mask holds every lane runs
// straight into its destination, and any other runs into the scratch
// slab and is merged on its mask's lanes — except an integer division,
// which must fault only on an active lane's zero divisor and so tests
// the mask itself. A branch computes, for every lane, whether it is
// taken, and splits its mask into the lanes that fall through and the
// lanes that take it. Every slab of a strip has one length, and each op
// re-slices its operands to its destination's, so the compiler proves
// every lane index in range once per op, not per lane.
func (ks *kernState) compute() error {
	kern, n := ks.kern, len(ks.nodes)
	si, sf, sb := ks.i[kern.NInt], ks.f[kern.NReal], ks.b[kern.NBool]
	for pc := range kern.Code {
		in := &kern.Code[pc]
		mi := kern.Masks[pc]
		active := ks.pop[mi]
		if active == 0 {
			continue
		}
		var m []bool // nil: every lane is active
		if active < n {
			m = ks.m[mi]
		}
		var dst bytecode.Bank // the bank whose scratch holds the result
		switch in.Op {
		case bytecode.OpStep:
			ks.steps += int64(active)
		case bytecode.OpJump:
			// The masks already say which lanes run what follows.

		case bytecode.OpConstInt:
			fill(out(ks.i[in.A], si, m), in.Imm)
			dst = bytecode.BankInt
		case bytecode.OpConstReal:
			fill(out(ks.f[in.A], sf, m), in.Fv)
			dst = bytecode.BankReal
		case bytecode.OpConstBool:
			fill(out(ks.b[in.A], sb, m), in.Imm != 0)
			dst = bytecode.BankBool
		case bytecode.OpMovInt:
			copy(out(ks.i[in.A], si, m), ks.i[in.B])
			dst = bytecode.BankInt
		case bytecode.OpMovReal:
			copy(out(ks.f[in.A], sf, m), ks.f[in.B])
			dst = bytecode.BankReal
		case bytecode.OpMovBool:
			copy(out(ks.b[in.A], sb, m), ks.b[in.B])
			dst = bytecode.BankBool
		case bytecode.OpIntToReal:
			a := out(ks.f[in.A], sf, m)
			b := ks.i[in.B][:len(a)]
			for j := range a {
				a[j] = float64(b[j])
			}
			dst = bytecode.BankReal

		case bytecode.OpAddInt:
			a := out(ks.i[in.A], si, m)
			b, c := ks.i[in.B][:len(a)], ks.i[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] + c[j]
			}
			dst = bytecode.BankInt
		case bytecode.OpSubInt:
			a := out(ks.i[in.A], si, m)
			b, c := ks.i[in.B][:len(a)], ks.i[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] - c[j]
			}
			dst = bytecode.BankInt
		case bytecode.OpMulInt:
			a := out(ks.i[in.A], si, m)
			b, c := ks.i[in.B][:len(a)], ks.i[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] * c[j]
			}
			dst = bytecode.BankInt
		case bytecode.OpDivInt, bytecode.OpModInt:
			a, b, c := ks.i[in.A], ks.i[in.B], ks.i[in.C]
			b, c = b[:len(a)], c[:len(a)]
			for j := range a {
				if m != nil && !m[j] {
					continue
				}
				if c[j] == 0 {
					return errKernelFault
				}
				if in.Op == bytecode.OpDivInt {
					a[j] = b[j] / c[j]
				} else {
					a[j] = b[j] % c[j]
				}
			}
		case bytecode.OpNegInt:
			a := out(ks.i[in.A], si, m)
			b := ks.i[in.B][:len(a)]
			for j := range a {
				a[j] = -b[j]
			}
			dst = bytecode.BankInt
		case bytecode.OpEqInt:
			a := out(ks.b[in.A], sb, m)
			b, c := ks.i[in.B][:len(a)], ks.i[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] == c[j]
			}
			dst = bytecode.BankBool
		case bytecode.OpNeInt:
			a := out(ks.b[in.A], sb, m)
			b, c := ks.i[in.B][:len(a)], ks.i[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] != c[j]
			}
			dst = bytecode.BankBool
		case bytecode.OpLtInt:
			a := out(ks.b[in.A], sb, m)
			b, c := ks.i[in.B][:len(a)], ks.i[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] < c[j]
			}
			dst = bytecode.BankBool
		case bytecode.OpLeInt:
			a := out(ks.b[in.A], sb, m)
			b, c := ks.i[in.B][:len(a)], ks.i[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] <= c[j]
			}
			dst = bytecode.BankBool
		case bytecode.OpGtInt:
			a := out(ks.b[in.A], sb, m)
			b, c := ks.i[in.B][:len(a)], ks.i[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] > c[j]
			}
			dst = bytecode.BankBool
		case bytecode.OpGeInt:
			a := out(ks.b[in.A], sb, m)
			b, c := ks.i[in.B][:len(a)], ks.i[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] >= c[j]
			}
			dst = bytecode.BankBool

		case bytecode.OpAddReal:
			a := out(ks.f[in.A], sf, m)
			b, c := ks.f[in.B][:len(a)], ks.f[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] + c[j]
			}
			dst = bytecode.BankReal
		case bytecode.OpSubReal:
			a := out(ks.f[in.A], sf, m)
			b, c := ks.f[in.B][:len(a)], ks.f[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] - c[j]
			}
			dst = bytecode.BankReal
		case bytecode.OpMulReal:
			a := out(ks.f[in.A], sf, m)
			b, c := ks.f[in.B][:len(a)], ks.f[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] * c[j]
			}
			dst = bytecode.BankReal
		case bytecode.OpDivReal:
			a := out(ks.f[in.A], sf, m)
			b, c := ks.f[in.B][:len(a)], ks.f[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] / c[j]
			}
			dst = bytecode.BankReal
		case bytecode.OpNegReal:
			a := out(ks.f[in.A], sf, m)
			b := ks.f[in.B][:len(a)]
			for j := range a {
				a[j] = -b[j]
			}
			dst = bytecode.BankReal
		case bytecode.OpEqReal:
			a := out(ks.b[in.A], sb, m)
			b, c := ks.f[in.B][:len(a)], ks.f[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] == c[j]
			}
			dst = bytecode.BankBool
		case bytecode.OpNeReal:
			a := out(ks.b[in.A], sb, m)
			b, c := ks.f[in.B][:len(a)], ks.f[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] != c[j]
			}
			dst = bytecode.BankBool
		case bytecode.OpLtReal:
			a := out(ks.b[in.A], sb, m)
			b, c := ks.f[in.B][:len(a)], ks.f[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] < c[j]
			}
			dst = bytecode.BankBool
		case bytecode.OpLeReal:
			a := out(ks.b[in.A], sb, m)
			b, c := ks.f[in.B][:len(a)], ks.f[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] <= c[j]
			}
			dst = bytecode.BankBool
		case bytecode.OpGtReal:
			a := out(ks.b[in.A], sb, m)
			b, c := ks.f[in.B][:len(a)], ks.f[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] > c[j]
			}
			dst = bytecode.BankBool
		case bytecode.OpGeReal:
			a := out(ks.b[in.A], sb, m)
			b, c := ks.f[in.B][:len(a)], ks.f[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] >= c[j]
			}
			dst = bytecode.BankBool

		case bytecode.OpNot:
			a := out(ks.b[in.A], sb, m)
			b := ks.b[in.B][:len(a)]
			for j := range a {
				a[j] = !b[j]
			}
			dst = bytecode.BankBool
		case bytecode.OpEqBool:
			a := out(ks.b[in.A], sb, m)
			b, c := ks.b[in.B][:len(a)], ks.b[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] == c[j]
			}
			dst = bytecode.BankBool
		case bytecode.OpNeBool:
			a := out(ks.b[in.A], sb, m)
			b, c := ks.b[in.B][:len(a)], ks.b[in.C][:len(a)]
			for j := range a {
				a[j] = b[j] != c[j]
			}
			dst = bytecode.BankBool
		case bytecode.OpSqrt:
			a := out(ks.f[in.A], sf, m)
			b := ks.f[in.B][:len(a)]
			for j := range a {
				a[j] = math.Sqrt(b[j])
			}
			dst = bytecode.BankReal
		case bytecode.OpAbs:
			a := out(ks.f[in.A], sf, m)
			b := ks.f[in.B][:len(a)]
			for j := range a {
				a[j] = math.Abs(b[j])
			}
			dst = bytecode.BankReal

		// Branches: taken[j] says whether lane j would jump.
		case bytecode.OpBr, bytecode.OpScAnd:
			t := ks.m[in.C+1]
			b := ks.b[in.A][:len(t)]
			for j := range t {
				t[j] = !b[j]
			}
			ks.split(m, in.C, active)
		case bytecode.OpScOr:
			copy(ks.m[in.C+1], ks.b[in.A])
			ks.split(m, in.C, active)
		case bytecode.OpBrfEqInt:
			t := ks.m[in.C+1]
			x, y := ks.i[in.A][:len(t)], ks.i[in.B][:len(t)]
			for j := range t {
				t[j] = x[j] != y[j]
			}
			ks.split(m, in.C, active)
		case bytecode.OpBrfNeInt:
			t := ks.m[in.C+1]
			x, y := ks.i[in.A][:len(t)], ks.i[in.B][:len(t)]
			for j := range t {
				t[j] = x[j] == y[j]
			}
			ks.split(m, in.C, active)
		case bytecode.OpBrfLtInt:
			t := ks.m[in.C+1]
			x, y := ks.i[in.A][:len(t)], ks.i[in.B][:len(t)]
			for j := range t {
				t[j] = x[j] >= y[j]
			}
			ks.split(m, in.C, active)
		case bytecode.OpBrfLeInt:
			t := ks.m[in.C+1]
			x, y := ks.i[in.A][:len(t)], ks.i[in.B][:len(t)]
			for j := range t {
				t[j] = x[j] > y[j]
			}
			ks.split(m, in.C, active)
		case bytecode.OpBrfGtInt:
			t := ks.m[in.C+1]
			x, y := ks.i[in.A][:len(t)], ks.i[in.B][:len(t)]
			for j := range t {
				t[j] = x[j] <= y[j]
			}
			ks.split(m, in.C, active)
		case bytecode.OpBrfGeInt:
			t := ks.m[in.C+1]
			x, y := ks.i[in.A][:len(t)], ks.i[in.B][:len(t)]
			for j := range t {
				t[j] = x[j] < y[j]
			}
			ks.split(m, in.C, active)
		// A real branch negates the comparison: every ordered comparison
		// with a NaN is false, so a NaN takes the branch.
		case bytecode.OpBrfEqReal:
			t := ks.m[in.C+1]
			x, y := ks.f[in.A][:len(t)], ks.f[in.B][:len(t)]
			for j := range t {
				t[j] = !(x[j] == y[j])
			}
			ks.split(m, in.C, active)
		case bytecode.OpBrfNeReal:
			t := ks.m[in.C+1]
			x, y := ks.f[in.A][:len(t)], ks.f[in.B][:len(t)]
			for j := range t {
				t[j] = !(x[j] != y[j])
			}
			ks.split(m, in.C, active)
		case bytecode.OpBrfLtReal:
			t := ks.m[in.C+1]
			x, y := ks.f[in.A][:len(t)], ks.f[in.B][:len(t)]
			for j := range t {
				t[j] = !(x[j] < y[j])
			}
			ks.split(m, in.C, active)
		case bytecode.OpBrfLeReal:
			t := ks.m[in.C+1]
			x, y := ks.f[in.A][:len(t)], ks.f[in.B][:len(t)]
			for j := range t {
				t[j] = !(x[j] <= y[j])
			}
			ks.split(m, in.C, active)
		case bytecode.OpBrfGtReal:
			t := ks.m[in.C+1]
			x, y := ks.f[in.A][:len(t)], ks.f[in.B][:len(t)]
			for j := range t {
				t[j] = !(x[j] > y[j])
			}
			ks.split(m, in.C, active)
		case bytecode.OpBrfGeReal:
			t := ks.m[in.C+1]
			x, y := ks.f[in.A][:len(t)], ks.f[in.B][:len(t)]
			for j := range t {
				t[j] = !(x[j] >= y[j])
			}
			ks.split(m, in.C, active)

		default:
			return errKernelFault
		}
		if m != nil {
			switch dst {
			case bytecode.BankInt:
				merge(ks.i[in.A], si, m)
			case bytecode.BankReal:
				merge(ks.f[in.A], sf, m)
			case bytecode.BankBool:
				merge(ks.b[in.A], sb, m)
			}
		}
	}
	return nil
}

// split divides the lanes of a branch's mask m (nil: every lane), active
// of them, into mask c, the lanes that fall through, and c+1, the lanes
// that take the branch; c+1 arrives holding, for every lane, whether
// the branch is taken there.
func (ks *kernState) split(m []bool, c int32, active int) {
	ft, tk := ks.m[c], ks.m[c+1]
	tk = tk[:len(ft)]
	taken := 0
	if m == nil {
		for j := range ft {
			ft[j] = !tk[j]
			if tk[j] {
				taken++
			}
		}
	} else {
		m = m[:len(ft)]
		for j := range ft {
			t := m[j] && tk[j]
			ft[j] = m[j] && !tk[j]
			tk[j] = t
			if t {
				taken++
			}
		}
	}
	ks.pop[c], ks.pop[c+1] = active-taken, taken
}
