// The bytecode engine: a switch-loop VM over internal/bytecode's flat
// instruction arrays and typed register banks — the production engine,
// checked against the tree-walking oracle (interp.go).
//
// Both engines read the checker's resolution (slots, field offsets,
// callees) and compute at its static types; where the walker still
// pays a recursive call and an interface type switch per AST node, a
// slot check per variable and a boxed Value per store, this VM runs a
// for-loop over []Instr with direct slice indexing into per-frame
// []int64 / []float64 / []bool / []*Node banks: hot
// arithmetic (R1 polyscale, R2 force) touches no interface, builds no
// Value, and allocates nothing once the frame pool is warm.
//
// Semantics are pinned to the walker — same results, printed output,
// error text, and sandbox budgets, and the same step ledger (step,
// publish), so a step limit fails on the walker's statement. The
// equivalence grid, FuzzBytecodeVsWalk, TestWalkStepLimitExact and the
// sandbox-parity suite enforce this. The VM holds no cost
// model: Simulated mode runs on the walker (newInterp).
package interp

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/bytecode"
	"repro/internal/lang"
)

// bcFrame is one call's register file. The ret* fields carry the
// return value out of runBC (one per bank, so no boxing on return).
type bcFrame struct {
	i []int64
	f []float64
	b []bool
	n []*Node

	retI int64
	retF float64
	retB bool
	retN *Node

	fn *bytecode.Func // the function the banks are sized for
}

// getBCFrame returns a frame sized for f, reusing pooled bank storage
// when capacities allow; the pool is a stack, so a call mostly gets the
// frame its sibling call just returned, already sized. Banks are not
// zeroed: every register is written before it is read (slot homes by
// declare-before-use, temps and hidden loop counters by construction).
func (ip *Interp) getBCFrame(f *bytecode.Func) *bcFrame {
	var fr *bcFrame
	if l := len(ip.bcPool); l > 0 {
		fr = ip.bcPool[l-1]
		ip.bcPool = ip.bcPool[:l-1]
		if fr.fn == f {
			return fr
		}
	} else {
		fr = new(bcFrame)
	}
	fr.fn = f
	fr.i = resize(fr.i, f.NInt)
	fr.f = resize(fr.f, f.NReal)
	fr.b = resize(fr.b, f.NBool)
	fr.n = resize(fr.n, f.NNode)
	return fr
}

// resize returns s with length n, reusing its storage when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

func (ip *Interp) putBCFrame(fr *bcFrame) {
	if len(ip.bcPool) < 64 {
		ip.bcPool = append(ip.bcPool, fr)
	}
}

// copyBanksFrom makes fr an independent copy of src's banks (a
// parallel iteration's private frame).
func (fr *bcFrame) copyBanksFrom(src *bcFrame) {
	copy(fr.i, src.i)
	copy(fr.f, src.f)
	copy(fr.b, src.b)
	copy(fr.n, src.n)
}

// callBytecode is the external entry (Interp.Call): bind arguments
// into a fresh frame by bank and run it as OpCall runs a callee.
func (ip *Interp) callBytecode(f *bytecode.Func, args []Value) (Value, error) {
	fr := ip.getBCFrame(f)
	defer ip.putBCFrame(fr)
	for i, p := range f.Params {
		v := coerce(args[i], p.Type)
		switch p.Reg.Bank {
		case bytecode.BankInt:
			fr.i[p.Reg.Idx] = v.I
		case bytecode.BankReal:
			fr.f[p.Reg.Idx] = v.F
		case bytecode.BankBool:
			fr.b[p.Reg.Idx] = v.B
		case bytecode.BankNode:
			fr.n[p.Reg.Idx] = v.N
		}
	}
	if ip.cdepth > ip.maxDepth {
		return Value{}, errDepth(f)
	}
	ip.cdepth++
	c, err := ip.runBC(f, fr, 0, int32(len(f.Code)))
	ip.cdepth--
	if err == nil && c != ctrlReturn && f.Result != nil {
		err = errFellOff(f)
	}
	if err != nil || f.Result == nil {
		return Value{}, err
	}
	switch bytecode.BankOf(f.Result) {
	case bytecode.BankInt:
		return IntVal(fr.retI), nil
	case bytecode.BankReal:
		return RealVal(fr.retF), nil
	case bytecode.BankBool:
		return BoolVal(fr.retB), nil
	case bytecode.BankNode:
		return PtrVal(fr.retN), nil
	}
	return Value{}, nil
}

func errDepth(f *bytecode.Func) error {
	return fmt.Errorf("interp: recursion depth exceeded in %s", f.Name)
}

func errFellOff(f *bytecode.Func) error {
	return fmt.Errorf("interp: function %s fell off the end without returning", f.Name)
}

// runBC executes code in [pc, end) on a frame. Jump targets are
// absolute instruction indices; error positions come from the
// function's parallel Pos table. The loop takes one trip through the
// switch per operation: steps are counted ahead of it (DESIGN.md, R6).
func (ip *Interp) runBC(f *bytecode.Func, fr *bcFrame, pc, end int32) (ctrl, error) {
	code := f.Code
	for pc < end {
		in := &code[pc]
		ipc := pc
		pc++
		if in.Op == bytecode.OpStep {
			// step, with the position looked up only when it publishes.
			if ip.stepsLocal++; ip.stepsLocal >= ip.stepMark {
				if err := ip.publish(f.Pos[ipc]); err != nil {
					return ctrlNext, err
				}
			}
			continue
		}
		switch in.Op {
		case bytecode.OpConstInt:
			fr.i[in.A] = in.Imm
		case bytecode.OpConstReal:
			fr.f[in.A] = in.Fv
		case bytecode.OpConstBool:
			fr.b[in.A] = in.Imm != 0
		case bytecode.OpConstNull:
			fr.n[in.A] = nil
		case bytecode.OpMovInt:
			fr.i[in.A] = fr.i[in.B]
		case bytecode.OpMovReal:
			fr.f[in.A] = fr.f[in.B]
		case bytecode.OpMovBool:
			fr.b[in.A] = fr.b[in.B]
		case bytecode.OpMovNode:
			fr.n[in.A] = fr.n[in.B]
		case bytecode.OpIntToReal:
			fr.f[in.A] = float64(fr.i[in.B])

		case bytecode.OpJump:
			pc = int32(in.Imm)
		case bytecode.OpBr, bytecode.OpScAnd:
			if !fr.b[in.A] {
				pc = int32(in.Imm)
			}
		case bytecode.OpBrfEqInt:
			if fr.i[in.A] != fr.i[in.B] {
				pc = int32(in.Imm)
			}
		case bytecode.OpBrfNeInt:
			if fr.i[in.A] == fr.i[in.B] {
				pc = int32(in.Imm)
			}
		case bytecode.OpBrfLtInt:
			if fr.i[in.A] >= fr.i[in.B] {
				pc = int32(in.Imm)
			}
		case bytecode.OpBrfLeInt:
			if fr.i[in.A] > fr.i[in.B] {
				pc = int32(in.Imm)
			}
		case bytecode.OpBrfGtInt:
			if fr.i[in.A] <= fr.i[in.B] {
				pc = int32(in.Imm)
			}
		case bytecode.OpBrfGeInt:
			if fr.i[in.A] < fr.i[in.B] {
				pc = int32(in.Imm)
			}
		// A real branch negates the comparison: every ordered comparison
		// with a NaN is false, so a NaN takes the branch.
		case bytecode.OpBrfEqReal:
			if !(fr.f[in.A] == fr.f[in.B]) {
				pc = int32(in.Imm)
			}
		case bytecode.OpBrfNeReal:
			if !(fr.f[in.A] != fr.f[in.B]) {
				pc = int32(in.Imm)
			}
		case bytecode.OpBrfLtReal:
			if !(fr.f[in.A] < fr.f[in.B]) {
				pc = int32(in.Imm)
			}
		case bytecode.OpBrfLeReal:
			if !(fr.f[in.A] <= fr.f[in.B]) {
				pc = int32(in.Imm)
			}
		case bytecode.OpBrfGtReal:
			if !(fr.f[in.A] > fr.f[in.B]) {
				pc = int32(in.Imm)
			}
		case bytecode.OpBrfGeReal:
			if !(fr.f[in.A] >= fr.f[in.B]) {
				pc = int32(in.Imm)
			}
		case bytecode.OpBrfEqNode:
			if fr.n[in.A] != fr.n[in.B] {
				pc = int32(in.Imm)
			}
		case bytecode.OpBrfNeNode:
			if fr.n[in.A] == fr.n[in.B] {
				pc = int32(in.Imm)
			}
		case bytecode.OpBrfNull:
			if fr.n[in.A] != nil {
				pc = int32(in.Imm)
			}
		case bytecode.OpBrfNonNull:
			if fr.n[in.A] == nil {
				pc = int32(in.Imm)
			}
		case bytecode.OpScOr:
			if fr.b[in.A] {
				pc = int32(in.Imm)
			}
		case bytecode.OpForHead:
			if fr.i[in.A] > fr.i[in.B] {
				pc = int32(in.Imm)
			} else {
				fr.i[in.C] = fr.i[in.A]
			}
		case bytecode.OpForTail:
			if ip.stepsLocal++; ip.stepsLocal >= ip.stepMark {
				if err := ip.publish(f.Pos[ipc]); err != nil {
					return ctrlNext, err
				}
			}
			fr.i[in.A]++
			pc = int32(in.Imm)

		case bytecode.OpForall:
			site := &f.Foralls[in.A]
			pc = site.BodyEnd
			if c, err := ip.bcForall(f, fr, site, f.Pos[ipc]); err != nil || c == ctrlReturn {
				return c, err
			}

		case bytecode.OpCall:
			site := &f.Calls[in.A]
			callee := ip.bc.Funcs[site.FuncIdx]
			nf := ip.getBCFrame(callee)
			nf.bindCall(site, fr)
			// The walker's callFunc (depth guard on the Interp's live call
			// depth, run, fell-off-the-end check) in one Go call.
			if ip.cdepth > ip.maxDepth {
				ip.putBCFrame(nf)
				return ctrlNext, errDepth(callee)
			}
			ip.cdepth++
			c, err := ip.runBC(callee, nf, 0, int32(len(callee.Code)))
			ip.cdepth--
			if err == nil && c != ctrlReturn && callee.Result != nil {
				err = errFellOff(callee)
			}
			if err != nil {
				ip.putBCFrame(nf)
				return ctrlNext, err
			}
			switch site.Dst.Bank {
			case bytecode.BankInt:
				fr.i[site.Dst.Idx] = nf.retI
			case bytecode.BankReal:
				fr.f[site.Dst.Idx] = nf.retF
			case bytecode.BankBool:
				fr.b[site.Dst.Idx] = nf.retB
			case bytecode.BankNode:
				fr.n[site.Dst.Idx] = nf.retN
			}
			ip.putBCFrame(nf)

		case bytecode.OpPrint:
			site := &f.Prints[in.A]
			args := make([]string, len(site.Args))
			for j, a := range site.Args {
				switch a.Bank {
				case bytecode.BankInt:
					args[j] = IntVal(fr.i[a.Idx]).String()
				case bytecode.BankReal:
					args[j] = RealVal(fr.f[a.Idx]).String()
				case bytecode.BankBool:
					args[j] = BoolVal(fr.b[a.Idx]).String()
				case bytecode.BankStr:
					args[j] = f.Strs[a.Idx]
				case bytecode.BankNode:
					args[j] = PtrVal(fr.n[a.Idx]).String()
				}
			}
			if err := ip.printLine(f.Pos[ipc], args); err != nil {
				return ctrlNext, err
			}

		case bytecode.OpReturnVoid:
			return ctrlReturn, nil
		case bytecode.OpReturnInt:
			fr.retI = fr.i[in.A]
			return ctrlReturn, nil
		case bytecode.OpReturnReal:
			fr.retF = fr.f[in.A]
			return ctrlReturn, nil
		case bytecode.OpReturnBool:
			fr.retB = fr.b[in.A]
			return ctrlReturn, nil
		case bytecode.OpReturnNode:
			fr.retN = fr.n[in.A]
			return ctrlReturn, nil

		case bytecode.OpAddInt:
			fr.i[in.A] = fr.i[in.B] + fr.i[in.C]
		case bytecode.OpSubInt:
			fr.i[in.A] = fr.i[in.B] - fr.i[in.C]
		case bytecode.OpMulInt:
			fr.i[in.A] = fr.i[in.B] * fr.i[in.C]
		case bytecode.OpDivInt:
			if fr.i[in.C] == 0 {
				return ctrlNext, fmt.Errorf("%s: interp: integer division by zero", f.Pos[ipc])
			}
			fr.i[in.A] = fr.i[in.B] / fr.i[in.C]
		case bytecode.OpModInt:
			if fr.i[in.C] == 0 {
				return ctrlNext, fmt.Errorf("%s: interp: integer modulo by zero", f.Pos[ipc])
			}
			fr.i[in.A] = fr.i[in.B] % fr.i[in.C]
		case bytecode.OpNegInt:
			fr.i[in.A] = -fr.i[in.B]
		case bytecode.OpEqInt:
			fr.b[in.A] = fr.i[in.B] == fr.i[in.C]
		case bytecode.OpNeInt:
			fr.b[in.A] = fr.i[in.B] != fr.i[in.C]
		case bytecode.OpLtInt:
			fr.b[in.A] = fr.i[in.B] < fr.i[in.C]
		case bytecode.OpLeInt:
			fr.b[in.A] = fr.i[in.B] <= fr.i[in.C]
		case bytecode.OpGtInt:
			fr.b[in.A] = fr.i[in.B] > fr.i[in.C]
		case bytecode.OpGeInt:
			fr.b[in.A] = fr.i[in.B] >= fr.i[in.C]

		case bytecode.OpAddReal:
			fr.f[in.A] = fr.f[in.B] + fr.f[in.C]
		case bytecode.OpSubReal:
			fr.f[in.A] = fr.f[in.B] - fr.f[in.C]
		case bytecode.OpMulReal:
			fr.f[in.A] = fr.f[in.B] * fr.f[in.C]
		case bytecode.OpDivReal:
			fr.f[in.A] = fr.f[in.B] / fr.f[in.C]
		case bytecode.OpNegReal:
			fr.f[in.A] = -fr.f[in.B]
		case bytecode.OpEqReal:
			fr.b[in.A] = fr.f[in.B] == fr.f[in.C]
		case bytecode.OpNeReal:
			fr.b[in.A] = fr.f[in.B] != fr.f[in.C]
		case bytecode.OpLtReal:
			fr.b[in.A] = fr.f[in.B] < fr.f[in.C]
		case bytecode.OpLeReal:
			fr.b[in.A] = fr.f[in.B] <= fr.f[in.C]
		case bytecode.OpGtReal:
			fr.b[in.A] = fr.f[in.B] > fr.f[in.C]
		case bytecode.OpGeReal:
			fr.b[in.A] = fr.f[in.B] >= fr.f[in.C]

		case bytecode.OpNot:
			fr.b[in.A] = !fr.b[in.B]
		case bytecode.OpEqBool:
			fr.b[in.A] = fr.b[in.B] == fr.b[in.C]
		case bytecode.OpNeBool:
			fr.b[in.A] = fr.b[in.B] != fr.b[in.C]
		case bytecode.OpEqNode:
			fr.b[in.A] = fr.n[in.B] == fr.n[in.C]
		case bytecode.OpNeNode:
			fr.b[in.A] = fr.n[in.B] != fr.n[in.C]

		case bytecode.OpNew:
			n, err := ip.allocNode(f.News[in.B])
			if err != nil {
				return ctrlNext, err
			}
			fr.n[in.A] = n

		case bytecode.OpLoadInt:
			n := fr.n[in.B]
			if n == nil {
				return ctrlNext, fmt.Errorf("%s: interp: field %s read through NULL pointer", f.Pos[ipc], f.Names[in.Imm])
			}
			fr.i[in.A] = int64(n.words[in.C])
		case bytecode.OpLoadReal:
			n := fr.n[in.B]
			if n == nil {
				return ctrlNext, fmt.Errorf("%s: interp: field %s read through NULL pointer", f.Pos[ipc], f.Names[in.Imm])
			}
			fr.f[in.A] = math.Float64frombits(n.words[in.C])
		case bytecode.OpLoadBool:
			n := fr.n[in.B]
			if n == nil {
				return ctrlNext, fmt.Errorf("%s: interp: field %s read through NULL pointer", f.Pos[ipc], f.Names[in.Imm])
			}
			fr.b[in.A] = n.words[in.C] != 0

		case bytecode.OpLoadNode:
			n := fr.n[in.B]
			if n == nil {
				// Speculative traversability (§3.2): NULL reads as NULL.
				fr.n[in.A] = nil
				continue
			}
			arr := n.parr[in.C]
			if len(arr) == 0 {
				return ctrlNext, fmt.Errorf("%s: interp: index 0 out of range for %s.%s[0]", f.Pos[ipc], n.decl.Name, f.Names[in.Imm])
			}
			fr.n[in.A] = arr[0]

		case bytecode.OpLoadNodeIdxBegin:
			if fr.n[in.B] == nil {
				// NULL base: skip the index expression entirely.
				fr.n[in.A] = nil
				pc = int32(in.Imm)
			}
		case bytecode.OpLoadNodeIdx:
			off, name := bytecode.UnpackOffName(in.Imm)
			n := fr.n[in.B]
			idx := fr.i[in.C]
			arr := n.parr[off]
			if idx < 0 || idx >= int64(len(arr)) {
				return ctrlNext, fmt.Errorf("%s: interp: index %d out of range for %s.%s[%d]", f.Pos[ipc], idx, n.decl.Name, f.Names[name], len(arr))
			}
			fr.n[in.A] = arr[idx]

		case bytecode.OpStoreInt:
			n := fr.n[in.A]
			if n == nil {
				return ctrlNext, fmt.Errorf("%s: interp: store through NULL pointer", f.Pos[ipc])
			}
			n.words[in.C] = uint64(fr.i[in.B])
		case bytecode.OpStoreReal:
			n := fr.n[in.A]
			if n == nil {
				return ctrlNext, fmt.Errorf("%s: interp: store through NULL pointer", f.Pos[ipc])
			}
			n.words[in.C] = math.Float64bits(fr.f[in.B])
		case bytecode.OpStoreBool:
			n := fr.n[in.A]
			if n == nil {
				return ctrlNext, fmt.Errorf("%s: interp: store through NULL pointer", f.Pos[ipc])
			}
			n.words[in.C] = boolWord(fr.b[in.B])

		case bytecode.OpStoreNode:
			n := fr.n[in.A]
			if n == nil {
				return ctrlNext, fmt.Errorf("%s: interp: store through NULL pointer", f.Pos[ipc])
			}
			arr := n.parr[in.C]
			if len(arr) == 0 {
				return ctrlNext, fmt.Errorf("%s: interp: index 0 out of range for %s.%s[0]", f.Pos[ipc], n.decl.Name, f.Names[in.Imm])
			}
			old := arr[0]
			arr[0] = fr.n[in.B]
			if ip.cfg.ShapeChecks {
				if err := ip.checkStore(f.Pos[ipc], n, in.C, old, fr.n[in.B]); err != nil {
					return ctrlNext, err
				}
			}

		case bytecode.OpStoreNodeIdxBegin:
			if fr.n[in.A] == nil {
				return ctrlNext, fmt.Errorf("%s: interp: store through NULL pointer", f.Pos[ipc])
			}
		case bytecode.OpStoreNodeIdx:
			off, name := bytecode.UnpackOffName(in.Imm)
			n := fr.n[in.A]
			idx := fr.i[in.C]
			arr := n.parr[off]
			if idx < 0 || idx >= int64(len(arr)) {
				return ctrlNext, fmt.Errorf("%s: interp: index %d out of range for %s.%s[%d]", f.Pos[ipc], idx, n.decl.Name, f.Names[name], len(arr))
			}
			old := arr[idx]
			arr[idx] = fr.n[in.B]
			if ip.cfg.ShapeChecks {
				if err := ip.checkStore(f.Pos[ipc], n, int32(off), old, fr.n[in.B]); err != nil {
					return ctrlNext, err
				}
			}

		case bytecode.OpSqrt:
			fr.f[in.A] = math.Sqrt(fr.f[in.B])
		case bytecode.OpAbs:
			fr.f[in.A] = math.Abs(fr.f[in.B])
		case bytecode.OpRand:
			fr.f[in.A] = ip.rand()

		default:
			return ctrlNext, fmt.Errorf("%s: interp: bytecode: bad opcode %d", f.Pos[ipc], in.Op)
		}
	}
	return ctrlNext, nil
}

// bcForall runs one parallel loop: the vector path when the strip
// qualifies, otherwise private frames through realForall — the walker's
// Real arm — each lane of a recognized strip starting at its helper's
// guard. An empty range is a no-op before either.
func (ip *Interp) bcForall(f *bytecode.Func, fr *bcFrame, site *bytecode.ForallSite, pos lang.Pos) (ctrl, error) {
	lo, hi := fr.i[site.From], fr.i[site.To]
	if ok, err := ip.forallTrips(pos, lo, hi); !ok {
		return ctrlNext, err
	}
	// Iterations must see the enclosing call's remaining recursion
	// budget (the walker threads its depth into every iteration).
	depth := ip.cdepth
	literal := func(w *Interp, k int64) (ctrl, error) {
		nf := w.getBCFrame(f)
		nf.copyBanksFrom(fr)
		nf.i[site.Var] = k
		w.cdepth = depth
		c, err := w.runBC(f, nf, site.BodyStart, site.BodyEnd)
		w.putBCFrame(nf)
		return c, err
	}
	st := site.Strip
	// A strip walks its chain once, here, for both paths below. A strip
	// whose call evaluates an argument, lane indices below 0, which skip
	// nothing and the closed forms do not model, and a call at this
	// depth, which fails the depth guard, run literally, as do strips
	// wider than memory can hold and strips whose prologues the room
	// left cannot cover (stripFits), which also bounds every closed-form
	// count below.
	if st == nil || !st.ArgsInRegs || lo < 0 || depth > ip.maxDepth ||
		int64(int(hi-lo+1)) != hi-lo+1 || !ip.stripFits(lo, hi) {
		return ctrlNext, ip.realForall(pos, lo, hi, literal)
	}
	base := len(ip.lanes)
	defer func() { ip.lanes = ip.lanes[:base] }()
	nodes, walked := ip.stripWalk(st, fr.n[f.Calls[st.CallSite].Args[1].Idx], lo, int(hi-lo+1))

	// The vector path: a strip the classifier proved vectorizable runs
	// as a batched SoA kernel (kernel.go) when the walk reached every
	// lane; a fault, or steps it cannot pay, makes bcForallKernel report
	// false having touched nothing, falling through to the scalar path
	// below.
	if ip.cfg.Engine == EngineKernel && site.Kernel != nil && walked == len(nodes) &&
		ip.bcForallKernel(f, fr, site, pos, lo, hi, nodes) {
		return ctrlNext, nil
	}
	helper := ip.bc.Funcs[st.HelperIdx]
	call := &f.Calls[st.CallSite]
	// Lane k starts at the guard having paid what its call statement and
	// skip loop cost on the literal path, 2+2k steps; a lane that cannot
	// pay them runs literally, so its failure is the literal path's.
	return ctrlNext, ip.realForall(pos, lo, hi, func(w *Interp, k int64) (ctrl, error) {
		j := int(k - lo)
		if j >= walked || !w.pay(2+2*k) {
			return literal(w, k)
		}
		nf := w.getBCFrame(helper)
		nf.bindCall(call, fr)
		nf.i[helper.Params[0].Reg.Idx] = k
		nf.n[helper.Params[1].Reg.Idx] = nodes[j]
		w.cdepth = depth + 1
		_, err := w.runBC(helper, nf, st.GuardPC, int32(len(helper.Code)))
		w.cdepth = depth
		w.putBCFrame(nf)
		return ctrlNext, err
	})
}

// stripFits reports whether the prologues of lanes lo..hi (lo ≥ 0),
// Σ(2+2k) = W(2+lo+hi) steps, fit the room left. The walk follows
// lo+W−1 links and holds W nodes before any lane is charged; taking it
// only when the lanes can pay for it keeps a wide range, which the
// budget stops long before its last lane on the literal path, from
// sizing anything by its width.
func (ip *Interp) stripFits(lo, hi int64) bool {
	left := ip.room()
	return hi <= left/2 && lo+hi <= left/(hi-lo+1)-2
}

// stripWalk walks a strip's chain once: lane j's element is
// advance^(lo+j) of start, the node lane j's skip loop would end on. The
// nodes go on ip.lanes (a stack: a strip nested in a lane pushes above
// them; the caller pops). walked is how many leading lanes the walk
// reached: a lane at or past it would fault in its own skip loop on an
// empty pointer array, and must run literally, which raises the scalar
// engines' error.
func (ip *Interp) stripWalk(st *bytecode.Strip, start *Node, lo int64, n int) (nodes []*Node, walked int) {
	base := len(ip.lanes)
	ip.lanes = slices.Grow(ip.lanes, n)[:base+n]
	nodes = ip.lanes[base : base+n : base+n]
	cur, ok := start, true
	for s := int64(0); s < lo && ok; s++ {
		cur, ok = ip.stripAdvance(cur, st.AdvanceOff)
	}
	for ok && walked < n {
		nodes[walked] = cur
		walked++
		if walked < n {
			cur, ok = ip.stripAdvance(cur, st.AdvanceOff)
		}
	}
	return nodes, walked
}

// stripAdvance is one hop of a strip's skip loop, as its load.node
// makes it: NULL reads as NULL (speculative traversability, §3.2); an
// empty pointer array fails the hop.
func (ip *Interp) stripAdvance(cur *Node, off int32) (*Node, bool) {
	ip.stripHops++
	if cur == nil {
		return nil, true
	}
	arr := cur.parr[off]
	if len(arr) == 0 {
		return nil, false
	}
	return arr[0], true
}

// bindCall binds a call site's arguments from the caller frame into
// the callee's frame fr: OpCall's binding, and a strip lane's.
func (fr *bcFrame) bindCall(site *bytecode.CallSite, caller *bcFrame) {
	for _, m := range site.Moves[bytecode.BankInt] {
		fr.i[m.Dst] = caller.i[m.Src]
	}
	for _, m := range site.Moves[bytecode.BankReal] {
		fr.f[m.Dst] = caller.f[m.Src]
	}
	for _, m := range site.Moves[bytecode.BankBool] {
		fr.b[m.Dst] = caller.b[m.Src]
	}
	for _, m := range site.Moves[bytecode.BankNode] {
		fr.n[m.Dst] = caller.n[m.Src]
	}
}
