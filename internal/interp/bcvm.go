// The bytecode engine: a switch-loop VM over internal/bytecode's flat
// instruction arrays and typed register banks — the production engine,
// checked against the tree-walking oracle (interp.go).
//
// Where the walker resolves names at every step — map-chain scope
// lookups per variable, field-name hashing per heap access, function
// lookup per call, an interface type switch per AST node — and moves
// every intermediate through a Kind-tagged Value, this VM runs a
// for-loop over []Instr with direct slice indexing into per-frame
// []int64 / []float64 / []bool / []string / []*Node banks: hot
// arithmetic (R1 polyscale, R2 force) touches no interface, builds no
// Value, and allocates nothing once the frame pool is warm.
//
// Semantics are pinned to the walker — same results, printed output,
// error text, and sandbox budgets; step totals agree at every quiescent
// point (see stepFlushChunk). The equivalence grid, FuzzBytecodeVsWalk,
// and the sandbox-parity suite enforce this. The VM holds no cost
// model: Simulated mode runs on the walker (newInterp).
package interp

import (
	"fmt"
	"math"

	"repro/internal/bytecode"
	"repro/internal/lang"
)

// bcFrame is one call's register file. The ret* fields carry the
// return value out of runBC (one per bank, so no boxing on return).
type bcFrame struct {
	i []int64
	f []float64
	b []bool
	s []string
	n []*Node

	retI int64
	retF float64
	retB bool
	retS string
	retN *Node
}

// getBCFrame returns a frame sized for f, reusing pooled bank storage
// when capacities allow. Banks are not zeroed: every register is
// written before it is read (slot homes by declare-before-use, temps
// and hidden loop counters by construction).
func (ip *Interp) getBCFrame(f *bytecode.Func) *bcFrame {
	var fr *bcFrame
	if l := len(ip.bcPool); l > 0 {
		fr = ip.bcPool[l-1]
		ip.bcPool = ip.bcPool[:l-1]
	} else {
		fr = new(bcFrame)
	}
	if cap(fr.i) >= f.NInt {
		fr.i = fr.i[:f.NInt]
	} else {
		fr.i = make([]int64, f.NInt)
	}
	if cap(fr.f) >= f.NReal {
		fr.f = fr.f[:f.NReal]
	} else {
		fr.f = make([]float64, f.NReal)
	}
	if cap(fr.b) >= f.NBool {
		fr.b = fr.b[:f.NBool]
	} else {
		fr.b = make([]bool, f.NBool)
	}
	if cap(fr.s) >= f.NStr {
		fr.s = fr.s[:f.NStr]
	} else {
		fr.s = make([]string, f.NStr)
	}
	if cap(fr.n) >= f.NNode {
		fr.n = fr.n[:f.NNode]
	} else {
		fr.n = make([]*Node, f.NNode)
	}
	return fr
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
	copy(fr.s, src.s)
	copy(fr.n, src.n)
}

// bcRet carries a call's return value across the frame-pool boundary.
type bcRet struct {
	i int64
	f float64
	b bool
	s string
	n *Node
}

// callBytecode is the external entry (Interp.Call): bind arguments
// into a fresh frame by bank and run.
func (ip *Interp) callBytecode(f *bytecode.Func, args []Value) (Value, error) {
	fr := ip.getBCFrame(f)
	for i, p := range f.Params {
		v := coerce(args[i], p.Type)
		switch p.Reg.Bank {
		case bytecode.BankInt:
			fr.i[p.Reg.Idx] = v.I
		case bytecode.BankReal:
			fr.f[p.Reg.Idx] = v.F
		case bytecode.BankBool:
			fr.b[p.Reg.Idx] = v.B
		case bytecode.BankStr:
			fr.s[p.Reg.Idx] = v.S
		case bytecode.BankNode:
			fr.n[p.Reg.Idx] = v.N
		}
	}
	r, err := ip.callBC(f, fr)
	if err != nil || f.Result == nil {
		return Value{}, err
	}
	switch bytecode.BankOf(f.Result) {
	case bytecode.BankInt:
		return IntVal(r.i), nil
	case bytecode.BankReal:
		return RealVal(r.f), nil
	case bytecode.BankBool:
		return BoolVal(r.b), nil
	case bytecode.BankStr:
		return StrVal(r.s), nil
	case bytecode.BankNode:
		return PtrVal(r.n), nil
	}
	return Value{}, nil
}

// callBC mirrors the walker's callFunc: depth guard, run, pool the
// frame, fell-off-the-end check. The recursion guard uses the Interp's
// live call depth (each Interp runs one call chain at a time; parallel
// iterations run on forks with their own depth).
func (ip *Interp) callBC(f *bytecode.Func, fr *bcFrame) (bcRet, error) {
	if ip.cdepth > ip.maxDepth {
		ip.putBCFrame(fr)
		return bcRet{}, fmt.Errorf("interp: recursion depth exceeded in %s", f.Name)
	}
	ip.cdepth++
	c, err := ip.runBC(f, fr, 0, int32(len(f.Code)))
	ip.cdepth--
	r := bcRet{i: fr.retI, f: fr.retF, b: fr.retB, s: fr.retS, n: fr.retN}
	ip.putBCFrame(fr)
	if err != nil {
		return bcRet{}, err
	}
	if c == ctrlReturn {
		return r, nil
	}
	if f.Result != nil {
		return bcRet{}, fmt.Errorf("interp: function %s fell off the end without returning", f.Name)
	}
	return bcRet{}, nil
}

// runBC executes code in [pc, end) on a frame. Jump targets are
// absolute instruction indices; error positions come from the
// function's parallel Pos table.
func (ip *Interp) runBC(f *bytecode.Func, fr *bcFrame, pc, end int32) (ctrl, error) {
	code := f.Code
	for pc < end {
		in := &code[pc]
		ipc := pc
		pc++
		switch in.Op {
		case bytecode.OpConstInt:
			fr.i[in.A] = in.Imm
		case bytecode.OpConstReal:
			fr.f[in.A] = in.Fv
		case bytecode.OpConstBool:
			fr.b[in.A] = in.Imm != 0
		case bytecode.OpConstStr:
			fr.s[in.A] = f.Strs[in.B]
		case bytecode.OpConstNull:
			fr.n[in.A] = nil
		case bytecode.OpMovInt:
			fr.i[in.A] = fr.i[in.B]
		case bytecode.OpMovReal:
			fr.f[in.A] = fr.f[in.B]
		case bytecode.OpMovBool:
			fr.b[in.A] = fr.b[in.B]
		case bytecode.OpMovStr:
			fr.s[in.A] = fr.s[in.B]
		case bytecode.OpMovNode:
			fr.n[in.A] = fr.n[in.B]
		case bytecode.OpIntToReal:
			fr.f[in.A] = float64(fr.i[in.B])

		case bytecode.OpStep:
			if err := ip.stepC(f.Pos[ipc]); err != nil {
				return ctrlNext, err
			}
		case bytecode.OpJump:
			pc = int32(in.Imm)
		case bytecode.OpBr:
			if !fr.b[in.A] {
				pc = int32(in.Imm)
			}
		case bytecode.OpScAnd:
			if !fr.b[in.A] {
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
			if err := ip.stepC(f.Pos[ipc]); err != nil {
				return ctrlNext, err
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
			for j := range site.Args {
				a := site.Args[j]
				p := callee.Params[j].Reg.Idx
				switch a.Bank {
				case bytecode.BankInt:
					nf.i[p] = fr.i[a.Idx]
				case bytecode.BankReal:
					nf.f[p] = fr.f[a.Idx]
				case bytecode.BankBool:
					nf.b[p] = fr.b[a.Idx]
				case bytecode.BankStr:
					nf.s[p] = fr.s[a.Idx]
				case bytecode.BankNode:
					nf.n[p] = fr.n[a.Idx]
				}
			}
			r, err := ip.callBC(callee, nf)
			if err != nil {
				return ctrlNext, err
			}
			switch site.Dst.Bank {
			case bytecode.BankNone:
			case bytecode.BankInt:
				fr.i[site.Dst.Idx] = r.i
			case bytecode.BankReal:
				fr.f[site.Dst.Idx] = r.f
			case bytecode.BankBool:
				fr.b[site.Dst.Idx] = r.b
			case bytecode.BankStr:
				fr.s[site.Dst.Idx] = r.s
			case bytecode.BankNode:
				fr.n[site.Dst.Idx] = r.n
			}

		case bytecode.OpPrint:
			site := &f.Prints[in.A]
			args := make([]Value, len(site.Args))
			for j, a := range site.Args {
				switch a.Bank {
				case bytecode.BankInt:
					args[j] = IntVal(fr.i[a.Idx])
				case bytecode.BankReal:
					args[j] = RealVal(fr.f[a.Idx])
				case bytecode.BankBool:
					args[j] = BoolVal(fr.b[a.Idx])
				case bytecode.BankStr:
					args[j] = StrVal(fr.s[a.Idx])
				case bytecode.BankNode:
					args[j] = PtrVal(fr.n[a.Idx])
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
		case bytecode.OpReturnStr:
			fr.retS = fr.s[in.A]
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
		case bytecode.OpEqStr:
			fr.b[in.A] = fr.s[in.B] == fr.s[in.C]
		case bytecode.OpNeStr:
			fr.b[in.A] = fr.s[in.B] != fr.s[in.C]
		case bytecode.OpEqNode:
			fr.b[in.A] = fr.n[in.B] == fr.n[in.C]
		case bytecode.OpNeNode:
			fr.b[in.A] = fr.n[in.B] != fr.n[in.C]

		case bytecode.OpNew:
			site := &f.News[in.B]
			v, err := ip.allocNode(site.Decl, site.TypeName)
			if err != nil {
				return ctrlNext, err
			}
			fr.n[in.A] = v.N

		case bytecode.OpLoadInt:
			n := fr.n[in.B]
			if n == nil {
				return ctrlNext, fmt.Errorf("%s: interp: field %s read through NULL pointer", f.Pos[ipc], f.Names[in.Imm])
			}
			fr.i[in.A] = n.vals[in.C].I
		case bytecode.OpLoadReal:
			n := fr.n[in.B]
			if n == nil {
				return ctrlNext, fmt.Errorf("%s: interp: field %s read through NULL pointer", f.Pos[ipc], f.Names[in.Imm])
			}
			fr.f[in.A] = n.vals[in.C].F
		case bytecode.OpLoadBool:
			n := fr.n[in.B]
			if n == nil {
				return ctrlNext, fmt.Errorf("%s: interp: field %s read through NULL pointer", f.Pos[ipc], f.Names[in.Imm])
			}
			fr.b[in.A] = n.vals[in.C].B

		case bytecode.OpLoadNode:
			n := fr.n[in.B]
			if n == nil {
				if !ip.cfg.StrictNull {
					// Speculative traversability (§3.2): NULL reads as NULL.
					fr.n[in.A] = nil
					continue
				}
				return ctrlNext, fmt.Errorf("%s: interp: field %s read through NULL pointer", f.Pos[ipc], f.Names[in.Imm])
			}
			arr := n.parr[in.C]
			if len(arr) == 0 {
				return ctrlNext, fmt.Errorf("%s: interp: index 0 out of range for %s.%s[0]", f.Pos[ipc], n.Type, f.Names[in.Imm])
			}
			fr.n[in.A] = arr[0]

		case bytecode.OpLoadNodeIdxBegin:
			if fr.n[in.B] == nil {
				if !ip.cfg.StrictNull {
					// NULL base: skip the index expression entirely.
					fr.n[in.A] = nil
					pc = int32(in.Imm)
					continue
				}
				return ctrlNext, fmt.Errorf("%s: interp: field %s read through NULL pointer", f.Pos[ipc], f.Names[in.C])
			}
		case bytecode.OpLoadNodeIdx:
			off, name := bytecode.UnpackOffName(in.Imm)
			n := fr.n[in.B]
			idx := fr.i[in.C]
			arr := n.parr[off]
			if idx < 0 || idx >= int64(len(arr)) {
				return ctrlNext, fmt.Errorf("%s: interp: index %d out of range for %s.%s[%d]", f.Pos[ipc], idx, n.Type, f.Names[name], len(arr))
			}
			fr.n[in.A] = arr[idx]

		case bytecode.OpStoreInt:
			n := fr.n[in.A]
			if n == nil {
				return ctrlNext, fmt.Errorf("%s: interp: store through NULL pointer", f.Pos[ipc])
			}
			n.vals[in.C] = IntVal(fr.i[in.B])
		case bytecode.OpStoreReal:
			n := fr.n[in.A]
			if n == nil {
				return ctrlNext, fmt.Errorf("%s: interp: store through NULL pointer", f.Pos[ipc])
			}
			n.vals[in.C] = RealVal(fr.f[in.B])
		case bytecode.OpStoreBool:
			n := fr.n[in.A]
			if n == nil {
				return ctrlNext, fmt.Errorf("%s: interp: store through NULL pointer", f.Pos[ipc])
			}
			n.vals[in.C] = BoolVal(fr.b[in.B])

		case bytecode.OpStoreNode:
			n := fr.n[in.A]
			if n == nil {
				return ctrlNext, fmt.Errorf("%s: interp: store through NULL pointer", f.Pos[ipc])
			}
			arr := n.parr[in.C]
			if len(arr) == 0 {
				return ctrlNext, fmt.Errorf("%s: interp: index 0 out of range for %s.%s[0]", f.Pos[ipc], n.Type, f.Names[in.Imm])
			}
			old := arr[0]
			arr[0] = fr.n[in.B]
			if ip.cfg.ShapeChecks {
				if err := ip.checkStore(f.Pos[ipc], n, f.Names[in.Imm], old, fr.n[in.B]); err != nil {
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
				return ctrlNext, fmt.Errorf("%s: interp: index %d out of range for %s.%s[%d]", f.Pos[ipc], idx, n.Type, f.Names[name], len(arr))
			}
			old := arr[idx]
			arr[idx] = fr.n[in.B]
			if ip.cfg.ShapeChecks {
				if err := ip.checkStore(f.Pos[ipc], n, f.Names[name], old, fr.n[in.B]); err != nil {
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
// Real arm. An empty range is a no-op before either.
func (ip *Interp) bcForall(f *bytecode.Func, fr *bcFrame, site *bytecode.ForallSite, pos lang.Pos) (ctrl, error) {
	lo, hi := fr.i[site.From], fr.i[site.To]
	if ok, err := ip.forallTrips(pos, lo, hi); !ok {
		return ctrlNext, err
	}
	// The vector path: a strip the classifier proved vectorizable runs
	// as a batched SoA kernel (kernel.go). StrictNull runs are excluded
	// — the kernel's speculative gather walk assumes NULL propagation —
	// and any in-flight fault or budget concern makes bcForallKernel
	// report false having touched nothing, falling through to the
	// scalar path below.
	if ip.cfg.Engine == EngineKernel && site.Kernel != nil && !ip.cfg.StrictNull {
		if ip.bcForallKernel(f, fr, site, pos, lo, hi) {
			return ctrlNext, nil
		}
	}

	// Iterations must see the enclosing call's remaining recursion
	// budget (the walker threads its depth into every iteration).
	depth := ip.cdepth
	return ctrlNext, ip.realForall(pos, lo, hi, func(w *Interp, k int64) (ctrl, error) {
		nf := w.getBCFrame(f)
		nf.copyBanksFrom(fr)
		nf.i[site.Var] = k
		w.cdepth = depth
		c, err := w.runBC(f, nf, site.BodyStart, site.BodyEnd)
		w.putBCFrame(nf)
		return c, err
	})
}
