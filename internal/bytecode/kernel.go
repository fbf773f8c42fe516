// kernel.go — the SPMD vector-kernel IR and its classifier/lowering:
// the fourth execution path's compile-time half.
//
// When a forall has the exact shape transform.StripMine emits — one
// helper call per lane, the helper skipping k links along one pointer
// field and guarding the body on NULL — and the guarded body is
// straight-line arithmetic over the element's own data fields (no
// calls, no allocation, no pointer-chasing beyond the element;
// conditionals allowed), the strip admits a data-layout transform:
// gather the touched fields AoS→SoA into flat slabs, execute the body
// as fused whole-slab operations with execution masks for `if`
// branches, and scatter the stored fields back at the barrier.
// classifyKernel recognizes the pattern during lowering and attaches
// the Kernel to its ForallSite; rejected strips carry a concrete
// VectorReason instead, which transform's planner surfaces per loop.
// The run-time half (slab pools, mask evaluation, the transactional
// fallback) lives in internal/interp's kernel engine.
//
// Accounting parity: the only observable counters of a print-free,
// allocation-free body are statement steps. The strip prologue (the
// helper call, the skip loop, the NULL guard) contributes 3+2k steps
// for lane k — charged in closed form by the runner — and every
// guarded-body statement lowers to one KStep over its governing mask,
// so per-strip step totals are bit-identical to the scalar engines'.
package bytecode

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/lang"
)

// KOp is a vector-kernel opcode. Except for the prologue broadcasts
// and the mask combiners, every op is elementwise over the strip's
// lanes and executes only where its mask slab (KInstr.M) is true.
type KOp uint8

// Kernel opcodes. Register operands (A, B, C) are slab indices within
// the bank the mnemonic names; M is the governing bool-slab mask
// (kNoMask on the unmasked ops).
const (
	kopInvalid KOp = iota

	// Prologue broadcasts: fill a whole slab from one caller scalar,
	// read through the strip call site's argument list (B is the
	// argument index). Unmasked — they run once per strip, serially,
	// during the gather phase.
	KParamInt  // I[A][*] = caller int arg B
	KParamReal // F[A][*] = caller real arg B
	KParamBool // B[A][*] = caller bool arg B

	// Masked constants and moves.
	KConstInt  // I[A][i] = Imm
	KConstReal // F[A][i] = Fv
	KConstBool // B[A][i] = Imm != 0
	KMovInt    // I[A][i] = I[B][i]
	KMovReal   // F[A][i] = F[B][i]
	KMovBool   // B[A][i] = B[B][i]
	KIntToReal // F[A][i] = float64(I[B][i])

	// Integer ALU.
	KAddInt // I[A][i] = I[B][i] + I[C][i]
	KSubInt
	KMulInt
	KDivInt // faults the strip on a zero divisor in an active lane
	KModInt // faults the strip on a zero divisor in an active lane
	KNegInt // I[A][i] = -I[B][i]
	KEqInt  // B[A][i] = I[B][i] == I[C][i]
	KNeInt
	KLtInt
	KLeInt
	KGtInt
	KGeInt

	// Real ALU (IEEE, fault-free).
	KAddReal // F[A][i] = F[B][i] + F[C][i]
	KSubReal
	KMulReal
	KDivReal
	KNegReal // F[A][i] = -F[B][i]
	KEqReal  // B[A][i] = F[B][i] == F[C][i]
	KNeReal
	KLtReal
	KLeReal
	KGtReal
	KGeReal

	// Bool ops. KAndBool/KOrBool evaluate both sides eagerly — sound
	// because classified bodies are pure, and a spurious divide fault
	// on a lane the scalar path would short-circuit past only costs
	// the transactional fallback, never correctness.
	KNot    // B[A][i] = !B[B][i]
	KEqBool // B[A][i] = B[B][i] == B[C][i]
	KNeBool
	KAndBool // B[A][i] = B[B][i] && B[C][i]
	KOrBool  // B[A][i] = B[B][i] || B[C][i]

	// Builtins.
	KSqrt // F[A][i] = sqrt(F[B][i])
	KAbs  // F[A][i] = abs(F[B][i])

	// Mask combiners (unmasked, full lane range; a false parent mask
	// forces false regardless of the cond slab's garbage lanes).
	KMaskAnd    // B[A][i] = B[B][i] && B[C][i]
	KMaskAndNot // B[A][i] = B[B][i] && !B[C][i]

	// Accounting: one statement executed on every active lane.
	KStep // steps += popcount(B[M])

	kopCount
)

// kNoMask marks an unmasked instruction (prologue, mask combiners).
const kNoMask = int32(-1)

// KInstr is one kernel instruction. A, B, C are slab indices; M the
// mask slab (kNoMask when unmasked).
type KInstr struct {
	Op      KOp
	A, B, C int32
	M       int32
	Imm     int64
	Fv      float64
}

// KField is one element field the kernel touches, gathered into (and,
// when Stored, scattered back from) a slab. Every touched field is
// gathered — including store-only fields — so the scatter can write
// all root-active lanes unconditionally: lanes an `if` masked off
// write back the value they were gathered with.
type KField struct {
	Off    int32  // offset within the element's data fields
	Name   string // field name (disassembly)
	Bank   Bank   // BankInt, BankReal, or BankBool
	Slab   int32  // slab index within the bank
	Stored bool   // written by the body: scattered at the barrier
}

// Kernel is one vectorizable strip's lowered form, attached to its
// ForallSite by classifyKernel.
type Kernel struct {
	// HelperIdx is the strip helper's function index; CallSite indexes
	// the enclosing Func.Calls entry of the per-lane helper call, whose
	// Args are the caller registers the prologue broadcasts read (and
	// Args[1] the chain-start element pointer).
	HelperIdx int32
	CallSite  int32
	// AdvanceOff is the pointer-field offset the skip loop advances
	// along (the gather phase walks this chain once for the strip).
	AdvanceOff  int32
	AdvanceName string

	Fields []KField
	// Slab counts per bank; RootMask is the bool slab holding the
	// lane-is-non-NULL mask the guarded body executes under.
	NInt, NReal, NBool int
	RootMask           int32

	Prologue []KInstr // param broadcasts, run serially at gather
	Code     []KInstr // the guarded body, elementwise and masked
	// NSteps counts KStep instructions in Code: the per-lane upper
	// bound used for the runner's conservative step-budget pre-check.
	NSteps int32
}

// rejectErr is a classifier rejection: its text is the concrete
// per-loop VectorReason the plan report surfaces.
type rejectErr string

func (e rejectErr) Error() string { return string(e) }

const kNotStrip = rejectErr("loop body is not a strip-mined iteration pattern")

// classifyKernel runs after a forall body has been lowered (nCalls is
// len(f.Calls) before the body). It returns the strip's kernel, or the
// reason it is not vectorizable.
func (b *builder) classifyKernel(s *compile.For, nCalls int) (*Kernel, string) {
	k, err := b.tryKernel(s, nCalls)
	if err != nil {
		return nil, err.Error()
	}
	return k, ""
}

func (b *builder) tryKernel(s *compile.For, nCalls int) (*Kernel, error) {
	// The strip shape: the forall body is exactly one call
	// helper(_pe, elem, frees...) ...
	if len(s.Body) != 1 {
		return nil, kNotStrip
	}
	cs, ok := s.Body[0].(*compile.CallStmt)
	if !ok {
		return nil, kNotStrip
	}
	call := cs.Call
	if call.Builtin != compile.NotBuiltin || len(call.Args) < 2 || len(b.f.Calls) != nCalls+1 {
		return nil, kNotStrip
	}
	pe, ok := call.Args[0].(*compile.SlotRef)
	if !ok || pe.Slot != s.Slot {
		return nil, kNotStrip
	}
	ind, ok := call.Args[1].(*compile.SlotRef)
	if !ok || !isPtr(ind.Type()) {
		return nil, kNotStrip
	}
	callee := b.cp.Funcs[call.FuncIdx]
	if len(callee.Params) != len(call.Args) || len(callee.Body) != 2 {
		return nil, kNotStrip
	}
	peSlot := callee.Params[0].Slot
	elemSlot := callee.Params[1].Slot

	// ... whose body is the skip loop `for _k = 1 to _pe { elem =
	// elem->adv }` followed by the NULL guard `if elem != NULL {...}`.
	skip, ok := callee.Body[0].(*compile.For)
	if !ok || skip.Parallel || len(skip.Body) != 1 {
		return nil, kNotStrip
	}
	fromLit, ok := skip.From.(*compile.IntLit)
	if !ok || fromLit.Val != 1 {
		return nil, kNotStrip
	}
	toRef, ok := skip.To.(*compile.SlotRef)
	if !ok || toRef.Slot != peSlot {
		return nil, kNotStrip
	}
	adv, ok := skip.Body[0].(*compile.AssignSlot)
	if !ok || adv.Slot != elemSlot {
		return nil, kNotStrip
	}
	advLoad, ok := adv.RHS.(*compile.Load)
	if !ok || !advLoad.IsPtr || advLoad.Index != nil {
		return nil, kNotStrip
	}
	advBase, ok := advLoad.X.(*compile.SlotRef)
	if !ok || advBase.Slot != elemSlot {
		return nil, kNotStrip
	}
	guard, ok := callee.Body[1].(*compile.If)
	if !ok || len(guard.Else) != 0 {
		return nil, kNotStrip
	}
	cond, ok := guard.Cond.(*compile.Bin)
	if !ok || cond.Op != lang.NEQ {
		return nil, kNotStrip
	}
	condX, ok := cond.X.(*compile.SlotRef)
	if !ok || condX.Slot != elemSlot {
		return nil, kNotStrip
	}
	if _, ok := cond.Y.(*compile.NullLit); !ok {
		return nil, kNotStrip
	}

	kb := &kbuilder{
		callee:   callee,
		args:     call.Args,
		peSlot:   peSlot,
		elemSlot: elemSlot,
		slotSlab: make([]int32, callee.Slots),
		slotBank: make([]Bank, callee.Slots),
		fieldIdx: map[int32]int32{},
		k: &Kernel{
			HelperIdx:   int32(call.FuncIdx),
			CallSite:    int32(nCalls),
			AdvanceOff:  int32(advLoad.Off),
			AdvanceName: advLoad.Field,
		},
	}
	for i := range kb.slotSlab {
		kb.slotSlab[i] = -1
	}
	if err := kb.lower(guard.Then); err != nil {
		return nil, err
	}
	return kb.k, nil
}

// ---------------------------------------------------------------------------
// Lowering

// kbuilder lowers one guarded strip body to kernel code. It mirrors
// the scalar builder's register discipline over slabs: variable slots
// and gathered fields own permanent slabs, expression temporaries
// reuse a per-statement watermark, and `if` masks are permanent (they
// outlive the statement that computes them).
type kbuilder struct {
	callee   *compile.Func
	args     []compile.Expr // strip call-site arguments, one per param
	peSlot   int
	elemSlot int
	k        *Kernel

	slotSlab []int32 // variable slot -> slab (-1: not vectorizable as data)
	slotBank []Bank
	fieldIdx map[int32]int32 // data-field offset -> index into k.Fields

	permTop [6]int32
	tempTop [6]int32
	maxTop  [6]int32
}

func (kb *kbuilder) allocPerm(bank Bank) int32 {
	s := kb.permTop[bank]
	kb.permTop[bank]++
	if kb.tempTop[bank] < kb.permTop[bank] {
		kb.tempTop[bank] = kb.permTop[bank]
	}
	if kb.permTop[bank] > kb.maxTop[bank] {
		kb.maxTop[bank] = kb.permTop[bank]
	}
	return s
}

func (kb *kbuilder) temp(bank Bank) int32 {
	s := kb.tempTop[bank]
	kb.tempTop[bank]++
	if kb.tempTop[bank] > kb.maxTop[bank] {
		kb.maxTop[bank] = kb.tempTop[bank]
	}
	return s
}

func (kb *kbuilder) resetTemps() { kb.tempTop = kb.permTop }

// kDstBank gives each value-producing op's destination bank; ops with
// no register destination (KStep, the mask combiners) are absent.
func kDstBank(op KOp) (Bank, bool) {
	switch op {
	case KConstInt, KMovInt, KAddInt, KSubInt, KMulInt, KDivInt, KModInt, KNegInt:
		return BankInt, true
	case KConstReal, KMovReal, KIntToReal, KAddReal, KSubReal, KMulReal, KDivReal, KNegReal, KSqrt, KAbs:
		return BankReal, true
	case KEqInt, KNeInt, KLtInt, KLeInt, KGtInt, KGeInt,
		KEqReal, KNeReal, KLtReal, KLeReal, KGtReal, KGeReal,
		KConstBool, KMovBool, KNot, KEqBool, KNeBool, KAndBool, KOrBool:
		return BankBool, true
	}
	return 0, false
}

// emit appends one instruction, dropping the execution mask when it is
// provably unobservable: a temp destination is consumed within the same
// statement under the same mask and never read by a masked-off lane, so
// any op that cannot fault runs whole-slab. Int division and modulus
// keep their masks — the per-lane zero check must only see active
// lanes. (During statement codegen every permanent slab is already
// allocated — masks before the condition, fields and variables in
// pre-passes — so dst >= permTop identifies a temp exactly.)
func (kb *kbuilder) emit(in KInstr) {
	if in.M != kNoMask && in.Op != KDivInt && in.Op != KModInt {
		if bank, ok := kDstBank(in.Op); ok && in.A >= kb.permTop[bank] {
			in.M = kNoMask
		}
	}
	kb.k.Code = append(kb.k.Code, in)
}

func (kb *kbuilder) lower(body []compile.Stmt) error {
	kb.k.RootMask = kb.allocPerm(BankBool)
	// Broadcast the helper's scalar free-variable parameters. _pe and
	// the element pointer are positional (the lane index and the gather
	// chain); node or string extras stay unslabbed and reject on use.
	// The kernel never executes the call site's argument expressions,
	// so each extra argument must be a shape it can reproduce without
	// evaluation: a variable (broadcast the caller register) or a
	// literal (broadcast the constant). Anything else — a field load, a
	// nested call — could fault or cost steps when the scalar engines
	// evaluate it per lane, and rejects the strip.
	for i, p := range kb.callee.Params {
		bank := BankOf(p.Type)
		kb.slotBank[p.Slot] = bank
		if i < 2 {
			continue
		}
		arg := kb.args[i]
		switch bank {
		case BankInt, BankReal, BankBool:
		default:
			if _, ok := arg.(*compile.SlotRef); !ok {
				return rejectErr("strip call argument is not a variable or literal")
			}
			continue
		}
		in := KInstr{A: kb.allocPerm(bank), M: kNoMask}
		kb.slotSlab[p.Slot] = in.A
		switch a := arg.(type) {
		case *compile.SlotRef:
			switch bank {
			case BankInt:
				in.Op = KParamInt
			case BankReal:
				in.Op = KParamReal
			case BankBool:
				in.Op = KParamBool
			}
			in.B = int32(i)
		case *compile.IntLit:
			if bank == BankReal {
				in.Op, in.Fv = KConstReal, float64(a.Val)
			} else {
				in.Op, in.Imm = KConstInt, a.Val
			}
		case *compile.RealLit:
			in.Op, in.Fv = KConstReal, a.Val
		case *compile.BoolLit:
			in.Op = KConstBool
			if a.Val {
				in.Imm = 1
			}
		default:
			return rejectErr("strip call argument is not a variable or literal")
		}
		kb.k.Prologue = append(kb.k.Prologue, in)
	}
	// Pre-passes allocate every declaration's slab and every touched
	// field's slab before code generation, so no permanent slab is
	// ever allocated mid-statement (above a live temporary).
	if err := kb.assignSlabs(body); err != nil {
		return err
	}
	if err := kb.scanFieldStmts(body); err != nil {
		return err
	}
	if err := kb.stmts(body, kb.k.RootMask); err != nil {
		return err
	}
	kb.k.NInt = int(kb.maxTop[BankInt])
	kb.k.NReal = int(kb.maxTop[BankReal])
	kb.k.NBool = int(kb.maxTop[BankBool])
	return nil
}

// assignSlabs gives every variable declared in the guarded body a
// permanent slab (lane-local storage). Loop bodies are skipped: the
// statement pass rejects the loop before anything inside it is used.
func (kb *kbuilder) assignSlabs(stmts []compile.Stmt) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *compile.Block:
			if err := kb.assignSlabs(s.Stmts); err != nil {
				return err
			}
		case *compile.VarSet:
			switch bank := BankOf(s.Type); bank {
			case BankInt, BankReal, BankBool:
				kb.slotSlab[s.Slot] = kb.allocPerm(bank)
				kb.slotBank[s.Slot] = bank
			case BankStr:
				return rejectErr("string-valued expression")
			default:
				if _, ok := s.Init.(*compile.New); ok {
					return rejectErr("allocates")
				}
				return rejectErr("pointer-chasing access")
			}
		case *compile.If:
			if err := kb.assignSlabs(s.Then); err != nil {
				return err
			}
			if err := kb.assignSlabs(s.Else); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanFieldStmts registers every valid element-field access so field
// slabs exist before code generation. Invalid accesses are left for
// the statement pass, which rejects them with a concrete reason.
func (kb *kbuilder) scanFieldStmts(stmts []compile.Stmt) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *compile.Block:
			if err := kb.scanFieldStmts(s.Stmts); err != nil {
				return err
			}
		case *compile.VarSet:
			if s.Init != nil {
				if err := kb.scanFieldExpr(s.Init); err != nil {
					return err
				}
			}
		case *compile.AssignSlot:
			if err := kb.scanFieldExpr(s.RHS); err != nil {
				return err
			}
		case *compile.StoreField:
			if base, ok := s.Base.(*compile.SlotRef); ok && base.Slot == kb.elemSlot && !s.IsPtr && s.Index == nil {
				fi, err := kb.field(s.Off, s.Field, BankOf(s.Type))
				if err != nil {
					return err
				}
				kb.k.Fields[fi].Stored = true
			}
			if err := kb.scanFieldExpr(s.RHS); err != nil {
				return err
			}
		case *compile.If:
			if err := kb.scanFieldExpr(s.Cond); err != nil {
				return err
			}
			if err := kb.scanFieldStmts(s.Then); err != nil {
				return err
			}
			if err := kb.scanFieldStmts(s.Else); err != nil {
				return err
			}
		case *compile.CallStmt:
			for _, a := range s.Call.Args {
				if err := kb.scanFieldExpr(a); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (kb *kbuilder) scanFieldExpr(e compile.Expr) error {
	switch e := e.(type) {
	case *compile.Load:
		if base, ok := e.X.(*compile.SlotRef); ok && base.Slot == kb.elemSlot && !e.IsPtr && e.Index == nil {
			_, err := kb.field(e.Off, e.Field, BankOf(e.Type()))
			return err
		}
		return kb.scanFieldExpr(e.X)
	case *compile.Bin:
		if err := kb.scanFieldExpr(e.X); err != nil {
			return err
		}
		return kb.scanFieldExpr(e.Y)
	case *compile.Un:
		return kb.scanFieldExpr(e.X)
	case *compile.Call:
		for _, a := range e.Args {
			if err := kb.scanFieldExpr(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// field registers one element data field, allocating its slab on first
// touch. Offsets are unique across an element's data fields, so the
// offset alone keys the table.
func (kb *kbuilder) field(off int, name string, bank Bank) (int, error) {
	switch bank {
	case BankInt, BankReal, BankBool:
	case BankStr:
		return 0, rejectErr("string-valued expression")
	default:
		return 0, rejectErr("pointer-chasing access")
	}
	if i, ok := kb.fieldIdx[int32(off)]; ok {
		return int(i), nil
	}
	slab := kb.allocPerm(bank)
	kb.fieldIdx[int32(off)] = int32(len(kb.k.Fields))
	kb.k.Fields = append(kb.k.Fields, KField{Off: int32(off), Name: name, Bank: bank, Slab: slab})
	return len(kb.k.Fields) - 1, nil
}

// ---------------------------------------------------------------------------
// Statements

func (kb *kbuilder) stmts(stmts []compile.Stmt, m int32) error {
	for _, s := range stmts {
		if err := kb.stmt(s, m); err != nil {
			return err
		}
	}
	return nil
}

func (kb *kbuilder) stmt(s compile.Stmt, m int32) error {
	kb.resetTemps()
	// Every statement charges one step per active lane, mirroring the
	// scalar engines' per-statement OpStep (blocks charge one too, then
	// each child charges its own).
	kb.emit(KInstr{Op: KStep, M: m})
	kb.k.NSteps++
	switch s := s.(type) {
	case *compile.Block:
		return kb.stmts(s.Stmts, m)

	case *compile.VarSet:
		dst := kb.slotSlab[s.Slot]
		if s.Init == nil {
			switch kb.slotBank[s.Slot] {
			case BankInt:
				kb.emit(KInstr{Op: KConstInt, A: dst, M: m})
			case BankReal:
				kb.emit(KInstr{Op: KConstReal, A: dst, M: m})
			case BankBool:
				kb.emit(KInstr{Op: KConstBool, A: dst, M: m})
			}
			return nil
		}
		return kb.assign(dst, s.Type, s.Init, m)

	case *compile.AssignSlot:
		dst, _, err := kb.slabFor(s.Slot)
		if err != nil {
			return err
		}
		return kb.assign(dst, s.Type, s.RHS, m)

	case *compile.StoreField:
		return kb.store(s, m)

	case *compile.If:
		// Mask slabs are permanent and allocated before the condition's
		// temporaries, so they can never collide with a live temp.
		thenM := kb.allocPerm(BankBool)
		elseM := kNoMask
		if len(s.Else) > 0 {
			elseM = kb.allocPerm(BankBool)
		}
		cond, bank, err := kb.operand(s.Cond, m)
		if err != nil {
			return err
		}
		if bank != BankBool {
			return kNotStrip
		}
		kb.emit(KInstr{Op: KMaskAnd, A: thenM, B: m, C: cond, M: kNoMask})
		if elseM != kNoMask {
			kb.emit(KInstr{Op: KMaskAndNot, A: elseM, B: m, C: cond, M: kNoMask})
		}
		if err := kb.stmts(s.Then, thenM); err != nil {
			return err
		}
		if elseM != kNoMask {
			return kb.stmts(s.Else, elseM)
		}
		return nil

	case *compile.While:
		return rejectErr("body contains a loop")
	case *compile.For:
		return rejectErr("body contains a loop")
	case *compile.Return:
		return rejectErr("body returns")

	case *compile.CallStmt:
		e := s.Call
		switch e.Builtin {
		case compile.BuiltinPrint:
			return rejectErr("body prints")
		case compile.BuiltinRand:
			return rejectErr("body calls rand()")
		case compile.BuiltinSqrt, compile.BuiltinAbs:
			// Evaluated for effect only; the result is discarded.
			_, _, err := kb.operand(e, m)
			return err
		}
		return rejectErr(fmt.Sprintf("body calls function %s", e.Name))
	}
	return kNotStrip
}

func (kb *kbuilder) assign(dst int32, typ lang.Type, e compile.Expr, m int32) error {
	if isReal(typ) && !isReal(e.Type()) {
		return kb.evalIntoReal(e, dst, m)
	}
	return kb.evalInto(e, dst, m)
}

func (kb *kbuilder) store(s *compile.StoreField, m int32) error {
	if s.IsPtr {
		return rejectErr("pointer-chasing access")
	}
	if s.Index != nil {
		return rejectErr("indexed field access")
	}
	base, ok := s.Base.(*compile.SlotRef)
	if !ok || base.Slot != kb.elemSlot {
		return rejectErr("pointer-chasing access")
	}
	fi, err := kb.field(s.Off, s.Field, BankOf(s.Type))
	if err != nil {
		return err
	}
	return kb.assign(kb.k.Fields[fi].Slab, s.Type, s.RHS, m)
}

// ---------------------------------------------------------------------------
// Expressions

// slabFor resolves a variable slot to its slab, rejecting the slots a
// kernel cannot model as lane-local data.
func (kb *kbuilder) slabFor(slot int) (int32, Bank, error) {
	if slot == kb.peSlot {
		return 0, 0, rejectErr("uses the strip PE index")
	}
	if slot == kb.elemSlot {
		return 0, 0, rejectErr("pointer-chasing access")
	}
	if kb.slotSlab[slot] < 0 {
		switch kb.slotBank[slot] {
		case BankNode:
			return 0, 0, rejectErr("pointer-chasing access")
		case BankStr:
			return 0, 0, rejectErr("string-valued expression")
		}
		return 0, 0, kNotStrip
	}
	return kb.slotSlab[slot], kb.slotBank[slot], nil
}

// loadSlab resolves an element data-field load to the field's slab.
func (kb *kbuilder) loadSlab(e *compile.Load) (int32, Bank, error) {
	if e.IsPtr {
		return 0, 0, rejectErr("pointer-chasing access")
	}
	if e.Index != nil {
		return 0, 0, rejectErr("indexed field access")
	}
	base, ok := e.X.(*compile.SlotRef)
	if !ok || base.Slot != kb.elemSlot {
		return 0, 0, rejectErr("pointer-chasing access")
	}
	fi, err := kb.field(e.Off, e.Field, BankOf(e.Type()))
	if err != nil {
		return 0, 0, err
	}
	f := kb.k.Fields[fi]
	return f.Slab, f.Bank, nil
}

// operand yields a slab holding e's value: variables and element
// fields in place, everything else evaluated into a temporary.
func (kb *kbuilder) operand(e compile.Expr, m int32) (int32, Bank, error) {
	switch e := e.(type) {
	case *compile.SlotRef:
		return kb.slabFor(e.Slot)
	case *compile.Load:
		return kb.loadSlab(e)
	}
	bank := BankOf(e.Type())
	switch bank {
	case BankInt, BankReal, BankBool:
	case BankStr:
		return 0, 0, rejectErr("string-valued expression")
	default:
		return 0, 0, rejectErr("pointer-chasing access")
	}
	t := kb.temp(bank)
	if err := kb.evalInto(e, t, m); err != nil {
		return 0, 0, err
	}
	return t, bank, nil
}

// realOperand is operand for a real context: statically-int operands
// get the int→real widening here.
func (kb *kbuilder) realOperand(e compile.Expr, m int32) (int32, error) {
	if isReal(e.Type()) {
		sl, _, err := kb.operand(e, m)
		return sl, err
	}
	if lit, ok := e.(*compile.IntLit); ok {
		t := kb.temp(BankReal)
		kb.emit(KInstr{Op: KConstReal, A: t, Fv: float64(lit.Val), M: m})
		return t, nil
	}
	sl, _, err := kb.operand(e, m)
	if err != nil {
		return 0, err
	}
	t := kb.temp(BankReal)
	kb.emit(KInstr{Op: KIntToReal, A: t, B: sl, M: m})
	return t, nil
}

func (kb *kbuilder) evalIntoReal(e compile.Expr, dst int32, m int32) error {
	if isReal(e.Type()) {
		return kb.evalInto(e, dst, m)
	}
	if lit, ok := e.(*compile.IntLit); ok {
		kb.emit(KInstr{Op: KConstReal, A: dst, Fv: float64(lit.Val), M: m})
		return nil
	}
	sl, _, err := kb.operand(e, m)
	if err != nil {
		return err
	}
	kb.emit(KInstr{Op: KIntToReal, A: dst, B: sl, M: m})
	return nil
}

func kmov(bank Bank) KOp {
	switch bank {
	case BankInt:
		return KMovInt
	case BankReal:
		return KMovReal
	}
	return KMovBool
}

func (kb *kbuilder) evalInto(e compile.Expr, dst int32, m int32) error {
	switch e := e.(type) {
	case *compile.SlotRef:
		sl, bank, err := kb.slabFor(e.Slot)
		if err != nil {
			return err
		}
		kb.emit(KInstr{Op: kmov(bank), A: dst, B: sl, M: m})
		return nil
	case *compile.Load:
		sl, bank, err := kb.loadSlab(e)
		if err != nil {
			return err
		}
		kb.emit(KInstr{Op: kmov(bank), A: dst, B: sl, M: m})
		return nil

	case *compile.IntLit:
		kb.emit(KInstr{Op: KConstInt, A: dst, Imm: e.Val, M: m})
		return nil
	case *compile.RealLit:
		kb.emit(KInstr{Op: KConstReal, A: dst, Fv: e.Val, M: m})
		return nil
	case *compile.BoolLit:
		imm := int64(0)
		if e.Val {
			imm = 1
		}
		kb.emit(KInstr{Op: KConstBool, A: dst, Imm: imm, M: m})
		return nil
	case *compile.StrLit:
		return rejectErr("string-valued expression")
	case *compile.NullLit:
		return rejectErr("pointer-chasing access")
	case *compile.New:
		return rejectErr("allocates")

	case *compile.Call:
		switch e.Builtin {
		case compile.BuiltinSqrt:
			r, err := kb.realOperand(e.Args[0], m)
			if err != nil {
				return err
			}
			kb.emit(KInstr{Op: KSqrt, A: dst, B: r, M: m})
			return nil
		case compile.BuiltinAbs:
			r, err := kb.realOperand(e.Args[0], m)
			if err != nil {
				return err
			}
			kb.emit(KInstr{Op: KAbs, A: dst, B: r, M: m})
			return nil
		case compile.BuiltinRand:
			return rejectErr("body calls rand()")
		case compile.BuiltinPrint:
			return rejectErr("body prints")
		}
		return rejectErr(fmt.Sprintf("body calls function %s", e.Name))

	case *compile.Bin:
		return kb.bin(e, dst, m)

	case *compile.Un:
		switch e.Op {
		case lang.MINUS:
			if isReal(e.X.Type()) {
				r, err := kb.realOperand(e.X, m)
				if err != nil {
					return err
				}
				kb.emit(KInstr{Op: KNegReal, A: dst, B: r, M: m})
				return nil
			}
			sl, _, err := kb.operand(e.X, m)
			if err != nil {
				return err
			}
			kb.emit(KInstr{Op: KNegInt, A: dst, B: sl, M: m})
			return nil
		case lang.NOT:
			sl, _, err := kb.operand(e.X, m)
			if err != nil {
				return err
			}
			kb.emit(KInstr{Op: KNot, A: dst, B: sl, M: m})
			return nil
		}
		return kNotStrip
	}
	return kNotStrip
}

func (kb *kbuilder) bin(e *compile.Bin, dst int32, m int32) error {
	op := e.Op
	if op == lang.AND || op == lang.OR {
		rx, _, err := kb.operand(e.X, m)
		if err != nil {
			return err
		}
		ry, _, err := kb.operand(e.Y, m)
		if err != nil {
			return err
		}
		kop := KAndBool
		if op == lang.OR {
			kop = KOrBool
		}
		kb.emit(KInstr{Op: kop, A: dst, B: rx, C: ry, M: m})
		return nil
	}

	xt, yt := e.X.Type(), e.Y.Type()
	switch {
	case isStr(xt) || isStr(yt):
		return rejectErr("string-valued expression")
	case isPtr(xt) || isPtr(yt):
		return rejectErr("pointer-chasing access")
	case isReal(xt) || isReal(yt):
		return kb.realBin(e, dst, m)
	case isBool(xt) && isBool(yt):
		rx, _, err := kb.operand(e.X, m)
		if err != nil {
			return err
		}
		ry, _, err := kb.operand(e.Y, m)
		if err != nil {
			return err
		}
		kop := KEqBool
		if op == lang.NEQ {
			kop = KNeBool
		} else if op != lang.EQ {
			return kNotStrip
		}
		kb.emit(KInstr{Op: kop, A: dst, B: rx, C: ry, M: m})
		return nil
	default:
		return kb.intBin(e, dst, m)
	}
}

func (kb *kbuilder) realBin(e *compile.Bin, dst int32, m int32) error {
	rx, err := kb.realOperand(e.X, m)
	if err != nil {
		return err
	}
	ry, err := kb.realOperand(e.Y, m)
	if err != nil {
		return err
	}
	var op KOp
	switch e.Op {
	case lang.PLUS:
		op = KAddReal
	case lang.MINUS:
		op = KSubReal
	case lang.STAR:
		op = KMulReal
	case lang.SLASH:
		op = KDivReal
	case lang.EQ:
		op = KEqReal
	case lang.NEQ:
		op = KNeReal
	case lang.LT:
		op = KLtReal
	case lang.LE:
		op = KLeReal
	case lang.GT:
		op = KGtReal
	case lang.GE:
		op = KGeReal
	default:
		return kNotStrip
	}
	kb.emit(KInstr{Op: op, A: dst, B: rx, C: ry, M: m})
	return nil
}

func (kb *kbuilder) intBin(e *compile.Bin, dst int32, m int32) error {
	rx, _, err := kb.operand(e.X, m)
	if err != nil {
		return err
	}
	ry, _, err := kb.operand(e.Y, m)
	if err != nil {
		return err
	}
	var op KOp
	switch e.Op {
	case lang.PLUS:
		op = KAddInt
	case lang.MINUS:
		op = KSubInt
	case lang.STAR:
		op = KMulInt
	case lang.SLASH:
		op = KDivInt
	case lang.PERCENT:
		op = KModInt
	case lang.EQ:
		op = KEqInt
	case lang.NEQ:
		op = KNeInt
	case lang.LT:
		op = KLtInt
	case lang.LE:
		op = KLeInt
	case lang.GT:
		op = KGtInt
	case lang.GE:
		op = KGeInt
	default:
		return kNotStrip
	}
	kb.emit(KInstr{Op: op, A: dst, B: rx, C: ry, M: m})
	return nil
}
