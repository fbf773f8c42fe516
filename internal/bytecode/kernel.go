// kernel.go — strips and their vector kernels: the compile-time half of
// the bytecode VM's vector path (the kernel engine).
//
// When a forall has the exact shape transform.StripMine emits — one
// helper call per lane, the helper skipping k links along one pointer
// field and guarding the body on NULL — matchStrip records a Strip on
// the site, whether or not its body vectorizes. Once the helper is
// lowered, classify reads the helper's own bytecode from the guard's
// fall-through to the end. When every instruction there can run
// elementwise over the strip's lanes — arithmetic over the element's
// own data fields and the helper's scalar parameters, conditionals
// allowed, no calls, allocation, loops or pointer-chasing — it attaches
// a Kernel: that code renamed onto struct-of-arrays slabs, each
// instruction governed by an execution mask. A rejected strip carries a
// concrete VectorReason instead, which transform's planner surfaces per
// loop. The run-time half (gather, masked compute, scatter, the
// transactional fallback) lives in internal/interp's kernel.go.
//
// Renaming. Register r of a bank is slab r of that bank, and each
// element field the body touches gets a slab after the registers. A read
// whose register was last written, in pc order, under the read's own
// mask sees that write's value in every lane; a register some read of
// which sees otherwise is never renamed. (Masks are only ever compared
// for equality: the masks of two ifs in a row overlap.) A load all of
// whose reads are of the first kind, none after a store of its field,
// goes, and its readers read the field's slab. A store whose source the
// previous instruction of its statement computes under the same mask,
// for the store alone, makes that instruction write the field's slab.
// Every other load and store becomes a move. Each pass is linear in the
// body.
//
// Masks. Mask 0 holds the lanes that have an element. Every branch —
// they all jump forward — splits its governing mask into the lanes that
// fall through and the lanes that take it, and where flows join, the
// halves of a split merge back into the mask they came from. So each
// lane executes exactly the instructions its scalar run executes, in
// the same order: an operand of && or || only where the scalar engines
// evaluate it, an integer division only where they divide.
//
// Accounting parity: the strip prologue (the helper call, the skip
// loop, the NULL guard) costs lane k 3+2k steps, charged in closed form
// by the runner, and each step of the body is charged once per lane of
// its mask, so per-strip step totals are bit-identical to the scalar
// engines'.
package bytecode

import "repro/internal/lang"

// KField is one element field the kernel touches, gathered into (and,
// when Stored, scattered back from) a slab. Every touched field is
// gathered — including store-only fields — so the scatter can write
// all root-active lanes unconditionally: lanes a branch masked off
// write back the value they were gathered with.
type KField struct {
	Off    int32  // offset within the element's data fields
	Name   string // field name (disassembly)
	Bank   Bank   // BankInt, BankReal, or BankBool
	Slab   int32  // slab index within the bank
	Stored bool   // written by the body: scattered at the barrier
}

// Strip is a forall in the exact shape transform.StripMine emits: the
// body is one call helper(_pe, elem, frees...), none of the frees _pe
// itself, of a procedure whose body is the skip loop
// `for _k = 1 to _pe { elem = elem->adv }` followed by the NULL guard
// `if elem != NULL {...}`. Lane k's element is
// advance^k of the caller's elem, so the VM walks the chain once per
// strip and starts every lane at the guard, on the scalar path and the
// vector path alike, instead of running the lanes' skip loops.
type Strip struct {
	// HelperIdx is the helper's function index; CallSite indexes the
	// enclosing Func.Calls entry of the per-lane helper call, whose Args
	// are the caller registers a lane binds (Args[1] the chain-start
	// element pointer).
	HelperIdx int32
	CallSite  int32
	// AdvanceOff is the pointer-field offset the skip loop advances
	// along; AdvanceName names it for the disassembly.
	AdvanceOff  int32
	AdvanceName string
	// GuardPC is the helper's first pc past the skip loop: the NULL
	// guard's statement step, where a lane whose element is known starts.
	GuardPC int32
	// ArgsInRegs reports that the forall body's code is the call's
	// statement step and the call itself: every argument already sits in
	// a caller register, so a lane binds the helper's parameters without
	// running the body. Both strip paths require it.
	ArgsInRegs bool
}

// Kernel is one vectorizable strip's guarded body renamed onto slabs,
// attached to its ForallSite beside the Strip it builds on.
type Kernel struct {
	Fields []KField
	// Slab counts per bank: the helper's registers, then the fields.
	NInt, NReal, NBool int
	// Code is the helper's guarded body, renamed (see the file comment).
	// A branch's C is the mask its fall-through lanes get, C+1 the mask
	// of the lanes that take it; Masks[pc] is the mask governing Code[pc].
	// NMasks counts the masks; mask 0 holds the lanes with an element.
	Code   []Instr
	Masks  []int32
	NMasks int
	// NSteps counts the steps in Code, the most a lane takes past its
	// guard; the disassembly reports it.
	NSteps int32
}

// Vectorization verdicts: a strip's VectorReason is one of these, or
// names the function its body calls.
const (
	reasonNotStrip  = "loop body is not a strip-mined iteration pattern"
	reasonArgNotReg = "strip call argument is not in a caller register"
	reasonLoop      = "body contains a loop"
	reasonReturns   = "body returns"
	reasonPrints    = "body prints"
	reasonRand      = "body calls rand()"
	reasonAllocates = "allocates"
	reasonPointer   = "pointer-chasing access"
	reasonPE        = "uses the strip PE index"
)

// matchStrip recognizes the strip shape on a forall whose body has just
// been lowered (nCalls is len(f.Calls) before the body, bodyLen the
// number of instructions it lowered to), reading the callee's
// declaration. It returns nil when the loop is not a strip. Compile
// fills in the Strip's GuardPC once the helper is lowered.
func (b *builder) matchStrip(s *lang.ForStmt, nCalls int, bodyLen int32) *Strip {
	// The forall body is exactly one call helper(_pe, elem, frees...) of
	// a procedure ...
	if len(s.Body.Stmts) != 1 {
		return nil
	}
	cs, ok := s.Body.Stmts[0].(*lang.CallStmt)
	if !ok {
		return nil
	}
	call := cs.Call
	if lang.Builtins[call.Func] != nil || len(call.Args) < 2 || len(b.f.Calls) != nCalls+1 {
		return nil
	}
	pe, ok := call.Args[0].(*lang.Ident)
	if !ok || pe.Slot != s.Slot {
		return nil
	}
	ind, ok := call.Args[1].(*lang.Ident)
	if !ok || !isPtr(ind.Type()) {
		return nil
	}
	// Only the first argument may be the lane index: a lane binds the
	// others from the caller's registers, and the caller never holds
	// the index in the loop variable's.
	for _, a := range call.Args[2:] {
		if a, ok := a.(*lang.Ident); ok && a.Slot == s.Slot {
			return nil
		}
	}
	helperIdx := b.f.Calls[nCalls].FuncIdx
	callee := b.cp.Funcs[helperIdx]
	if callee.Result != nil || len(callee.Params) != len(call.Args) || len(callee.Body.Stmts) != 2 {
		return nil
	}
	// Parameters hold the first slots.
	const peSlot, elemSlot = 0, 1

	// ... whose body is the skip loop `for _k = 1 to _pe { elem =
	// elem->adv }` followed by the NULL guard `if elem != NULL {...}`.
	skip, ok := callee.Body.Stmts[0].(*lang.ForStmt)
	if !ok || skip.Parallel || len(skip.Body.Stmts) != 1 {
		return nil
	}
	fromLit, ok := skip.From.(*lang.IntLit)
	if !ok || fromLit.Val != 1 {
		return nil
	}
	toRef, ok := skip.To.(*lang.Ident)
	if !ok || toRef.Slot != peSlot {
		return nil
	}
	adv, ok := skip.Body.Stmts[0].(*lang.AssignStmt)
	if !ok {
		return nil
	}
	if lhs, ok := adv.LHS.(*lang.Ident); !ok || lhs.Slot != elemSlot {
		return nil
	}
	advLoad, ok := adv.RHS.(*lang.FieldExpr)
	if !ok || advLoad.Index != nil {
		return nil
	}
	if b.field(advLoad) != nil || !isPtr(advLoad.Type()) {
		return nil
	}
	advBase, ok := advLoad.X.(*lang.Ident)
	if !ok || advBase.Slot != elemSlot {
		return nil
	}
	guard, ok := callee.Body.Stmts[1].(*lang.IfStmt)
	if !ok || guard.Else != nil && len(guard.Else.Stmts) != 0 {
		return nil
	}
	cond, ok := guard.Cond.(*lang.BinExpr)
	if !ok || cond.Op != lang.NEQ {
		return nil
	}
	condX, ok := cond.X.(*lang.Ident)
	if !ok || condX.Slot != elemSlot {
		return nil
	}
	if _, ok := cond.Y.(*lang.NullLit); !ok {
		return nil
	}
	return &Strip{
		HelperIdx:   helperIdx,
		CallSite:    int32(nCalls),
		AdvanceOff:  advLoad.Off,
		AdvanceName: advLoad.Field,
		ArgsInRegs:  bodyLen == 2,
	}
}

// skipLoopEnd is a lowered strip helper's first pc past its skip loop.
// The skip loop is the helper's first statement and holds no other
// loop, so it ends with the function's first for.tail.
func skipLoopEnd(helper *Func) int32 {
	for pc, in := range helper.Code {
		if in.Op == OpForTail {
			return int32(pc) + 1
		}
	}
	return 0
}

// operand is one register operand of an instruction: the bank it names
// and whether the instruction writes it. The zero value is no register.
type operand struct {
	bank  Bank
	write bool
}

func rd(b Bank) operand { return operand{bank: b} }
func wr(b Bank) operand { return operand{bank: b, write: true} }

// opRegs gives each opcode's register operands in A, B and C. Calls and
// prints name theirs in their site tables.
var opRegs = [opCount][3]operand{
	OpConstInt: {wr(BankInt)}, OpConstReal: {wr(BankReal)}, OpConstBool: {wr(BankBool)}, OpConstNull: {wr(BankNode)},
	OpMovInt: {wr(BankInt), rd(BankInt)}, OpMovReal: {wr(BankReal), rd(BankReal)},
	OpMovBool: {wr(BankBool), rd(BankBool)}, OpMovNode: {wr(BankNode), rd(BankNode)},
	OpIntToReal: {wr(BankReal), rd(BankInt)},

	OpBr: {rd(BankBool)}, OpScAnd: {rd(BankBool)}, OpScOr: {rd(BankBool)},
	OpForHead: {rd(BankInt), rd(BankInt), wr(BankInt)}, OpForTail: {wr(BankInt)},
	OpReturnInt: {rd(BankInt)}, OpReturnReal: {rd(BankReal)}, OpReturnBool: {rd(BankBool)}, OpReturnNode: {rd(BankNode)},

	OpBrfEqInt: {rd(BankInt), rd(BankInt)}, OpBrfNeInt: {rd(BankInt), rd(BankInt)},
	OpBrfLtInt: {rd(BankInt), rd(BankInt)}, OpBrfLeInt: {rd(BankInt), rd(BankInt)},
	OpBrfGtInt: {rd(BankInt), rd(BankInt)}, OpBrfGeInt: {rd(BankInt), rd(BankInt)},
	OpBrfEqReal: {rd(BankReal), rd(BankReal)}, OpBrfNeReal: {rd(BankReal), rd(BankReal)},
	OpBrfLtReal: {rd(BankReal), rd(BankReal)}, OpBrfLeReal: {rd(BankReal), rd(BankReal)},
	OpBrfGtReal: {rd(BankReal), rd(BankReal)}, OpBrfGeReal: {rd(BankReal), rd(BankReal)},
	OpBrfEqNode: {rd(BankNode), rd(BankNode)}, OpBrfNeNode: {rd(BankNode), rd(BankNode)},
	OpBrfNull: {rd(BankNode)}, OpBrfNonNull: {rd(BankNode)},

	OpAddInt: {wr(BankInt), rd(BankInt), rd(BankInt)}, OpSubInt: {wr(BankInt), rd(BankInt), rd(BankInt)},
	OpMulInt: {wr(BankInt), rd(BankInt), rd(BankInt)}, OpDivInt: {wr(BankInt), rd(BankInt), rd(BankInt)},
	OpModInt: {wr(BankInt), rd(BankInt), rd(BankInt)}, OpNegInt: {wr(BankInt), rd(BankInt)},
	OpEqInt: {wr(BankBool), rd(BankInt), rd(BankInt)}, OpNeInt: {wr(BankBool), rd(BankInt), rd(BankInt)},
	OpLtInt: {wr(BankBool), rd(BankInt), rd(BankInt)}, OpLeInt: {wr(BankBool), rd(BankInt), rd(BankInt)},
	OpGtInt: {wr(BankBool), rd(BankInt), rd(BankInt)}, OpGeInt: {wr(BankBool), rd(BankInt), rd(BankInt)},

	OpAddReal: {wr(BankReal), rd(BankReal), rd(BankReal)}, OpSubReal: {wr(BankReal), rd(BankReal), rd(BankReal)},
	OpMulReal: {wr(BankReal), rd(BankReal), rd(BankReal)}, OpDivReal: {wr(BankReal), rd(BankReal), rd(BankReal)},
	OpNegReal: {wr(BankReal), rd(BankReal)},
	OpEqReal:  {wr(BankBool), rd(BankReal), rd(BankReal)}, OpNeReal: {wr(BankBool), rd(BankReal), rd(BankReal)},
	OpLtReal: {wr(BankBool), rd(BankReal), rd(BankReal)}, OpLeReal: {wr(BankBool), rd(BankReal), rd(BankReal)},
	OpGtReal: {wr(BankBool), rd(BankReal), rd(BankReal)}, OpGeReal: {wr(BankBool), rd(BankReal), rd(BankReal)},

	OpNot:    {wr(BankBool), rd(BankBool)},
	OpEqBool: {wr(BankBool), rd(BankBool), rd(BankBool)}, OpNeBool: {wr(BankBool), rd(BankBool), rd(BankBool)},
	OpEqNode: {wr(BankBool), rd(BankNode), rd(BankNode)}, OpNeNode: {wr(BankBool), rd(BankNode), rd(BankNode)},

	OpNew:     {wr(BankNode)},
	OpLoadInt: {wr(BankInt), rd(BankNode)}, OpLoadReal: {wr(BankReal), rd(BankNode)},
	OpLoadBool: {wr(BankBool), rd(BankNode)}, OpLoadNode: {wr(BankNode), rd(BankNode)},
	OpLoadNodeIdxBegin: {wr(BankNode), rd(BankNode)}, OpLoadNodeIdx: {wr(BankNode), rd(BankNode), rd(BankInt)},
	OpStoreInt: {rd(BankNode), rd(BankInt)}, OpStoreReal: {rd(BankNode), rd(BankReal)},
	OpStoreBool: {rd(BankNode), rd(BankBool)}, OpStoreNode: {rd(BankNode), rd(BankNode)},
	OpStoreNodeIdxBegin: {rd(BankNode)}, OpStoreNodeIdx: {rd(BankNode), rd(BankNode), rd(BankInt)},

	OpSqrt: {wr(BankReal), rd(BankReal)}, OpAbs: {wr(BankReal), rd(BankReal)}, OpRand: {wr(BankReal)},
}

// reg is operand k (0, 1, 2: A, B, C) of in.
func reg(in *Instr, k int) *int32 {
	switch k {
	case 0:
		return &in.A
	case 1:
		return &in.B
	}
	return &in.C
}

func isCondBranch(op Op) bool {
	return op == OpBr || op == OpScAnd || op == OpScOr || op >= OpBrfEqInt && op <= OpBrfNonNull
}

func isFieldLoad(op Op) bool  { return op == OpLoadInt || op == OpLoadReal || op == OpLoadBool }
func isFieldStore(op Op) bool { return op == OpStoreInt || op == OpStoreReal || op == OpStoreBool }

// classify builds the kernel of the strip at site s, or returns why it
// does not vectorize: first a lane that cannot bind its parameters from
// the caller's registers, then the reason of the guarded body's first
// offending instruction in pc order (vecReason), then a body whose
// branches do not nest.
func (p *Program) classify(s *ForallSite) (*Kernel, string) {
	st := s.Strip
	if !st.ArgsInRegs {
		return nil, reasonArgNotReg
	}
	h := p.Funcs[st.HelperIdx]
	start := st.GuardPC + 2 // past the guard's step and brf.nonnull
	if reason := p.vecReason(h, start); reason != "" {
		return nil, reason
	}
	return newKernel(h, start)
}

// vecReason returns why the guarded body h.Code[start:] cannot run over
// slabs, or "" when it can: the reason of its first instruction, in pc
// order, that offends. A loop, a return, a print, a call, rand() and
// allocation offend; so does any pointer use but loading or storing the
// element's own data fields, and any read or write of the lane index.
// A while loop offends at its head, the smallest target of a backward
// jump, so that its condition's offences are the loop's.
func (p *Program) vecReason(h *Func, start int32) string {
	code := h.Code[start:]
	pe, elem := h.Params[0].Reg, h.Params[1].Reg
	head := int32(len(code))
	for pc, in := range code {
		if to := int32(in.Imm) - start; in.Op == OpJump && to <= int32(pc) {
			head = min(head, to)
		}
	}
	for pc, in := range code {
		if int32(pc) == head {
			return reasonLoop
		}
		switch in.Op {
		case OpForHead, OpForTail, OpForall:
			return reasonLoop
		case OpReturnVoid, OpReturnInt, OpReturnReal, OpReturnBool, OpReturnNode:
			return reasonReturns
		case OpPrint:
			return reasonPrints
		case OpCall:
			return "body calls function " + p.Funcs[h.Calls[in.A].FuncIdx].Name
		case OpRand:
			return reasonRand
		case OpNew:
			return reasonAllocates
		case OpConstNull, OpMovNode, OpLoadNode, OpLoadNodeIdxBegin, OpLoadNodeIdx,
			OpStoreNode, OpStoreNodeIdxBegin, OpStoreNodeIdx,
			OpEqNode, OpNeNode, OpBrfEqNode, OpBrfNeNode, OpBrfNull, OpBrfNonNull:
			return reasonPointer
		case OpLoadInt, OpLoadReal, OpLoadBool:
			if in.B != elem.Idx {
				return reasonPointer
			}
		case OpStoreInt, OpStoreReal, OpStoreBool:
			if in.A != elem.Idx {
				return reasonPointer
			}
		}
		for k, o := range opRegs[in.Op] {
			if o.bank == pe.Bank && *reg(&in, k) == pe.Idx {
				return reasonPE
			}
		}
	}
	return ""
}

// kpc is what renaming learns of one instruction of a guarded body.
type kpc struct {
	mask  int32 // the governing mask
	split int32 // a branch's fall-through mask; its taken mask is split+1
	// into heads the branches that jump to this pc and next links them
	// (body-relative pcs + 1; 0 ends the list).
	into, next int32
	field      int32    // a load's or store's index in Kernel.Fields
	def        [3]int32 // per register operand read: the write it reads, or -1
	readers    int32    // the reads of this instruction's value
	fold       int32    // the field slab a folded store makes it write, or -1
	newPC      int32    // its pc in the kernel
	drop       bool     // renamed away
	stale      bool     // a load some read of which follows a store of its field
}

// newKernel renames the guarded body h.Code[start:], which vecReason
// accepted, onto slabs and masks.
func newKernel(h *Func, start int32) (*Kernel, string) {
	code := h.Code[start:]
	info := make([]kpc, len(code)+1) // info[len(code)]: the body's end
	nMasks, ok := bodyMasks(code, start, info)
	if !ok {
		return nil, reasonNotStrip
	}
	k := &Kernel{NInt: h.NInt, NReal: h.NReal, NBool: h.NBool, NMasks: nMasks}

	// Field slabs, in order of first touch.
	top := [BankBool + 1]*int{BankInt: &k.NInt, BankReal: &k.NReal, BankBool: &k.NBool}
	fieldAt := map[int32]int32{} // field offset → index in k.Fields
	for i, in := range code {
		if !isFieldLoad(in.Op) && !isFieldStore(in.Op) {
			continue
		}
		fi, ok := fieldAt[in.C]
		if !ok {
			bank := fieldBank(in.Op)
			fi = int32(len(k.Fields))
			fieldAt[in.C] = fi
			k.Fields = append(k.Fields, KField{Off: in.C, Name: h.Names[in.Imm], Bank: bank, Slab: int32(*top[bank])})
			*top[bank]++
		}
		info[i].field = fi
		if isFieldStore(in.Op) {
			k.Fields[fi].Stored = true
		}
	}

	// Which write each read reads: the last write of its register before
	// it, when that write runs under the read's own mask — then the read
	// sees that write's value in every lane. A register some read of which
	// reads otherwise is mixed: in some lane it may hold a value written
	// under another mask, and no write to it is renamed. last holds, per
	// register, the last write to it (and whether it is mixed), then per
	// field the last store to it.
	type slot struct {
		w     int32
		mixed bool
	}
	var base [BankBool + 2]int
	for bk, size := range [...]int{BankInt: h.NInt, BankReal: h.NReal, BankBool: h.NBool} {
		base[bk+1] = base[bk] + size
	}
	last := make([]slot, base[BankBool+1]+len(k.Fields))
	for i := range last {
		last[i].w = -1
	}
	regOf := func(o operand, r int32) *slot { return &last[base[o.bank]+int(r)] }
	lastStore := last[base[BankBool+1]:]
	for i := range code {
		in, p := &code[i], &info[i]
		p.def, p.fold = [3]int32{-1, -1, -1}, -1
		for j, o := range opRegs[in.Op] {
			if o.write || o.bank < BankInt || o.bank > BankBool {
				continue
			}
			r := regOf(o, *reg(in, j))
			if r.w < 0 || info[r.w].mask != p.mask {
				r.mixed = true
				continue
			}
			p.def[j] = r.w
			info[r.w].readers++
			if isFieldLoad(code[r.w].Op) && lastStore[info[r.w].field].w > r.w {
				info[r.w].stale = true
			}
		}
		if o := opRegs[in.Op][0]; o.write && o.bank >= BankInt && o.bank <= BankBool {
			regOf(o, in.A).w = int32(i)
		}
		if isFieldStore(in.Op) {
			lastStore[p.field].w = int32(i)
		}
	}
	pure := func(i int) bool { // i's value is read only where def says
		return !regOf(opRegs[code[i].Op][0], code[i].A).mixed
	}

	// Loads that go: their readers read the field's slab, which no store
	// has changed since. Stores folded into the instruction before them:
	// same statement, same mask, and that instruction's value read by the
	// store alone, which it then writes to the field's slab.
	kept := len(code)
	for i, in := range code {
		if isFieldLoad(in.Op) && pure(i) && !info[i].stale {
			info[i].drop = true
			kept--
		}
	}
	for i := 1; i < len(code); i++ {
		if p := i - 1; isFieldStore(code[i].Op) && code[p].Op != OpStep && !info[p].drop &&
			info[i].def[1] == int32(p) && pure(p) && info[p].readers == 1 {
			info[p].fold = k.Fields[info[i].field].Slab
			info[i].drop = true
			kept--
		}
	}

	// The renamed code: loads and stores left become moves.
	k.Code, k.Masks = make([]Instr, 0, kept), make([]int32, 0, kept)
	for i, in := range code {
		p := &info[i]
		p.newPC = int32(len(k.Code))
		if p.drop {
			continue
		}
		for j, w := range p.def {
			if w >= 0 && info[w].drop {
				*reg(&in, j) = k.Fields[info[w].field].Slab
			}
		}
		switch {
		case isFieldLoad(in.Op):
			in = Instr{Op: movOps[fieldBank(in.Op)], A: in.A, B: k.Fields[p.field].Slab}
		case isFieldStore(in.Op):
			in = Instr{Op: movOps[fieldBank(in.Op)], A: k.Fields[p.field].Slab, B: in.B}
		case isCondBranch(in.Op):
			in.C = p.split
		case in.Op == OpStep:
			k.NSteps++
		}
		if p.fold >= 0 {
			in.A = p.fold
		}
		k.Code = append(k.Code, in)
		k.Masks = append(k.Masks, p.mask)
	}
	info[len(code)].newPC = int32(len(k.Code))
	for i, in := range k.Code {
		if isCondBranch(in.Op) || in.Op == OpJump {
			k.Code[i].Imm = int64(info[int32(in.Imm)-start].newPC)
		}
	}
	return k, ""
}

// bodyMasks sets each instruction's governing mask, and each branch's
// split, in info, in one pass over a guarded body that starts at pc
// start: the code only branches forward. Mask 0 holds every lane with an
// element; a split of mask m makes masks ft and ft+1 (ft odd), the lanes
// that fall through and the lanes that take the branch. Where flows
// join, the two halves of one split merge back into the mask they came
// from, as buddies do in a buddy allocator; a join left with more than
// one mask is not a structured flow, and ok is false.
func bodyMasks(code []Instr, start int32, info []kpc) (nMasks int, ok bool) {
	branches := 0
	for _, in := range code {
		if isCondBranch(in.Op) {
			branches++
		}
	}
	// parent[m] is the mask m was split from; here[m] is i+1 while mask
	// m is among the masks joining at i.
	buf := make([]int32, 2*(2*branches+1))
	parent, here := buf[:1:2*branches+1], buf[2*branches+1:]
	parent[0] = -1
	var joinedBuf [8]int32
	cur, reached := int32(0), true // the flow falling through into i
	for i, in := range code {
		if info[i].into != 0 {
			stamp, count, joined := int32(i+1), 0, joinedBuf[:0]
			put := func(m int32) {
				for m > 0 {
					buddy := m + 1
					if m%2 == 0 {
						buddy = m - 1
					}
					if here[buddy] != stamp {
						break
					}
					here[buddy] = 0
					count--
					m = parent[m]
				}
				if here[m] != stamp {
					here[m] = stamp
					count++
					joined = append(joined, m)
				}
			}
			if reached {
				put(cur)
			}
			for f := info[i].into; f != 0; f = info[f-1].next {
				if from := &info[f-1]; code[f-1].Op == OpJump {
					put(from.mask)
				} else {
					put(from.split + 1)
				}
			}
			if count != 1 {
				return 0, false
			}
			for _, m := range joined {
				if here[m] == stamp {
					cur = m
				}
			}
		} else if !reached {
			return 0, false
		}
		info[i].mask, reached = cur, true
		if !isCondBranch(in.Op) && in.Op != OpJump {
			continue
		}
		to := int(in.Imm) - int(start)
		if to <= i || to > len(code) {
			return 0, false
		}
		if in.Op == OpJump {
			reached = false
		} else {
			info[i].split = int32(len(parent))
			parent = append(parent, cur, cur)
			cur = info[i].split
		}
		info[i].next, info[to].into = info[to].into, int32(i+1)
	}
	return len(parent), true
}

// fieldBank is the bank of the field a load or store moves.
func fieldBank(op Op) Bank {
	if isFieldStore(op) {
		return opRegs[op][1].bank
	}
	return opRegs[op][0].bank
}
