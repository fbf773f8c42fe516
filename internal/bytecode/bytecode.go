// Package bytecode lowers the slot-resolved IR of internal/compile
// into a flat instruction array executed by internal/interp's
// switch-loop VM — the production engine, checked against the
// tree-walking oracle.
//
// Where the walker pays an interface type switch per AST node and
// boxes every intermediate in a Kind-tagged Value, the bytecode form
// is a []Instr per function plus *typed
// register banks*: every variable slot and expression temporary lives
// in a per-function []int64, []float64, []bool, []string, or []*Node
// bank chosen from its static type (sound because the interpreter's
// coercion rule keeps runtime kinds equal to static types). Hot
// arithmetic therefore runs as direct slice indexing over unboxed
// machine words — no closure dispatch, no Value construction, no
// interface traffic. The register-file layout follows the
// Vars{Ints, Floats, ...} shape of the interpreter literature (see
// SNIPPETS.md's rpyth exemplar).
//
// The code carries no cost model: the simulated machine's cycle
// accounting lives in the walker alone, and what the lowering owes the
// walker is the order of its checks — null, budget, bounds — so that a
// failing run reports the same error at the same position.
//
// A Program is immutable once Compile returns, like the compile IR it
// is built from: one Program is shared without locks by every
// interpreter and worker fork executing it.
package bytecode

import (
	"fmt"

	"repro/internal/adds"
	"repro/internal/compile"
	"repro/internal/lang"
)

// Bank identifies a typed register bank within a function frame.
type Bank uint8

// Register banks. BankNone marks an absent register (a discarded call
// result).
const (
	BankNone Bank = iota
	BankInt       // []int64
	BankReal      // []float64
	BankBool      // []bool
	BankStr       // []string
	BankNode      // []*interp Node
)

// String names the bank's register prefix in disassembly ("i", "f",
// "b", "s", "n").
func (b Bank) String() string {
	switch b {
	case BankInt:
		return "i"
	case BankReal:
		return "f"
	case BankBool:
		return "b"
	case BankStr:
		return "s"
	case BankNode:
		return "n"
	}
	return "_"
}

// Reg addresses one register: a bank and an index within it.
type Reg struct {
	Bank Bank
	Idx  int32
}

// Op is a VM opcode.
type Op uint8

// Opcodes.
const (
	opInvalid Op = iota

	// Constants and moves.
	OpConstInt  // I[A] = Imm
	OpConstReal // F[A] = Fv
	OpConstBool // B[A] = (Imm != 0)
	OpConstStr  // S[A] = Strs[B]
	OpConstNull // N[A] = nil
	OpMovInt    // I[A] = I[B]
	OpMovReal   // F[A] = F[B]
	OpMovBool   // B[A] = B[B]
	OpMovStr    // S[A] = S[B]
	OpMovNode   // N[A] = N[B]
	OpIntToReal // F[A] = float64(I[B]) (static int→real coercion)

	// Control flow.
	OpStep    // one statement against the MaxSteps/ctx guard
	OpJump    // pc = Imm
	OpBr      // if !B[A] pc = Imm
	OpScAnd   // if !B[A] pc = Imm (short-circuit AND)
	OpScOr    // if B[A] pc = Imm (short-circuit OR)
	OpForHead // if I[A] > I[B] pc = Imm else I[C] = I[A]
	OpForTail // step; I[A]++; pc = Imm
	OpForall  // run Foralls[A]; pc = site.BodyEnd
	OpCall    // invoke Calls[A] (depth guard applies)
	OpPrint   // print Prints[A] (output budget applies)
	OpReturnVoid
	OpReturnInt  // ret = I[A]
	OpReturnReal // ret = F[A]
	OpReturnBool // ret = B[A]
	OpReturnStr  // ret = S[A]
	OpReturnNode // ret = N[A]

	// Integer ALU.
	OpAddInt // I[A] = I[B] + I[C]
	OpSubInt
	OpMulInt
	OpDivInt // error on I[C] == 0
	OpModInt // error on I[C] == 0
	OpNegInt // I[A] = -I[B]
	OpEqInt  // B[A] = I[B] == I[C]
	OpNeInt
	OpLtInt
	OpLeInt
	OpGtInt
	OpGeInt

	// Real ALU.
	OpAddReal // F[A] = F[B] + F[C]
	OpSubReal
	OpMulReal
	OpDivReal // IEEE semantics, no zero check
	OpNegReal
	OpEqReal // B[A] = F[B] == F[C]
	OpNeReal
	OpLtReal
	OpLeReal
	OpGtReal
	OpGeReal

	// Bool / string / pointer ops.
	OpNot    // B[A] = !B[B]
	OpEqBool // B[A] = B[B] == B[C]
	OpNeBool
	OpEqStr // B[A] = S[B] == S[C]
	OpNeStr
	OpEqNode // B[A] = N[B] == N[C]
	OpNeNode

	// Heap.
	OpNew      // N[A] = allocNode(News[B]) (budget check)
	OpLoadInt  // null check; I[A] = N[B].vals[C].I
	OpLoadReal // ... .F
	OpLoadBool // ... .B
	// OpLoadNode reads pointer field C (index 0) of N[B] into N[A]:
	// a NULL base yields NULL (speculative traversability, §3.2) unless
	// StrictNull.
	OpLoadNode
	// OpLoadNodeIdxBegin starts an indexed pointer load: on NULL base,
	// N[A] = nil and pc = Imm (skipping the index expression, which a
	// NULL base must not evaluate); otherwise fall through to the index
	// code ending in OpLoadNodeIdx.
	OpLoadNodeIdxBegin // A=dst, B=base, C=name, Imm=join pc
	OpLoadNodeIdx      // N[A] = N[B].parr[off][I[C]], Imm=off<<32|name
	OpStoreInt         // null check; N[A].vals[C] = I[B]
	OpStoreReal
	OpStoreBool
	OpStoreNode // N[A].parr[C][0] = N[B], Imm=name (shape checks apply)
	// OpStoreNodeIdxBegin: null check before the index expression
	// evaluates (matching the walker's order); the store completes in
	// OpStoreNodeIdx.
	OpStoreNodeIdxBegin // A=base
	OpStoreNodeIdx      // N[A].parr[off][I[C]] = N[B], Imm=off<<32|name

	// Builtins.
	OpSqrt // F[A] = sqrt(F[B])
	OpAbs  // F[A] = abs(F[B])
	OpRand // F[A] = rand()

	opCount
)

// Instr is one VM instruction. Operand meaning is per-opcode (see the
// Op constants).
type Instr struct {
	Op      Op
	A, B, C int32
	Imm     int64
	Fv      float64
}

// Param is one resolved parameter: bound into its home register at
// call time, after the interpreter's coercion rule.
type Param struct {
	Name string
	Type lang.Type
	Reg  Reg
}

// CallSite is one pre-resolved user-function call: argument source
// registers in the caller (already coerced to the parameter's bank by
// emitted conversions) and the caller register receiving the result
// (Bank BankNone when discarded or the callee is a procedure).
type CallSite struct {
	FuncIdx int32
	Args    []Reg
	Dst     Reg
}

// PrintSite is one print() call's argument registers, boxed to Values
// at run time (print allocates in every engine).
type PrintSite struct {
	Args []Reg
}

// ForallSite is one parallel loop: inclusive bounds and the loop
// variable as int-bank registers, and the body as a pc range within
// the function's code.
type ForallSite struct {
	From, To, Var      int32 // int-bank register indices
	BodyStart, BodyEnd int32 // [BodyStart, BodyEnd) within Code
	// Pos is the loop's source position — transform stamps its strips
	// with the original while loop's position, so this is the key the
	// planner's per-loop verdicts join on.
	Pos lang.Pos
	// Kernel is the strip's batched SPMD form when classifyKernel
	// proved the body vectorizable, nil otherwise; VectorReason then
	// says concretely why not (see kernel.go).
	Kernel       *Kernel
	VectorReason string
}

// NewSite is one `new T` allocation site.
type NewSite struct {
	TypeName string
	Decl     *adds.Decl
}

// Func is one function's flat code plus its register-file shape and
// constant pools.
type Func struct {
	Name   string
	Params []Param
	Result lang.Type // nil for procedures

	// Register bank sizes: slots first (each variable declaration's
	// home register), then expression temporaries and hidden loop
	// counters.
	NInt, NReal, NBool, NStr, NNode int

	Code []Instr
	// Pos is parallel to Code: the source position each instruction
	// reports in errors.
	Pos []lang.Pos

	Strs    []string // string literal pool
	Names   []string // field-name pool (error text, shape checks)
	News    []NewSite
	Calls   []CallSite
	Prints  []PrintSite
	Foralls []ForallSite
}

// Program is a lowered program: one Func per compile.Func, same order.
type Program struct {
	Funcs []*Func
	index map[string]int
}

// Func returns the named function, or nil.
func (p *Program) Func(name string) *Func {
	i, ok := p.index[name]
	if !ok {
		return nil
	}
	return p.Funcs[i]
}

// ---------------------------------------------------------------------------
// Lowering

// Compile lowers a compiled program to bytecode. Errors indicate IR
// the lowering does not model (they should not occur for checked
// programs) and are reported rather than panicked: interp surfaces
// them at Call as "interp: bytecode engine: …", and only the walker
// still runs such a program.
func Compile(cp *compile.Program) (*Program, error) {
	p := &Program{index: make(map[string]int, len(cp.Funcs))}
	for i, f := range cp.Funcs {
		p.index[f.Name] = i
		p.Funcs = append(p.Funcs, &Func{Name: f.Name, Result: f.Result})
	}
	for i, f := range cp.Funcs {
		if err := lowerFunc(cp, p.Funcs[i], f); err != nil {
			return nil, fmt.Errorf("bytecode: %s: %w", f.Name, err)
		}
	}
	return p, nil
}

// BankOf maps a static type to its register bank.
func BankOf(t lang.Type) Bank {
	switch t := t.(type) {
	case *lang.Scalar:
		switch t.Kind {
		case lang.KindInt:
			return BankInt
		case lang.KindReal:
			return BankReal
		case lang.KindBool:
			return BankBool
		case lang.KindString:
			return BankStr
		}
	case *lang.Pointer:
		return BankNode
	}
	return BankNone
}

func isReal(t lang.Type) bool {
	s, ok := t.(*lang.Scalar)
	return ok && s.Kind == lang.KindReal
}

func isPtr(t lang.Type) bool {
	_, ok := t.(*lang.Pointer)
	return ok
}

func isBool(t lang.Type) bool {
	s, ok := t.(*lang.Scalar)
	return ok && s.Kind == lang.KindBool
}

func isStr(t lang.Type) bool {
	s, ok := t.(*lang.Scalar)
	return ok && s.Kind == lang.KindString
}

type builder struct {
	cp      *compile.Program
	f       *Func
	slotReg []Reg // variable slot -> home register

	// permTop is the per-bank high-water mark of permanent registers
	// (slot homes and hidden loop counters); tempTop is the current
	// expression-temporary top, reset to permTop at each statement.
	permTop [6]int32
	tempTop [6]int32
	maxTop  [6]int32

	strIdx  map[string]int32
	nameIdx map[string]int32
}

func lowerFunc(cp *compile.Program, bf *Func, f *compile.Func) error {
	b := &builder{
		cp:      cp,
		f:       bf,
		slotReg: make([]Reg, f.Slots),
		strIdx:  map[string]int32{},
		nameIdx: map[string]int32{},
	}
	// Home registers: parameters first, then every declaration found
	// in the body (each declaration owns its slot; compile never
	// reuses slots across types).
	for _, prm := range f.Params {
		r := b.allocPerm(BankOf(prm.Type))
		b.slotReg[prm.Slot] = r
		bf.Params = append(bf.Params, Param{Name: prm.Name, Type: prm.Type, Reg: r})
	}
	if err := b.assignSlots(f.Body); err != nil {
		return err
	}
	if err := b.stmts(f.Body); err != nil {
		return err
	}
	bf.NInt = int(b.maxTop[BankInt])
	bf.NReal = int(b.maxTop[BankReal])
	bf.NBool = int(b.maxTop[BankBool])
	bf.NStr = int(b.maxTop[BankStr])
	bf.NNode = int(b.maxTop[BankNode])
	return nil
}

func (b *builder) allocPerm(bank Bank) Reg {
	if bank == BankNone {
		return Reg{}
	}
	r := Reg{Bank: bank, Idx: b.permTop[bank]}
	b.permTop[bank]++
	// Mid-statement permanent allocation (hidden loop counters) must
	// push the temp watermark along, or the next temp would collide.
	if b.tempTop[bank] < b.permTop[bank] {
		b.tempTop[bank] = b.permTop[bank]
	}
	if b.permTop[bank] > b.maxTop[bank] {
		b.maxTop[bank] = b.permTop[bank]
	}
	return r
}

func (b *builder) temp(bank Bank) Reg {
	r := Reg{Bank: bank, Idx: b.tempTop[bank]}
	b.tempTop[bank]++
	if b.tempTop[bank] > b.maxTop[bank] {
		b.maxTop[bank] = b.tempTop[bank]
	}
	return r
}

// resetTemps starts a statement: expression temporaries from the
// previous statement are dead and their registers reusable.
func (b *builder) resetTemps() { b.tempTop = b.permTop }

// assignSlots walks the IR allocating a home register for every
// variable declaration (VarSet, loop variables). Parameters are
// handled by the caller.
func (b *builder) assignSlots(stmts []compile.Stmt) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *compile.Block:
			if err := b.assignSlots(s.Stmts); err != nil {
				return err
			}
		case *compile.VarSet:
			bank := BankOf(s.Type)
			if bank == BankNone {
				return fmt.Errorf("%s: var %s has unbankable type %v", s.Pos(), s.Name, s.Type)
			}
			b.slotReg[s.Slot] = b.allocPerm(bank)
		case *compile.While:
			if err := b.assignSlots(s.Body); err != nil {
				return err
			}
		case *compile.If:
			if err := b.assignSlots(s.Then); err != nil {
				return err
			}
			if err := b.assignSlots(s.Else); err != nil {
				return err
			}
		case *compile.For:
			b.slotReg[s.Slot] = b.allocPerm(BankInt)
			if err := b.assignSlots(s.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *builder) emit(pos lang.Pos, in Instr) int32 {
	pc := int32(len(b.f.Code))
	b.f.Code = append(b.f.Code, in)
	b.f.Pos = append(b.f.Pos, pos)
	return pc
}

// patch sets the jump target (Imm) of a previously emitted branch to
// the current pc.
func (b *builder) patch(pc int32) {
	b.f.Code[pc].Imm = int64(len(b.f.Code))
}

func (b *builder) str(s string) int32 {
	if i, ok := b.strIdx[s]; ok {
		return i
	}
	i := int32(len(b.f.Strs))
	b.f.Strs = append(b.f.Strs, s)
	b.strIdx[s] = i
	return i
}

func (b *builder) name(s string) int32 {
	if i, ok := b.nameIdx[s]; ok {
		return i
	}
	i := int32(len(b.f.Names))
	b.f.Names = append(b.f.Names, s)
	b.nameIdx[s] = i
	return i
}

// ---------------------------------------------------------------------------
// Statements

func (b *builder) stmts(stmts []compile.Stmt) error {
	for _, s := range stmts {
		if err := b.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (b *builder) stmt(s compile.Stmt) error {
	b.resetTemps()
	pos := s.Pos()
	b.emit(pos, Instr{Op: OpStep})
	switch s := s.(type) {
	case *compile.Block:
		return b.stmts(s.Stmts)

	case *compile.VarSet:
		dst := b.slotReg[s.Slot]
		if s.Init == nil {
			// Zero value.
			switch dst.Bank {
			case BankInt:
				b.emit(pos, Instr{Op: OpConstInt, A: dst.Idx})
			case BankReal:
				b.emit(pos, Instr{Op: OpConstReal, A: dst.Idx})
			case BankBool:
				b.emit(pos, Instr{Op: OpConstBool, A: dst.Idx})
			case BankStr:
				b.emit(pos, Instr{Op: OpConstStr, A: dst.Idx, B: b.str("")})
			case BankNode:
				b.emit(pos, Instr{Op: OpConstNull, A: dst.Idx})
			}
			return nil
		}
		return b.assignTo(dst, s.Type, s.Init)

	case *compile.AssignSlot:
		return b.assignTo(b.slotReg[s.Slot], s.Type, s.RHS)

	case *compile.StoreField:
		return b.storeField(s)

	case *compile.While:
		head := int32(len(b.f.Code))
		rc, err := b.operand(s.Cond)
		if err != nil {
			return err
		}
		br := b.emit(s.Cond.Pos(), Instr{Op: OpBr, A: rc.Idx})
		if err := b.stmts(s.Body); err != nil {
			return err
		}
		b.emit(pos, Instr{Op: OpStep})
		b.emit(pos, Instr{Op: OpJump, Imm: int64(head)})
		b.patch(br)
		return nil

	case *compile.If:
		rc, err := b.operand(s.Cond)
		if err != nil {
			return err
		}
		br := b.emit(s.Cond.Pos(), Instr{Op: OpBr, A: rc.Idx})
		if err := b.stmts(s.Then); err != nil {
			return err
		}
		if s.Else == nil {
			b.patch(br)
			return nil
		}
		end := b.emit(pos, Instr{Op: OpJump})
		b.patch(br)
		if err := b.stmts(s.Else); err != nil {
			return err
		}
		b.patch(end)
		return nil

	case *compile.Return:
		if s.Value == nil {
			b.emit(pos, Instr{Op: OpReturnVoid})
			return nil
		}
		// The value is coerced to the declared result type at the call
		// boundary; emit the int→real widening statically.
		fn := b.f
		if isReal(fn.Result) && !isReal(s.Value.Type()) {
			r, err := b.realOperand(s.Value)
			if err != nil {
				return err
			}
			b.emit(pos, Instr{Op: OpReturnReal, A: r.Idx})
			return nil
		}
		r, err := b.operand(s.Value)
		if err != nil {
			return err
		}
		var op Op
		switch r.Bank {
		case BankInt:
			op = OpReturnInt
		case BankReal:
			op = OpReturnReal
		case BankBool:
			op = OpReturnBool
		case BankStr:
			op = OpReturnStr
		case BankNode:
			op = OpReturnNode
		default:
			return fmt.Errorf("%s: return of unbankable type %v", pos, s.Value.Type())
		}
		b.emit(pos, Instr{Op: op, A: r.Idx})
		return nil

	case *compile.CallStmt:
		e := s.Call
		if e.Builtin == compile.BuiltinPrint {
			return b.printCall(e)
		}
		if e.Builtin != compile.NotBuiltin {
			// A builtin evaluated for effect: discard into a temp.
			return b.evalInto(e, b.temp(BankReal))
		}
		return b.userCall(e, Reg{Bank: BankNone})

	case *compile.For:
		return b.forStmt(s)
	}
	return fmt.Errorf("%s: unknown statement %T", pos, s)
}

// assignTo stores an expression into a slot home register.
func (b *builder) assignTo(dst Reg, typ lang.Type, e compile.Expr) error {
	if isReal(typ) && !isReal(e.Type()) {
		return b.evalIntoReal(e, dst)
	}
	return b.evalInto(e, dst)
}

func (b *builder) storeField(s *compile.StoreField) error {
	pos := s.Pos()
	if s.IsPtr {
		rs, err := b.operand(s.RHS)
		if err != nil {
			return err
		}
		rb, err := b.operand(s.Base)
		if err != nil {
			return err
		}
		if s.Index == nil {
			b.emit(pos, Instr{Op: OpStoreNode, A: rb.Idx, B: rs.Idx, C: int32(s.Off),
				Imm: int64(b.name(s.Field))})
			return nil
		}
		b.emit(pos, Instr{Op: OpStoreNodeIdxBegin, A: rb.Idx})
		ri, err := b.operand(s.Index)
		if err != nil {
			return err
		}
		b.emit(pos, Instr{Op: OpStoreNodeIdx, A: rb.Idx, B: rs.Idx, C: ri.Idx,
			Imm: packOffName(s.Off, b.name(s.Field))})
		return nil
	}

	// Data store: rhs evaluates before the base, as the walker orders it.
	var rs Reg
	var err error
	if isReal(s.Type) && !isReal(s.RHS.Type()) {
		rs, err = b.realOperand(s.RHS)
	} else {
		rs, err = b.operand(s.RHS)
	}
	if err != nil {
		return err
	}
	rb, err := b.operand(s.Base)
	if err != nil {
		return err
	}
	var op Op
	switch BankOf(s.Type) {
	case BankInt:
		op = OpStoreInt
	case BankReal:
		op = OpStoreReal
	case BankBool:
		op = OpStoreBool
	default:
		return fmt.Errorf("%s: data field %s has unbankable type %v", pos, s.Field, s.Type)
	}
	b.emit(pos, Instr{Op: op, A: rb.Idx, B: rs.Idx, C: int32(s.Off),
		Imm: int64(b.name(s.Field))})
	return nil
}

func (b *builder) forStmt(s *compile.For) error {
	pos := s.Pos()
	// Hidden counter and bound live in permanent registers: the loop
	// variable's home is writable by the body without perturbing
	// iteration, and body statements reset the temp watermark.
	k := b.allocPerm(BankInt)
	hi := b.allocPerm(BankInt)
	if err := b.boundInto(s.From, k); err != nil {
		return err
	}
	if err := b.boundInto(s.To, hi); err != nil {
		return err
	}
	varReg := b.slotReg[s.Slot]

	if s.Parallel {
		site := int32(len(b.f.Foralls))
		b.f.Foralls = append(b.f.Foralls, ForallSite{From: k.Idx, To: hi.Idx, Var: varReg.Idx, Pos: pos})
		b.emit(pos, Instr{Op: OpForall, A: site})
		b.f.Foralls[site].BodyStart = int32(len(b.f.Code))
		nCalls := len(b.f.Calls)
		if err := b.stmts(s.Body); err != nil {
			return err
		}
		b.f.Foralls[site].BodyEnd = int32(len(b.f.Code))
		b.f.Foralls[site].Kernel, b.f.Foralls[site].VectorReason = b.classifyKernel(s, nCalls)
		return nil
	}

	head := b.emit(pos, Instr{Op: OpForHead, A: k.Idx, B: hi.Idx, C: varReg.Idx})
	if err := b.stmts(s.Body); err != nil {
		return err
	}
	b.emit(pos, Instr{Op: OpForTail, A: k.Idx, Imm: int64(head)})
	b.patch(head)
	return nil
}

// boundInto evaluates a loop bound into a hidden register: a plain
// move when the bound is a slot, a direct evaluation otherwise.
func (b *builder) boundInto(e compile.Expr, dst Reg) error {
	if sr, ok := e.(*compile.SlotRef); ok {
		b.emit(e.Pos(), Instr{Op: OpMovInt, A: dst.Idx, B: b.slotReg[sr.Slot].Idx})
		return nil
	}
	return b.evalInto(e, dst)
}

func packOffName(off int, name int32) int64 {
	return int64(off)<<32 | int64(uint32(name))
}

// UnpackOffName splits an Imm packed by the lowering for the indexed
// pointer-access opcodes.
func UnpackOffName(imm int64) (off int, name int32) {
	return int(imm >> 32), int32(uint32(imm))
}

// ---------------------------------------------------------------------------
// Expressions

// operand yields a register holding e's value: a slot's home register,
// read in place without a move, or a fresh temporary.
func (b *builder) operand(e compile.Expr) (Reg, error) {
	if sr, ok := e.(*compile.SlotRef); ok {
		return b.slotReg[sr.Slot], nil
	}
	t := b.temp(BankOf(e.Type()))
	if t.Bank == BankNone {
		return Reg{}, fmt.Errorf("%s: expression of unbankable type %v", e.Pos(), e.Type())
	}
	if err := b.evalInto(e, t); err != nil {
		return Reg{}, err
	}
	return t, nil
}

// realOperand is operand for a statically-int expression consumed in a
// real context: the int→real widening is emitted here.
func (b *builder) realOperand(e compile.Expr) (Reg, error) {
	if isReal(e.Type()) {
		return b.operand(e)
	}
	if lit, ok := e.(*compile.IntLit); ok {
		t := b.temp(BankReal)
		b.emit(e.Pos(), Instr{Op: OpConstReal, A: t.Idx, Fv: float64(lit.Val)})
		return t, nil
	}
	r, err := b.operand(e)
	if err != nil {
		return Reg{}, err
	}
	t := b.temp(BankReal)
	b.emit(e.Pos(), Instr{Op: OpIntToReal, A: t.Idx, B: r.Idx})
	return t, nil
}

// evalIntoReal evaluates a statically-int expression into a real
// destination register.
func (b *builder) evalIntoReal(e compile.Expr, dst Reg) error {
	if isReal(e.Type()) {
		return b.evalInto(e, dst)
	}
	if lit, ok := e.(*compile.IntLit); ok {
		b.emit(e.Pos(), Instr{Op: OpConstReal, A: dst.Idx, Fv: float64(lit.Val)})
		return nil
	}
	r, err := b.operand(e)
	if err != nil {
		return err
	}
	b.emit(e.Pos(), Instr{Op: OpIntToReal, A: dst.Idx, B: r.Idx})
	return nil
}

// evalInto emits code leaving e's value in dst.
func (b *builder) evalInto(e compile.Expr, dst Reg) error {
	pos := e.Pos()
	switch e := e.(type) {
	case *compile.SlotRef:
		src := b.slotReg[e.Slot]
		var op Op
		switch src.Bank {
		case BankInt:
			op = OpMovInt
		case BankReal:
			op = OpMovReal
		case BankBool:
			op = OpMovBool
		case BankStr:
			op = OpMovStr
		case BankNode:
			op = OpMovNode
		}
		b.emit(pos, Instr{Op: op, A: dst.Idx, B: src.Idx})
		return nil

	case *compile.IntLit:
		b.emit(pos, Instr{Op: OpConstInt, A: dst.Idx, Imm: e.Val})
		return nil
	case *compile.RealLit:
		b.emit(pos, Instr{Op: OpConstReal, A: dst.Idx, Fv: e.Val})
		return nil
	case *compile.StrLit:
		b.emit(pos, Instr{Op: OpConstStr, A: dst.Idx, B: b.str(e.Val)})
		return nil
	case *compile.BoolLit:
		imm := int64(0)
		if e.Val {
			imm = 1
		}
		b.emit(pos, Instr{Op: OpConstBool, A: dst.Idx, Imm: imm})
		return nil
	case *compile.NullLit:
		b.emit(pos, Instr{Op: OpConstNull, A: dst.Idx})
		return nil

	case *compile.New:
		site := int32(len(b.f.News))
		b.f.News = append(b.f.News, NewSite{TypeName: e.TypeName, Decl: e.Decl})
		b.emit(pos, Instr{Op: OpNew, A: dst.Idx, B: site})
		return nil

	case *compile.Load:
		return b.load(e, dst)

	case *compile.Call:
		return b.call(e, dst)

	case *compile.Bin:
		return b.bin(e, dst)

	case *compile.Un:
		op := OpNegInt
		switch {
		case e.Op == lang.NOT:
			op = OpNot
		case e.Op != lang.MINUS:
			return fmt.Errorf("%s: unknown unary op %s", pos, e.Op)
		case isReal(e.X.Type()):
			op = OpNegReal
		}
		r, err := b.operand(e.X)
		if err != nil {
			return err
		}
		b.emit(pos, Instr{Op: op, A: dst.Idx, B: r.Idx})
		return nil
	}
	return fmt.Errorf("%s: unknown expression %T", pos, e)
}

func (b *builder) load(e *compile.Load, dst Reg) error {
	pos := e.Pos()
	rb, err := b.operand(e.X)
	if err != nil {
		return err
	}
	name := b.name(e.Field)
	if !e.IsPtr {
		var op Op
		switch BankOf(e.Type()) {
		case BankInt:
			op = OpLoadInt
		case BankReal:
			op = OpLoadReal
		case BankBool:
			op = OpLoadBool
		default:
			return fmt.Errorf("%s: data field %s has unbankable type %v", pos, e.Field, e.Type())
		}
		b.emit(pos, Instr{Op: op, A: dst.Idx, B: rb.Idx, C: int32(e.Off),
			Imm: int64(name)})
		return nil
	}
	if e.Index == nil {
		b.emit(pos, Instr{Op: OpLoadNode, A: dst.Idx, B: rb.Idx, C: int32(e.Off),
			Imm: int64(name)})
		return nil
	}
	// Indexed pointer load: a NULL base short-circuits past the index
	// expression (which must not evaluate), exactly as the walker
	// orders it.
	begin := b.emit(pos, Instr{Op: OpLoadNodeIdxBegin, A: dst.Idx, B: rb.Idx, C: name})
	ri, err := b.operand(e.Index)
	if err != nil {
		return err
	}
	b.emit(pos, Instr{Op: OpLoadNodeIdx, A: dst.Idx, B: rb.Idx, C: ri.Idx,
		Imm: packOffName(e.Off, name)})
	b.patch(begin)
	return nil
}

func (b *builder) call(e *compile.Call, dst Reg) error {
	pos := e.Pos()
	switch e.Builtin {
	case compile.BuiltinSqrt, compile.BuiltinAbs:
		r, err := b.realOperand(e.Args[0])
		if err != nil {
			return err
		}
		op := OpSqrt
		if e.Builtin == compile.BuiltinAbs {
			op = OpAbs
		}
		b.emit(pos, Instr{Op: op, A: dst.Idx, B: r.Idx})
		return nil
	case compile.BuiltinRand:
		b.emit(pos, Instr{Op: OpRand, A: dst.Idx})
		return nil
	case compile.BuiltinPrint:
		return fmt.Errorf("%s: print in value position", pos)
	}
	return b.userCall(e, dst)
}

func (b *builder) userCall(e *compile.Call, dst Reg) error {
	// Arguments evaluate in order into their source registers (slot
	// homes pass through untouched). The VM copies them into the callee
	// frame.
	callee := b.cp.Funcs[e.FuncIdx]
	args := make([]Reg, len(e.Args))
	for i, a := range e.Args {
		var r Reg
		var err error
		if isReal(callee.Params[i].Type) && !isReal(a.Type()) {
			r, err = b.realOperand(a)
		} else {
			r, err = b.operand(a)
		}
		if err != nil {
			return err
		}
		args[i] = r
	}
	site := int32(len(b.f.Calls))
	b.f.Calls = append(b.f.Calls, CallSite{FuncIdx: int32(e.FuncIdx), Args: args, Dst: dst})
	b.emit(e.Pos(), Instr{Op: OpCall, A: site})
	return nil
}

func (b *builder) printCall(e *compile.Call) error {
	args := make([]Reg, len(e.Args))
	for i, a := range e.Args {
		r, err := b.operand(a)
		if err != nil {
			return err
		}
		args[i] = r
	}
	site := int32(len(b.f.Prints))
	b.f.Prints = append(b.f.Prints, PrintSite{Args: args})
	b.emit(e.Pos(), Instr{Op: OpPrint, A: site})
	return nil
}

func (b *builder) bin(e *compile.Bin, dst Reg) error {
	pos := e.Pos()
	op := e.Op

	// Short-circuit logic: x lands in the result register, the probe
	// decides whether y overwrites it. When dst is a variable's home
	// register the sequence goes through a temp — writing x straight
	// into dst would let y observe the half-finished assignment (e.g.
	// `b := b && f(b)`).
	if op == lang.AND || op == lang.OR {
		t := dst
		viaTemp := dst.Idx < b.permTop[dst.Bank]
		if viaTemp {
			t = b.temp(BankBool)
		}
		if err := b.evalInto(e.X, t); err != nil {
			return err
		}
		probe := OpScAnd
		if op == lang.OR {
			probe = OpScOr
		}
		sc := b.emit(pos, Instr{Op: probe, A: t.Idx})
		if err := b.evalInto(e.Y, t); err != nil {
			return err
		}
		b.patch(sc)
		if viaTemp {
			b.emit(pos, Instr{Op: OpMovBool, A: dst.Idx, B: t.Idx})
		}
		return nil
	}

	xt, yt := e.X.Type(), e.Y.Type()
	switch {
	case isStr(xt) && isStr(yt):
		return b.cmp2(e, dst, OpEqStr, OpNeStr, b.operand)
	case isPtr(xt) || isPtr(yt):
		return b.cmp2(e, dst, OpEqNode, OpNeNode, b.operand)
	case isReal(xt) || isReal(yt):
		return b.realBin(e, dst)
	case isBool(xt) && isBool(yt):
		return b.cmp2(e, dst, OpEqBool, OpNeBool, b.operand)
	default:
		return b.intBin(e, dst)
	}
}

// cmp2 lowers an == / != over same-bank operands.
func (b *builder) cmp2(e *compile.Bin, dst Reg, eqOp, neOp Op,
	opnd func(compile.Expr) (Reg, error)) error {
	rx, err := opnd(e.X)
	if err != nil {
		return err
	}
	ry, err := opnd(e.Y)
	if err != nil {
		return err
	}
	op := eqOp
	if e.Op == lang.NEQ {
		op = neOp
	} else if e.Op != lang.EQ {
		return fmt.Errorf("%s: bad comparison op %s", e.Pos(), e.Op)
	}
	b.emit(e.Pos(), Instr{Op: op, A: dst.Idx, B: rx.Idx, C: ry.Idx})
	return nil
}

func (b *builder) realBin(e *compile.Bin, dst Reg) error {
	rx, err := b.realOperand(e.X)
	if err != nil {
		return err
	}
	ry, err := b.realOperand(e.Y)
	if err != nil {
		return err
	}
	var op Op
	switch e.Op {
	case lang.PLUS:
		op = OpAddReal
	case lang.MINUS:
		op = OpSubReal
	case lang.STAR:
		op = OpMulReal
	case lang.SLASH:
		op = OpDivReal
	case lang.EQ:
		op = OpEqReal
	case lang.NEQ:
		op = OpNeReal
	case lang.LT:
		op = OpLtReal
	case lang.LE:
		op = OpLeReal
	case lang.GT:
		op = OpGtReal
	case lang.GE:
		op = OpGeReal
	default:
		return fmt.Errorf("%s: bad real op %s", e.Pos(), e.Op)
	}
	b.emit(e.Pos(), Instr{Op: op, A: dst.Idx, B: rx.Idx, C: ry.Idx})
	return nil
}

func (b *builder) intBin(e *compile.Bin, dst Reg) error {
	rx, err := b.operand(e.X)
	if err != nil {
		return err
	}
	ry, err := b.operand(e.Y)
	if err != nil {
		return err
	}
	var op Op
	switch e.Op {
	case lang.PLUS:
		op = OpAddInt
	case lang.MINUS:
		op = OpSubInt
	case lang.STAR:
		op = OpMulInt
	case lang.SLASH:
		op = OpDivInt
	case lang.PERCENT:
		op = OpModInt
	case lang.EQ:
		op = OpEqInt
	case lang.NEQ:
		op = OpNeInt
	case lang.LT:
		op = OpLtInt
	case lang.LE:
		op = OpLeInt
	case lang.GT:
		op = OpGtInt
	case lang.GE:
		op = OpGeInt
	default:
		return fmt.Errorf("%s: bad int op %s", e.Pos(), e.Op)
	}
	b.emit(e.Pos(), Instr{Op: op, A: dst.Idx, B: rx.Idx, C: ry.Idx})
	return nil
}
