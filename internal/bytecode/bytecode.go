// Package bytecode lowers a checked PSL program, in one walk over its
// AST against the tables of internal/compile, into a flat instruction
// array executed by internal/interp's switch-loop VM — the production
// engine, checked against the tree-walking oracle.
//
// Where the walker pays an interface type switch per AST node and
// boxes every stored value in a Value, the bytecode form
// is a []Instr per function plus *typed
// register banks*: every variable slot and expression temporary lives
// in a per-function []int64, []float64, []bool or []*Node bank chosen
// from its static type (the type lang.Check recorded, at
// which the walker evaluates the same expression). Hot
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
// A Program is immutable once Compile returns, like the tables it is
// built from: one Program is shared without locks by every interpreter
// and worker fork executing it.
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
	BankStr       // no registers: a print argument's string-pool index
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
	OpConstNull // N[A] = nil
	OpMovInt    // I[A] = I[B]
	OpMovReal   // F[A] = F[B]
	OpMovBool   // B[A] = B[B]
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
	OpReturnNode // ret = N[A]

	// Fused compare-and-branch (condBranch): taken when the comparison
	// is false, so a NaN operand takes it.
	OpBrfEqInt // if !(I[A] == I[B]) pc = Imm
	OpBrfNeInt
	OpBrfLtInt
	OpBrfLeInt
	OpBrfGtInt
	OpBrfGeInt
	OpBrfEqReal // if !(F[A] == F[B]) pc = Imm
	OpBrfNeReal
	OpBrfLtReal
	OpBrfLeReal
	OpBrfGtReal
	OpBrfGeReal
	OpBrfEqNode  // if N[A] != N[B] pc = Imm
	OpBrfNeNode  // if N[A] == N[B] pc = Imm
	OpBrfNull    // if N[A] != nil pc = Imm (p == NULL)
	OpBrfNonNull // if N[A] == nil pc = Imm (p != NULL)

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

	// Bool / pointer ops.
	OpNot    // B[A] = !B[B]
	OpEqBool // B[A] = B[B] == B[C]
	OpNeBool
	OpEqNode // B[A] = N[B] == N[C]
	OpNeNode

	// Heap.
	OpNew      // N[A] = allocNode(News[B]) (budget check)
	OpLoadInt  // null check; I[A] = int64(N[B].words[C])
	OpLoadReal // null check; F[A] = Float64frombits(N[B].words[C])
	OpLoadBool // null check; B[A] = N[B].words[C] != 0
	// OpLoadNode reads pointer field C (index 0) of N[B] into N[A]:
	// a NULL base yields NULL (speculative traversability, §3.2).
	OpLoadNode
	// OpLoadNodeIdxBegin starts an indexed pointer load: on NULL base,
	// N[A] = nil and pc = Imm (skipping the index expression, which a
	// NULL base must not evaluate); otherwise fall through to the index
	// code ending in OpLoadNodeIdx.
	OpLoadNodeIdxBegin // A=dst, B=base, C=name, Imm=join pc
	OpLoadNodeIdx      // N[A] = N[B].parr[off][I[C]], Imm=off<<32|name
	OpStoreInt         // null check; N[A].words[C] = uint64(I[B])
	OpStoreReal        // null check; N[A].words[C] = Float64bits(F[B])
	OpStoreBool        // null check; N[A].words[C] = 1 if B[B], else 0
	OpStoreNode        // N[A].parr[C][0] = N[B], Imm=name (shape checks apply)
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
	// Moves pairs each argument with the callee parameter it binds, one
	// list per bank, so the VM binds arguments without a bank switch.
	Moves [BankNode + 1][]Move
}

// Move copies caller register Src into callee register Dst of one bank.
type Move struct{ Src, Dst int32 }

// PrintSite is one print() call's arguments: registers, rendered to
// text at run time (print allocates in every engine), and string
// literals, each its index in the Strs pool under Bank BankStr.
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
	// Strip is the loop's strip shape when matchStrip recognized it, nil
	// otherwise. Kernel is the strip's batched SPMD form when classify
	// proved the body vectorizable, nil otherwise; VectorReason then says
	// concretely why not (see kernel.go).
	Strip        *Strip
	Kernel       *Kernel
	VectorReason string
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
	NInt, NReal, NBool, NNode int

	Code []Instr
	// Pos is parallel to Code: the source position each instruction
	// reports in errors.
	Pos []lang.Pos

	Strs    []string     // print's string literals
	Names   []string     // field-name pool (error text)
	News    []*adds.Decl // each `new T` site's declaration of T
	Calls   []CallSite
	Prints  []PrintSite
	Foralls []ForallSite
}

// Program is a lowered program: one Func per function, same order.
type Program struct {
	Funcs []*Func
}

// Func returns the named function, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Lowering

// Compile lowers a checked program to bytecode in one walk over its
// AST, reading what lang.Check resolved off the AST: each use's slot,
// each field access's offset, each call's callee. Errors indicate input
// the lowering does not model — a use the checker did not resolve, a
// type no register bank holds (they should not occur for checked
// programs) — and are reported rather than panicked: interp's
// CompileProgram hands them back, and only the walker still runs such
// a program.
func Compile(cp *compile.Program) (*Program, error) {
	p := &Program{Funcs: make([]*Func, len(cp.Funcs))}
	funcs := make([]Func, len(cp.Funcs))
	for i, f := range cp.Funcs {
		funcs[i] = Func{Name: f.Name, Result: f.Result}
		p.Funcs[i] = &funcs[i]
	}
	b := &builder{cp: cp, names: make([]nameRef, cp.Lang.Names().Len())}
	for i, f := range cp.Funcs {
		if err := b.lowerFunc(p.Funcs[i], f, i); err != nil {
			return nil, fmt.Errorf("bytecode: %s: %w", f.Name, err)
		}
	}
	// Every callee's parameter registers and code are known now: bind
	// the call sites, then read each strip helper's guarded body.
	for _, f := range p.Funcs {
		p.bindCalls(f)
		for i := range f.Foralls {
			s := &f.Foralls[i]
			if s.Strip == nil {
				continue
			}
			s.Strip.GuardPC = skipLoopEnd(p.Funcs[s.Strip.HelperIdx])
			s.Kernel, s.VectorReason = p.classify(s)
		}
	}
	return p, nil
}

// bindCalls pairs each argument of f's call sites with the callee
// parameter it binds, every site's moves carved from one array.
func (p *Program) bindCalls(f *Func) {
	n := 0
	for i := range f.Calls {
		n += len(f.Calls[i].Args)
	}
	moves := make([]Move, n)
	for i := range f.Calls {
		c := &f.Calls[i]
		var per [BankNode + 1]int
		for _, a := range c.Args {
			per[a.Bank]++
		}
		for bank, k := range per {
			if k > 0 {
				c.Moves[bank], moves = moves[:0:k], moves[k:]
			}
		}
		params := p.Funcs[c.FuncIdx].Params
		for j, a := range c.Args {
			c.Moves[a.Bank] = append(c.Moves[a.Bank], Move{Src: a.Idx, Dst: params[j].Reg.Idx})
		}
	}
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

// Per-bank opcodes: a register's zero constant, move and return, a data
// field's load and store (none for pointers).
var (
	zeroOps  = [BankNode + 1]Op{BankInt: OpConstInt, BankReal: OpConstReal, BankBool: OpConstBool, BankNode: OpConstNull}
	movOps   = [BankNode + 1]Op{BankInt: OpMovInt, BankReal: OpMovReal, BankBool: OpMovBool, BankNode: OpMovNode}
	retOps   = [BankNode + 1]Op{BankInt: OpReturnInt, BankReal: OpReturnReal, BankBool: OpReturnBool, BankNode: OpReturnNode}
	loadOps  = [BankNode + 1]Op{BankInt: OpLoadInt, BankReal: OpLoadReal, BankBool: OpLoadBool}
	storeOps = [BankNode + 1]Op{BankInt: OpStoreInt, BankReal: OpStoreReal, BankBool: OpStoreBool}
)

// builder lowers a program's functions one after another; what it keeps
// across them is only storage.
type builder struct {
	cp      *compile.Program
	fn      *lang.FuncDecl
	f       *Func
	slotReg []Reg // variable slot -> home register
	n       size  // the current function's pre-walk tally
	err     error // the pre-walk's first failure

	// permTop is the per-bank high-water mark of permanent registers
	// (slot homes and hidden loop counters); tempTop is the current
	// expression-temporary top, reset to permTop at each statement.
	permTop [6]int32
	tempTop [6]int32
	maxTop  [6]int32

	strIdx map[string]int32
	// names[id] is the index of field name id in the current function's
	// Names pool, when its fn is the function's number (index + 1); the
	// pre-walk marks the names it counts with the number negated.
	names []nameRef
	fnNum int32
	// args is what is left of the current function's argument-register
	// array, from which each call and print takes its Args.
	args []Reg
}

type nameRef struct{ fn, idx int32 }

// size is what a function's pre-walk counts: a bound on the
// instructions its code holds, and the size of its site tables.
type size struct {
	code, calls, args, prints, foralls, news, names int
}

func (b *builder) lowerFunc(bf *Func, fn *lang.FuncDecl, idx int) error {
	b.fn, b.f, b.fnNum, b.n, b.err = fn, bf, int32(idx)+1, size{}, nil
	b.permTop, b.tempTop, b.maxTop = [6]int32{}, [6]int32{}, [6]int32{}
	b.strIdx = nil
	b.slotReg = append(b.slotReg[:0], make([]Reg, len(fn.Vars))...)
	// Home registers: parameters first, then every declaration found
	// in the body (each declaration owns its slot; the checker never
	// reuses slots across types).
	bf.Params = make([]Param, len(fn.Params))
	for i, prm := range fn.Params {
		r := b.allocPerm(BankOf(prm.Type))
		b.slotReg[i] = r
		bf.Params[i] = Param{Name: prm.Name, Type: prm.Type, Reg: r}
	}
	b.assignSlots(fn.Body.Stmts)
	if b.err != nil {
		return b.err
	}
	bf.Code = make([]Instr, 0, b.n.code)
	bf.Pos = make([]lang.Pos, 0, b.n.code)
	bf.Calls = make([]CallSite, 0, b.n.calls)
	bf.Prints = make([]PrintSite, 0, b.n.prints)
	bf.Foralls = make([]ForallSite, 0, b.n.foralls)
	bf.News = make([]*adds.Decl, 0, b.n.news)
	bf.Names = make([]string, 0, b.n.names)
	b.args = make([]Reg, b.n.args)
	if err := b.stmts(fn.Body.Stmts); err != nil {
		return err
	}
	bf.NInt = int(b.maxTop[BankInt])
	bf.NReal = int(b.maxTop[BankReal])
	bf.NBool = int(b.maxTop[BankBool])
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

// assignSlots walks the body before it is lowered, allocating a home
// register for every variable declaration (var statements, loop
// variables) and counting, in b.n, what the lowering will emit; b.err
// is the first declaration it could not home. Parameters are handled
// by the caller.
func (b *builder) assignSlots(stmts []lang.Stmt) {
	n := &b.n
	for _, s := range stmts {
		n.code++ // the statement's step
		switch s := s.(type) {
		case *lang.Block:
			b.assignSlots(s.Stmts)
		case *lang.VarStmt:
			b.declare(s.Pos(), s.Name, s.Slot, s.DeclType)
			if s.Init == nil {
				n.code++ // the zero value's constant
			}
			b.count(s.Init, true, isReal(s.DeclType))
		case *lang.AssignStmt:
			if fe, ok := s.LHS.(*lang.FieldExpr); ok {
				n.code++ // the store
				b.countName(fe)
				b.count(fe.X, false, false)
				if fe.Index != nil {
					n.code++ // the indexed store's null check
					b.count(fe.Index, false, false)
				}
				b.count(s.RHS, false, isReal(fe.Type()))
			} else {
				b.count(s.RHS, true, isReal(s.LHS.Type()))
			}
		case *lang.WhileStmt:
			n.code += 3 // the branch out, the back edge's step and jump
			b.count(s.Cond, false, false)
			b.assignSlots(s.Body.Stmts)
		case *lang.IfStmt:
			n.code++ // the branch
			b.count(s.Cond, false, false)
			b.assignSlots(s.Then.Stmts)
			if s.Else != nil {
				n.code++ // the jump over the else
				b.assignSlots(s.Else.Stmts)
			}
		case *lang.ReturnStmt:
			n.code++
			b.count(s.Value, false, isReal(b.fn.Result))
		case *lang.CallStmt:
			b.count(s.Call, false, false)
		case *lang.ForStmt:
			n.code += 2 // for.head and for.tail
			if s.Parallel {
				n.code-- // one forall
				n.foralls++
			}
			b.count(s.From, true, false)
			b.count(s.To, true, false)
			b.declare(s.Pos(), s.Var, s.Slot, lang.Int)
			b.assignSlots(s.Body.Stmts)
		}
	}
}

// declare gives a declaration's slot its home register, or records in
// b.err why it cannot.
func (b *builder) declare(pos lang.Pos, name string, slot int, t lang.Type) {
	bank := BankOf(t)
	switch {
	case b.err != nil:
	case bank == BankNone:
		b.err = fmt.Errorf("%s: var %s has unbankable type %v", pos, name, t)
	case slot < 0 || slot >= len(b.slotReg):
		b.err = fmt.Errorf("%s: var %s has no slot (program not checked?)", pos, name)
	default:
		b.slotReg[slot] = b.allocPerm(bank)
	}
}

// count adds to the pre-walk's tally what lowering e emits at most:
// evaluated into a register (into) or read as an operand, widened to
// real when real.
func (b *builder) count(e lang.Expr, into, real bool) {
	n := &b.n
	switch e := e.(type) {
	case nil:
		return
	case *lang.Ident:
		if into || real && !isReal(e.Type()) {
			n.code++ // a move, or the widening
		}
		return
	case *lang.IntLit:
		n.code++ // const.int, or const.real widened
		return
	case *lang.StrLit:
		return // a print's literal is its site's pool index
	case *lang.FieldExpr:
		b.countName(e)
		b.count(e.X, false, false)
		if e.Index != nil {
			n.code++ // the indexed load's null check
			b.count(e.Index, false, false)
		}
	case *lang.CallExpr:
		switch e.Func {
		case "sqrt", "abs":
			for _, a := range e.Args {
				b.count(a, false, true)
			}
		case "rand":
		case "print":
			n.prints++
			n.args += len(e.Args)
			for _, a := range e.Args {
				b.count(a, false, false)
			}
		default:
			n.calls++
			n.args += len(e.Args)
			var params []lang.Param
			if _, f := b.callee(e); f != nil {
				params = f.Params
			}
			for i, a := range e.Args {
				b.count(a, false, i < len(params) && isReal(params[i].Type))
			}
		}
	case *lang.BinExpr:
		if e.Op == lang.AND || e.Op == lang.OR {
			n.code++ // the probe; the operator's own count covers the move
			b.count(e.X, true, false)
			b.count(e.Y, true, false)
		} else {
			real := isReal(e.X.Type()) || isReal(e.Y.Type())
			b.count(e.X, false, real)
			b.count(e.Y, false, real)
		}
	case *lang.UnExpr:
		b.count(e.X, false, false)
	case *lang.NewExpr:
		n.news++
	}
	n.code++ // the expression's own instruction
	if real && !isReal(e.Type()) {
		n.code++ // the widening
	}
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
	if b.strIdx == nil {
		b.strIdx = map[string]int32{}
	}
	i := int32(len(b.f.Strs))
	b.f.Strs = append(b.f.Strs, s)
	b.strIdx[s] = i
	return i
}

// name is the index of fe's field name in the function's Names pool,
// which fe's field must already have resolved (field).
func (b *builder) name(fe *lang.FieldExpr) int32 {
	ref := &b.names[fe.FieldID]
	if ref.fn != b.fnNum {
		*ref = nameRef{fn: b.fnNum, idx: int32(len(b.f.Names))}
		b.f.Names = append(b.f.Names, fe.Field)
	}
	return ref.idx
}

// countName counts fe's field name into the function's Names pool,
// once.
func (b *builder) countName(fe *lang.FieldExpr) {
	if uint(fe.FieldID) < uint(len(b.names)) && b.names[fe.FieldID].fn != -b.fnNum {
		b.names[fe.FieldID].fn = -b.fnNum
		b.n.names++
	}
}

// argRegs takes n argument registers from the function's array, which
// the pre-walk sized to every call's and print's arguments.
func (b *builder) argRegs(n int) []Reg {
	r := b.args[:n:n]
	b.args = b.args[n:]
	return r
}

// slot returns the home register of a use of a variable, if the use
// still names the declaration the checker resolved it to.
func (b *builder) slot(id *lang.Ident) (Reg, error) {
	if id.Slot < 0 || id.Slot >= len(b.fn.Vars) || b.fn.Vars[id.Slot] != id.ID || b.cp.Lang.Names().Text(id.ID) != id.Name {
		return Reg{}, fmt.Errorf("%s: unresolved variable %q", id.Pos(), id.Name)
	}
	return b.slotReg[id.Slot], nil
}

// field checks that the record declaration of the base's static
// pointer type holds base->field at the offset the checker recorded
// (FieldExpr.Off), among its Pointers or its Data as the access's type
// says.
func (b *builder) field(fe *lang.FieldExpr) error {
	elem, ok := lang.IsPointer(fe.X.Type())
	if !ok || fe.Type() == nil {
		return fmt.Errorf("%s: untyped field access (program not checked?)", fe.Pos())
	}
	decl, name := b.cp.Lang.Universe.Decl(elem), ""
	switch {
	case decl == nil:
	case isPtr(fe.Type()) && uint(fe.Off) < uint(len(decl.Pointers)):
		name = decl.Pointers[fe.Off].Name
	case !isPtr(fe.Type()) && uint(fe.Off) < uint(len(decl.Data)):
		name = decl.Data[fe.Off].Name
	}
	if name != fe.Field || b.cp.Lang.Names().Text(fe.FieldID) != fe.Field {
		return fmt.Errorf("%s: type %q has no field %q", fe.Pos(), elem, fe.Field)
	}
	return nil
}

// callee returns the index and declaration of the function the checker
// resolved a call to (CallExpr.Callee), or nil if that is not a
// function of the program's by the call's name.
func (b *builder) callee(e *lang.CallExpr) (int32, *lang.FuncDecl) {
	i := int(e.Callee) - 1
	if i < 0 || i >= len(b.cp.Funcs) || b.cp.Funcs[i].Name != e.Func {
		return -1, nil
	}
	return int32(i), b.cp.Funcs[i]
}

// ---------------------------------------------------------------------------
// Statements

func (b *builder) stmts(stmts []lang.Stmt) error {
	for _, s := range stmts {
		if err := b.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (b *builder) stmt(s lang.Stmt) error {
	b.resetTemps()
	pos := s.Pos()
	b.emit(pos, Instr{Op: OpStep})
	switch s := s.(type) {
	case *lang.Block:
		return b.stmts(s.Stmts)

	case *lang.VarStmt:
		dst := b.slotReg[s.Slot]
		if s.Init == nil {
			b.emit(pos, Instr{Op: zeroOps[dst.Bank], A: dst.Idx}) // the zero value
			return nil
		}
		return b.assignTo(dst, s.DeclType, s.Init)

	case *lang.AssignStmt:
		switch lhs := s.LHS.(type) {
		case *lang.Ident:
			dst, err := b.slot(lhs)
			if err != nil {
				return err
			}
			return b.assignTo(dst, lhs.Type(), s.RHS)
		case *lang.FieldExpr:
			return b.storeField(pos, lhs, s.RHS)
		}
		return fmt.Errorf("%s: bad assignment target %T", pos, s.LHS)

	case *lang.WhileStmt:
		head := int32(len(b.f.Code))
		br, err := b.condBranch(s.Cond)
		if err != nil {
			return err
		}
		if err := b.stmts(s.Body.Stmts); err != nil {
			return err
		}
		b.emit(pos, Instr{Op: OpStep})
		b.emit(pos, Instr{Op: OpJump, Imm: int64(head)})
		b.patch(br)
		return nil

	case *lang.IfStmt:
		br, err := b.condBranch(s.Cond)
		if err != nil {
			return err
		}
		if err := b.stmts(s.Then.Stmts); err != nil {
			return err
		}
		if s.Else == nil {
			b.patch(br)
			return nil
		}
		end := b.emit(pos, Instr{Op: OpJump})
		b.patch(br)
		if err := b.stmts(s.Else.Stmts); err != nil {
			return err
		}
		b.patch(end)
		return nil

	case *lang.ReturnStmt:
		if s.Value == nil {
			b.emit(pos, Instr{Op: OpReturnVoid})
			return nil
		}
		// The value is coerced to the declared result type at the call
		// boundary; emit the int→real widening statically.
		r, err := b.operandAs(s.Value, isReal(b.fn.Result))
		if err != nil {
			return err
		}
		if retOps[r.Bank] == opInvalid {
			return fmt.Errorf("%s: return of unbankable type %v", pos, s.Value.Type())
		}
		b.emit(pos, Instr{Op: retOps[r.Bank], A: r.Idx})
		return nil

	case *lang.CallStmt:
		e := s.Call
		switch e.Func {
		case "print":
			return b.printCall(e)
		case "sqrt", "abs", "rand":
			// A builtin evaluated for effect: discard into a temp.
			return b.evalInto(e, b.temp(BankReal))
		}
		return b.userCall(e, Reg{Bank: BankNone})

	case *lang.ForStmt:
		return b.forStmt(s)
	}
	return fmt.Errorf("%s: unknown statement %T", pos, s)
}

// assignTo stores an expression into a slot home register.
func (b *builder) assignTo(dst Reg, typ lang.Type, e lang.Expr) error {
	if isReal(typ) && !isReal(e.Type()) {
		return b.evalIntoReal(e, dst)
	}
	return b.evalInto(e, dst)
}

// storeField lowers "lhs = rhs;" for a field target.
func (b *builder) storeField(pos lang.Pos, lhs *lang.FieldExpr, rhs lang.Expr) error {
	if err := b.field(lhs); err != nil {
		return err
	}
	if isPtr(lhs.Type()) {
		rs, err := b.operand(rhs)
		if err != nil {
			return err
		}
		rb, err := b.operand(lhs.X)
		if err != nil {
			return err
		}
		if lhs.Index == nil {
			b.emit(pos, Instr{Op: OpStoreNode, A: rb.Idx, B: rs.Idx, C: lhs.Off,
				Imm: int64(b.name(lhs))})
			return nil
		}
		b.emit(pos, Instr{Op: OpStoreNodeIdxBegin, A: rb.Idx})
		ri, err := b.operand(lhs.Index)
		if err != nil {
			return err
		}
		b.emit(pos, Instr{Op: OpStoreNodeIdx, A: rb.Idx, B: rs.Idx, C: ri.Idx,
			Imm: packOffName(lhs.Off, b.name(lhs))})
		return nil
	}

	// Data store: rhs evaluates before the base, as the walker orders it.
	typ := lhs.Type()
	rs, err := b.operandAs(rhs, isReal(typ))
	if err != nil {
		return err
	}
	rb, err := b.operand(lhs.X)
	if err != nil {
		return err
	}
	op := storeOps[BankOf(typ)]
	if op == opInvalid {
		return fmt.Errorf("%s: data field %s has unbankable type %v", pos, lhs.Field, typ)
	}
	b.emit(pos, Instr{Op: op, A: rb.Idx, B: rs.Idx, C: lhs.Off,
		Imm: int64(b.name(lhs))})
	return nil
}

func (b *builder) forStmt(s *lang.ForStmt) error {
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
		if err := b.stmts(s.Body.Stmts); err != nil {
			return err
		}
		fs := &b.f.Foralls[site]
		fs.BodyEnd = int32(len(b.f.Code))
		fs.Strip = b.matchStrip(s, nCalls, fs.BodyEnd-fs.BodyStart)
		if fs.Strip == nil {
			fs.VectorReason = reasonNotStrip
		}
		return nil
	}

	head := b.emit(pos, Instr{Op: OpForHead, A: k.Idx, B: hi.Idx, C: varReg.Idx})
	if err := b.stmts(s.Body.Stmts); err != nil {
		return err
	}
	b.emit(pos, Instr{Op: OpForTail, A: k.Idx, Imm: int64(head)})
	b.patch(head)
	return nil
}

// boundInto evaluates a loop bound into a hidden register: a plain
// move when the bound is a variable, a direct evaluation otherwise.
func (b *builder) boundInto(e lang.Expr, dst Reg) error {
	if id, ok := e.(*lang.Ident); ok {
		src, err := b.slot(id)
		if err != nil {
			return err
		}
		b.emit(e.Pos(), Instr{Op: OpMovInt, A: dst.Idx, B: src.Idx})
		return nil
	}
	return b.evalInto(e, dst)
}

// brfOf maps a value comparison to its fused compare-and-branch.
var brfOf = [opCount]Op{
	OpEqInt: OpBrfEqInt, OpNeInt: OpBrfNeInt, OpLtInt: OpBrfLtInt,
	OpLeInt: OpBrfLeInt, OpGtInt: OpBrfGtInt, OpGeInt: OpBrfGeInt,
	OpEqReal: OpBrfEqReal, OpNeReal: OpBrfNeReal, OpLtReal: OpBrfLtReal,
	OpLeReal: OpBrfLeReal, OpGtReal: OpBrfGtReal, OpGeReal: OpBrfGeReal,
	OpEqNode: OpBrfEqNode, OpNeNode: OpBrfNeNode,
}

// condBranch lowers an if or while condition and emits the branch taken
// when it is false, returning its pc for patching. A peephole fuses a
// condition that is one int, real or pointer comparison with its
// br.false into one brf instruction; against a NULL literal it also
// drops the literal's const.null (brf.null, brf.nonnull). A condition
// whose code holds a jump — &&, ||, an indexed pointer load's NULL join
// — keeps the compare and br.false, so no jump target moves.
func (b *builder) condBranch(cond lang.Expr) (int32, error) {
	start := len(b.f.Code)
	rc, err := b.operand(cond)
	if err != nil {
		return 0, err
	}
	code, last := b.f.Code, len(b.f.Code)-1
	fusable := last >= start && brfOf[code[last].Op] != opInvalid && code[last].A == rc.Idx
	for j := start; fusable && j < last; j++ {
		fusable = code[j].Op != OpScAnd && code[j].Op != OpScOr && code[j].Op != OpLoadNodeIdxBegin
	}
	if !fusable {
		return b.emit(cond.Pos(), Instr{Op: OpBr, A: rc.Idx}), nil
	}
	cmp := code[last]
	code[last] = Instr{Op: brfOf[cmp.Op], A: cmp.B, B: cmp.C}
	for j := start; j < last && (cmp.Op == OpEqNode || cmp.Op == OpNeNode); j++ {
		// A NULL literal's temp is written once, by its const.null.
		if in := code[j]; in.Op == OpConstNull && (in.A == cmp.B || in.A == cmp.C) {
			code[last] = Instr{Op: OpBrfNull, A: cmp.B + cmp.C - in.A} // the other operand
			if cmp.Op == OpNeNode {
				code[last].Op = OpBrfNonNull
			}
			b.f.Code = append(code[:j], code[j+1:]...)
			b.f.Pos = append(b.f.Pos[:j], b.f.Pos[j+1:]...)
			return int32(last - 1), nil
		}
	}
	return int32(last), nil
}

func packOffName(off, name int32) int64 {
	return int64(off)<<32 | int64(uint32(name))
}

// UnpackOffName splits an Imm packed by the lowering for the indexed
// pointer-access opcodes.
func UnpackOffName(imm int64) (off int, name int32) {
	return int(imm >> 32), int32(uint32(imm))
}

// ---------------------------------------------------------------------------
// Expressions

// operand yields a register holding e's value: a variable's home
// register, read in place without a move, or a fresh temporary.
func (b *builder) operand(e lang.Expr) (Reg, error) {
	if id, ok := e.(*lang.Ident); ok {
		return b.slot(id)
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
func (b *builder) realOperand(e lang.Expr) (Reg, error) {
	if isReal(e.Type()) {
		return b.operand(e)
	}
	if lit, ok := e.(*lang.IntLit); ok {
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

// operandAs is realOperand when real, operand otherwise.
func (b *builder) operandAs(e lang.Expr, real bool) (Reg, error) {
	if real {
		return b.realOperand(e)
	}
	return b.operand(e)
}

// evalIntoReal evaluates a statically-int expression into a real
// destination register.
func (b *builder) evalIntoReal(e lang.Expr, dst Reg) error {
	if isReal(e.Type()) {
		return b.evalInto(e, dst)
	}
	if lit, ok := e.(*lang.IntLit); ok {
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
func (b *builder) evalInto(e lang.Expr, dst Reg) error {
	pos := e.Pos()
	switch e := e.(type) {
	case *lang.Ident:
		src, err := b.slot(e)
		if err != nil {
			return err
		}
		b.emit(pos, Instr{Op: movOps[src.Bank], A: dst.Idx, B: src.Idx})
		return nil

	case *lang.IntLit:
		b.emit(pos, Instr{Op: OpConstInt, A: dst.Idx, Imm: e.Val})
		return nil
	case *lang.RealLit:
		b.emit(pos, Instr{Op: OpConstReal, A: dst.Idx, Fv: e.Val})
		return nil
	case *lang.BoolLit:
		imm := int64(0)
		if e.Val {
			imm = 1
		}
		b.emit(pos, Instr{Op: OpConstBool, A: dst.Idx, Imm: imm})
		return nil
	case *lang.NullLit:
		b.emit(pos, Instr{Op: OpConstNull, A: dst.Idx})
		return nil

	case *lang.NewExpr:
		if e.Decl == nil {
			return fmt.Errorf("%s: new of unknown type %q", pos, e.TypeName)
		}
		site := int32(len(b.f.News))
		b.f.News = append(b.f.News, e.Decl)
		b.emit(pos, Instr{Op: OpNew, A: dst.Idx, B: site})
		return nil

	case *lang.FieldExpr:
		return b.load(e, dst)

	case *lang.CallExpr:
		return b.call(e, dst)

	case *lang.BinExpr:
		return b.bin(e, dst)

	case *lang.UnExpr:
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

func (b *builder) load(e *lang.FieldExpr, dst Reg) error {
	pos := e.Pos()
	if err := b.field(e); err != nil {
		return err
	}
	rb, err := b.operand(e.X)
	if err != nil {
		return err
	}
	name := b.name(e)
	if !isPtr(e.Type()) {
		op := loadOps[BankOf(e.Type())]
		if op == opInvalid {
			return fmt.Errorf("%s: data field %s has unbankable type %v", pos, e.Field, e.Type())
		}
		b.emit(pos, Instr{Op: op, A: dst.Idx, B: rb.Idx, C: e.Off,
			Imm: int64(name)})
		return nil
	}
	if e.Index == nil {
		b.emit(pos, Instr{Op: OpLoadNode, A: dst.Idx, B: rb.Idx, C: e.Off,
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

func (b *builder) call(e *lang.CallExpr, dst Reg) error {
	pos := e.Pos()
	switch e.Func {
	case "sqrt", "abs":
		r, err := b.realOperand(e.Args[0])
		if err != nil {
			return err
		}
		op := OpSqrt
		if e.Func == "abs" {
			op = OpAbs
		}
		b.emit(pos, Instr{Op: op, A: dst.Idx, B: r.Idx})
		return nil
	case "rand":
		b.emit(pos, Instr{Op: OpRand, A: dst.Idx})
		return nil
	case "print":
		return fmt.Errorf("%s: print in value position", pos)
	}
	return b.userCall(e, dst)
}

func (b *builder) userCall(e *lang.CallExpr, dst Reg) error {
	idx, f := b.callee(e)
	if f == nil {
		return fmt.Errorf("%s: call to unknown function %q", e.Pos(), e.Func)
	}
	// Arguments evaluate in order into their source registers (variable
	// homes pass through untouched). The VM copies them into the callee
	// frame.
	params := f.Params
	args := b.argRegs(len(e.Args))
	for i, a := range e.Args {
		r, err := b.operandAs(a, isReal(params[i].Type))
		if err != nil {
			return err
		}
		args[i] = r
	}
	site := int32(len(b.f.Calls))
	b.f.Calls = append(b.f.Calls, CallSite{FuncIdx: idx, Args: args, Dst: dst})
	b.emit(e.Pos(), Instr{Op: OpCall, A: site})
	return nil
}

// printCall lowers a print: a string literal argument is its index
// in the function's Strs pool (Bank BankStr), any other argument a
// register.
func (b *builder) printCall(e *lang.CallExpr) error {
	args := b.argRegs(len(e.Args))
	for i, a := range e.Args {
		if s, ok := a.(*lang.StrLit); ok {
			args[i] = Reg{Bank: BankStr, Idx: b.str(s.Val)}
			continue
		}
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

func (b *builder) bin(e *lang.BinExpr, dst Reg) error {
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
	case isPtr(xt) || isPtr(yt):
		return b.cmp2(e, dst, OpEqNode, OpNeNode)
	case isBool(xt) && isBool(yt):
		return b.cmp2(e, dst, OpEqBool, OpNeBool)
	default:
		return b.arith(e, dst, isReal(xt) || isReal(yt))
	}
}

// cmp2 lowers an == / != over same-bank operands.
func (b *builder) cmp2(e *lang.BinExpr, dst Reg, eqOp, neOp Op) error {
	rx, err := b.operand(e.X)
	if err != nil {
		return err
	}
	ry, err := b.operand(e.Y)
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

// arithOps gives each arithmetic or comparison operator its int and its
// real opcode (none for % on reals).
var arithOps = [lang.OR + 1][2]Op{
	lang.PLUS: {OpAddInt, OpAddReal}, lang.MINUS: {OpSubInt, OpSubReal}, lang.STAR: {OpMulInt, OpMulReal},
	lang.SLASH: {OpDivInt, OpDivReal}, lang.PERCENT: {OpModInt},
	lang.EQ: {OpEqInt, OpEqReal}, lang.NEQ: {OpNeInt, OpNeReal}, lang.LT: {OpLtInt, OpLtReal},
	lang.LE: {OpLeInt, OpLeReal}, lang.GT: {OpGtInt, OpGtReal}, lang.GE: {OpGeInt, OpGeReal},
}

// arith lowers an int arithmetic or comparison, or with real a real one
// (whose int operands widen).
func (b *builder) arith(e *lang.BinExpr, dst Reg, real bool) error {
	rx, err := b.operandAs(e.X, real)
	if err != nil {
		return err
	}
	ry, err := b.operandAs(e.Y, real)
	if err != nil {
		return err
	}
	kind, what := 0, "int"
	if real {
		kind, what = 1, "real"
	}
	var op Op
	if e.Op >= 0 && e.Op < lang.Token(len(arithOps)) {
		op = arithOps[e.Op][kind]
	}
	if op == opInvalid {
		return fmt.Errorf("%s: bad %s op %s", e.Pos(), what, e.Op)
	}
	b.emit(e.Pos(), Instr{Op: op, A: dst.Idx, B: rx.Idx, C: ry.Idx})
	return nil
}
