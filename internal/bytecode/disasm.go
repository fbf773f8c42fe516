// Disassembly: a stable, diffable text form of lowered programs. The
// golden tests under testdata/ pin it, so codegen changes surface as
// reviewable text diffs rather than silent instruction-stream churn.
package bytecode

import (
	"fmt"
	"strings"
)

// opNames is the mnemonic table, indexed by Op.
var opNames = [opCount]string{
	OpConstInt:  "const.int",
	OpConstReal: "const.real",
	OpConstBool: "const.bool",
	OpConstStr:  "const.str",
	OpConstNull: "const.null",
	OpMovInt:    "mov.int",
	OpMovReal:   "mov.real",
	OpMovBool:   "mov.bool",
	OpMovStr:    "mov.str",
	OpMovNode:   "mov.node",
	OpIntToReal: "i2r",

	OpStep:       "step",
	OpJump:       "jump",
	OpBr:         "br.false",
	OpScAnd:      "sc.and",
	OpScOr:       "sc.or",
	OpForHead:    "for.head",
	OpForTail:    "for.tail",
	OpForall:     "forall",
	OpCall:       "call",
	OpPrint:      "print",
	OpReturnVoid: "ret",
	OpReturnInt:  "ret.int",
	OpReturnReal: "ret.real",
	OpReturnBool: "ret.bool",
	OpReturnStr:  "ret.str",
	OpReturnNode: "ret.node",

	OpAddInt: "add.int",
	OpSubInt: "sub.int",
	OpMulInt: "mul.int",
	OpDivInt: "div.int",
	OpModInt: "mod.int",
	OpNegInt: "neg.int",
	OpEqInt:  "eq.int",
	OpNeInt:  "ne.int",
	OpLtInt:  "lt.int",
	OpLeInt:  "le.int",
	OpGtInt:  "gt.int",
	OpGeInt:  "ge.int",

	OpAddReal: "add.real",
	OpSubReal: "sub.real",
	OpMulReal: "mul.real",
	OpDivReal: "div.real",
	OpNegReal: "neg.real",
	OpEqReal:  "eq.real",
	OpNeReal:  "ne.real",
	OpLtReal:  "lt.real",
	OpLeReal:  "le.real",
	OpGtReal:  "gt.real",
	OpGeReal:  "ge.real",

	OpNot:    "not",
	OpEqBool: "eq.bool",
	OpNeBool: "ne.bool",
	OpEqStr:  "eq.str",
	OpNeStr:  "ne.str",
	OpEqNode: "eq.node",
	OpNeNode: "ne.node",

	OpNew:               "new",
	OpLoadInt:           "load.int",
	OpLoadReal:          "load.real",
	OpLoadBool:          "load.bool",
	OpLoadNode:          "load.node",
	OpLoadNodeIdxBegin:  "load.node.idx?",
	OpLoadNodeIdx:       "load.node.idx",
	OpStoreInt:          "store.int",
	OpStoreReal:         "store.real",
	OpStoreBool:         "store.bool",
	OpStoreNode:         "store.node",
	OpStoreNodeIdxBegin: "store.node.idx?",
	OpStoreNodeIdx:      "store.node.idx",

	OpSqrt: "sqrt",
	OpAbs:  "abs",
	OpRand: "rand",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Disassemble renders a program as stable text: one function per
// block, one instruction per line with source position, followed by
// the function's site tables.
func Disassemble(p *Program) string {
	var sb strings.Builder
	for i, f := range p.Funcs {
		if i > 0 {
			sb.WriteByte('\n')
		}
		disasmFunc(&sb, f)
	}
	return sb.String()
}

func disasmFunc(sb *strings.Builder, f *Func) {
	fmt.Fprintf(sb, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, "%s %s%d:%s", p.Name, p.Reg.Bank, p.Reg.Idx, p.Type)
	}
	sb.WriteString(")")
	if f.Result != nil {
		fmt.Fprintf(sb, " %s", f.Result)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(sb, "  banks: int=%d real=%d bool=%d str=%d node=%d\n",
		f.NInt, f.NReal, f.NBool, f.NStr, f.NNode)
	for pc, in := range f.Code {
		fmt.Fprintf(sb, "  %4d  %-44s ; %s\n", pc, instrText(f, in), f.Pos[pc])
	}
	for i, s := range f.Foralls {
		fmt.Fprintf(sb, "  forall[%d]: from=i%d to=i%d var=i%d body=[%d,%d)%s\n",
			i, s.From, s.To, s.Var, s.BodyStart, s.BodyEnd, vecVerdict(s))
		if s.Kernel != nil {
			disasmKernel(sb, i, s.Kernel)
		}
	}
	for i, c := range f.Calls {
		fmt.Fprintf(sb, "  call[%d]: fn=%d args=%s dst=%s\n", i, c.FuncIdx, regList(c.Args), regOrNone(c.Dst))
	}
	for i, pr := range f.Prints {
		fmt.Fprintf(sb, "  print[%d]: args=%s\n", i, regList(pr.Args))
	}
	for i, n := range f.News {
		fmt.Fprintf(sb, "  new[%d]: %s\n", i, n.TypeName)
	}
}

func regList(rs []Reg) string {
	var parts []string
	for _, r := range rs {
		parts = append(parts, fmt.Sprintf("%s%d", r.Bank, r.Idx))
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func regOrNone(r Reg) string {
	if r.Bank == BankNone {
		return "_"
	}
	return fmt.Sprintf("%s%d", r.Bank, r.Idx)
}

func instrText(f *Func, in Instr) string {
	op := in.Op.String()
	switch in.Op {
	case OpConstInt:
		return fmt.Sprintf("%-16s i%d, %d", op, in.A, in.Imm)
	case OpConstReal:
		return fmt.Sprintf("%-16s f%d, %g", op, in.A, in.Fv)
	case OpConstBool:
		return fmt.Sprintf("%-16s b%d, %t", op, in.A, in.Imm != 0)
	case OpConstStr:
		return fmt.Sprintf("%-16s s%d, %q", op, in.A, f.Strs[in.B])
	case OpConstNull:
		return fmt.Sprintf("%-16s n%d", op, in.A)
	case OpMovInt:
		return fmt.Sprintf("%-16s i%d, i%d", op, in.A, in.B)
	case OpMovReal:
		return fmt.Sprintf("%-16s f%d, f%d", op, in.A, in.B)
	case OpMovBool:
		return fmt.Sprintf("%-16s b%d, b%d", op, in.A, in.B)
	case OpMovStr:
		return fmt.Sprintf("%-16s s%d, s%d", op, in.A, in.B)
	case OpMovNode:
		return fmt.Sprintf("%-16s n%d, n%d", op, in.A, in.B)
	case OpIntToReal:
		return fmt.Sprintf("%-16s f%d, i%d", op, in.A, in.B)

	case OpStep:
		return op
	case OpJump:
		return fmt.Sprintf("%-16s ->%d", op, in.Imm)
	case OpBr:
		return fmt.Sprintf("%-16s b%d, ->%d", op, in.A, in.Imm)
	case OpScAnd, OpScOr:
		return fmt.Sprintf("%-16s b%d, ->%d", op, in.A, in.Imm)
	case OpForHead:
		return fmt.Sprintf("%-16s k=i%d to=i%d var=i%d ->%d", op, in.A, in.B, in.C, in.Imm)
	case OpForTail:
		return fmt.Sprintf("%-16s k=i%d ->%d", op, in.A, in.Imm)
	case OpForall:
		return fmt.Sprintf("%-16s forall[%d]", op, in.A)
	case OpCall:
		return fmt.Sprintf("%-16s call[%d]", op, in.A)
	case OpPrint:
		return fmt.Sprintf("%-16s print[%d]", op, in.A)
	case OpReturnVoid:
		return op
	case OpReturnInt:
		return fmt.Sprintf("%-16s i%d", op, in.A)
	case OpReturnReal:
		return fmt.Sprintf("%-16s f%d", op, in.A)
	case OpReturnBool:
		return fmt.Sprintf("%-16s b%d", op, in.A)
	case OpReturnStr:
		return fmt.Sprintf("%-16s s%d", op, in.A)
	case OpReturnNode:
		return fmt.Sprintf("%-16s n%d", op, in.A)

	case OpAddInt, OpSubInt, OpMulInt, OpDivInt, OpModInt:
		return fmt.Sprintf("%-16s i%d, i%d, i%d", op, in.A, in.B, in.C)
	case OpNegInt:
		return fmt.Sprintf("%-16s i%d, i%d", op, in.A, in.B)
	case OpEqInt, OpNeInt, OpLtInt, OpLeInt, OpGtInt, OpGeInt:
		return fmt.Sprintf("%-16s b%d, i%d, i%d", op, in.A, in.B, in.C)

	case OpAddReal, OpSubReal, OpMulReal, OpDivReal:
		return fmt.Sprintf("%-16s f%d, f%d, f%d", op, in.A, in.B, in.C)
	case OpNegReal:
		return fmt.Sprintf("%-16s f%d, f%d", op, in.A, in.B)
	case OpEqReal, OpNeReal, OpLtReal, OpLeReal, OpGtReal, OpGeReal:
		return fmt.Sprintf("%-16s b%d, f%d, f%d", op, in.A, in.B, in.C)

	case OpNot:
		return fmt.Sprintf("%-16s b%d, b%d", op, in.A, in.B)
	case OpEqBool, OpNeBool:
		return fmt.Sprintf("%-16s b%d, b%d, b%d", op, in.A, in.B, in.C)
	case OpEqStr, OpNeStr:
		return fmt.Sprintf("%-16s b%d, s%d, s%d", op, in.A, in.B, in.C)
	case OpEqNode, OpNeNode:
		return fmt.Sprintf("%-16s b%d, n%d, n%d", op, in.A, in.B, in.C)

	case OpNew:
		return fmt.Sprintf("%-16s n%d, new[%d]", op, in.A, in.B)
	case OpLoadInt:
		return fmt.Sprintf("%-16s i%d, n%d.%s@%d", op, in.A, in.B, f.Names[in.Imm], in.C)
	case OpLoadReal:
		return fmt.Sprintf("%-16s f%d, n%d.%s@%d", op, in.A, in.B, f.Names[in.Imm], in.C)
	case OpLoadBool:
		return fmt.Sprintf("%-16s b%d, n%d.%s@%d", op, in.A, in.B, f.Names[in.Imm], in.C)
	case OpLoadNode:
		return fmt.Sprintf("%-16s n%d, n%d.%s@%d", op, in.A, in.B, f.Names[in.Imm], in.C)
	case OpLoadNodeIdxBegin:
		return fmt.Sprintf("%-16s n%d, n%d.%s null->%d", op, in.A, in.B, f.Names[in.C], in.Imm)
	case OpLoadNodeIdx:
		off, name := UnpackOffName(in.Imm)
		return fmt.Sprintf("%-16s n%d, n%d.%s@%d[i%d]", op, in.A, in.B, f.Names[name], off, in.C)
	case OpStoreInt:
		return fmt.Sprintf("%-16s n%d.%s@%d, i%d", op, in.A, f.Names[in.Imm], in.C, in.B)
	case OpStoreReal:
		return fmt.Sprintf("%-16s n%d.%s@%d, f%d", op, in.A, f.Names[in.Imm], in.C, in.B)
	case OpStoreBool:
		return fmt.Sprintf("%-16s n%d.%s@%d, b%d", op, in.A, f.Names[in.Imm], in.C, in.B)
	case OpStoreNode:
		return fmt.Sprintf("%-16s n%d.%s@%d, n%d", op, in.A, f.Names[in.Imm], in.C, in.B)
	case OpStoreNodeIdxBegin:
		return fmt.Sprintf("%-16s n%d", op, in.A)
	case OpStoreNodeIdx:
		off, name := UnpackOffName(in.Imm)
		return fmt.Sprintf("%-16s n%d.%s@%d[i%d], n%d", op, in.A, f.Names[name], off, in.C, in.B)

	case OpSqrt, OpAbs:
		return fmt.Sprintf("%-16s f%d, f%d", op, in.A, in.B)
	case OpRand:
		return fmt.Sprintf("%-16s f%d", op, in.A)
	}
	return fmt.Sprintf("%-16s A=%d B=%d C=%d Imm=%d", op, in.A, in.B, in.C, in.Imm)
}
