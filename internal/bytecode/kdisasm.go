// Kernel disassembly: the vector half of disasm.go, pinned by the same
// golden files.
package bytecode

import (
	"fmt"
	"strings"
)

// kopNames is the kernel mnemonic table, indexed by KOp.
var kopNames = [kopCount]string{
	KParamInt:  "kparam.int",
	KParamReal: "kparam.real",
	KParamBool: "kparam.bool",

	KConstInt:  "kconst.int",
	KConstReal: "kconst.real",
	KConstBool: "kconst.bool",
	KMovInt:    "kmov.int",
	KMovReal:   "kmov.real",
	KMovBool:   "kmov.bool",
	KIntToReal: "ki2r",

	KAddInt: "kadd.int",
	KSubInt: "ksub.int",
	KMulInt: "kmul.int",
	KDivInt: "kdiv.int",
	KModInt: "kmod.int",
	KNegInt: "kneg.int",
	KEqInt:  "keq.int",
	KNeInt:  "kne.int",
	KLtInt:  "klt.int",
	KLeInt:  "kle.int",
	KGtInt:  "kgt.int",
	KGeInt:  "kge.int",

	KAddReal: "kadd.real",
	KSubReal: "ksub.real",
	KMulReal: "kmul.real",
	KDivReal: "kdiv.real",
	KNegReal: "kneg.real",
	KEqReal:  "keq.real",
	KNeReal:  "kne.real",
	KLtReal:  "klt.real",
	KLeReal:  "kle.real",
	KGtReal:  "kgt.real",
	KGeReal:  "kge.real",

	KNot:     "knot",
	KEqBool:  "keq.bool",
	KNeBool:  "kne.bool",
	KAndBool: "kand.bool",
	KOrBool:  "kor.bool",

	KSqrt: "ksqrt",
	KAbs:  "kabs",

	KMaskAnd:    "kmask.and",
	KMaskAndNot: "kmask.andnot",
	KStep:       "kstep",
}

// String returns the kernel opcode mnemonic.
func (o KOp) String() string {
	if int(o) < len(kopNames) && kopNames[o] != "" {
		return kopNames[o]
	}
	return fmt.Sprintf("kop(%d)", int(o))
}

// vecVerdict is the suffix on a forall site line: the strip's
// vectorization verdict, with the concrete reason when rejected.
func vecVerdict(s ForallSite) string {
	if s.Kernel != nil {
		return " vec=kernel"
	}
	if s.VectorReason != "" {
		return fmt.Sprintf(" vec=no (%s)", s.VectorReason)
	}
	return ""
}

// disasmStrip renders one forall site's strip line.
func disasmStrip(sb *strings.Builder, site int, st *Strip) {
	fmt.Fprintf(sb, "  forall[%d] strip: helper=%d call=%d advance=%s@%d guard=%d args-in-regs=%t\n",
		site, st.HelperIdx, st.CallSite, st.AdvanceName, st.AdvanceOff, st.GuardPC, st.ArgsInRegs)
}

// disasmKernel renders one forall site's kernel block.
func disasmKernel(sb *strings.Builder, site int, st *Strip, k *Kernel) {
	fmt.Fprintf(sb, "  forall[%d] kernel: helper=%d call=%d advance=%s@%d steps/lane=%d\n",
		site, st.HelperIdx, st.CallSite, st.AdvanceName, st.AdvanceOff, k.NSteps)
	fmt.Fprintf(sb, "    slabs: int=%d real=%d bool=%d rootmask=b%d\n", k.NInt, k.NReal, k.NBool, k.RootMask)
	var fields []string
	for _, f := range k.Fields {
		star := ""
		if f.Stored {
			star = "*"
		}
		fields = append(fields, fmt.Sprintf("%s%d=%s@%d%s", f.Bank, f.Slab, f.Name, f.Off, star))
	}
	fmt.Fprintf(sb, "    fields: %s\n", strings.Join(fields, " "))
	fmt.Fprintf(sb, "    prologue:\n")
	for pc, in := range k.Prologue {
		fmt.Fprintf(sb, "    %4d  %s\n", pc, kinstrText(in))
	}
	fmt.Fprintf(sb, "    code:\n")
	for pc, in := range k.Code {
		fmt.Fprintf(sb, "    %4d  %s\n", pc, kinstrText(in))
	}
}

// kmask renders the governing-mask suffix, quiet when unmasked.
func kmask(m int32) string {
	if m == kNoMask {
		return ""
	}
	return fmt.Sprintf("  @b%d", m)
}

func kinstrText(in KInstr) string {
	op := in.Op.String()
	switch in.Op {
	case KParamInt:
		return fmt.Sprintf("%-16s i%d, arg[%d]", op, in.A, in.B)
	case KParamReal:
		return fmt.Sprintf("%-16s f%d, arg[%d]", op, in.A, in.B)
	case KParamBool:
		return fmt.Sprintf("%-16s b%d, arg[%d]", op, in.A, in.B)

	case KConstInt:
		return fmt.Sprintf("%-16s i%d, %d%s", op, in.A, in.Imm, kmask(in.M))
	case KConstReal:
		return fmt.Sprintf("%-16s f%d, %g%s", op, in.A, in.Fv, kmask(in.M))
	case KConstBool:
		return fmt.Sprintf("%-16s b%d, %t%s", op, in.A, in.Imm != 0, kmask(in.M))
	case KMovInt:
		return fmt.Sprintf("%-16s i%d, i%d%s", op, in.A, in.B, kmask(in.M))
	case KMovReal:
		return fmt.Sprintf("%-16s f%d, f%d%s", op, in.A, in.B, kmask(in.M))
	case KMovBool:
		return fmt.Sprintf("%-16s b%d, b%d%s", op, in.A, in.B, kmask(in.M))
	case KIntToReal:
		return fmt.Sprintf("%-16s f%d, i%d%s", op, in.A, in.B, kmask(in.M))

	case KAddInt, KSubInt, KMulInt, KDivInt, KModInt:
		return fmt.Sprintf("%-16s i%d, i%d, i%d%s", op, in.A, in.B, in.C, kmask(in.M))
	case KNegInt:
		return fmt.Sprintf("%-16s i%d, i%d%s", op, in.A, in.B, kmask(in.M))
	case KEqInt, KNeInt, KLtInt, KLeInt, KGtInt, KGeInt:
		return fmt.Sprintf("%-16s b%d, i%d, i%d%s", op, in.A, in.B, in.C, kmask(in.M))

	case KAddReal, KSubReal, KMulReal, KDivReal:
		return fmt.Sprintf("%-16s f%d, f%d, f%d%s", op, in.A, in.B, in.C, kmask(in.M))
	case KNegReal:
		return fmt.Sprintf("%-16s f%d, f%d%s", op, in.A, in.B, kmask(in.M))
	case KEqReal, KNeReal, KLtReal, KLeReal, KGtReal, KGeReal:
		return fmt.Sprintf("%-16s b%d, f%d, f%d%s", op, in.A, in.B, in.C, kmask(in.M))

	case KNot:
		return fmt.Sprintf("%-16s b%d, b%d%s", op, in.A, in.B, kmask(in.M))
	case KEqBool, KNeBool, KAndBool, KOrBool:
		return fmt.Sprintf("%-16s b%d, b%d, b%d%s", op, in.A, in.B, in.C, kmask(in.M))

	case KSqrt, KAbs:
		return fmt.Sprintf("%-16s f%d, f%d%s", op, in.A, in.B, kmask(in.M))

	case KMaskAnd, KMaskAndNot:
		return fmt.Sprintf("%-16s b%d, b%d, b%d", op, in.A, in.B, in.C)
	case KStep:
		return fmt.Sprintf("%-16s%s", op, kmask(in.M))
	}
	return fmt.Sprintf("%-16s A=%d B=%d C=%d Imm=%d", op, in.A, in.B, in.C, in.Imm)
}
