// Structural tests for the lowering pass, plus golden disassembly
// snapshots. The semantic contract (bit-identical results, output and
// step accounting against the walker) is pinned by the engine grid in
// the repository root (equivalence_test.go) and
// the differential fuzzer in internal/interp; this file checks the
// invariants the VM relies on — well-formed jump targets, in-range
// site-table and register references — and freezes the instruction
// selection itself under testdata/*.golden so codegen changes are
// reviewed as diffs.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/bytecode -run TestDisassembleGolden -update
package bytecode

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"repro/internal/compile"
	"repro/internal/lang"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

var goldenFiles = []string{"kernels", "links", "strips"}

func compileFile(t *testing.T, name string) *Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := compile.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := Compile(cp)
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func TestDisassembleGolden(t *testing.T) {
	for _, name := range goldenFiles {
		name := name
		t.Run(name, func(t *testing.T) {
			got := Disassemble(compileFile(t, name+".psl"))
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/bytecode -run TestDisassembleGolden -update` to create the snapshots)", err)
			}
			if got != string(want) {
				t.Errorf("disassembly drifted from %s.\nIf the codegen change is intentional, rerun with -update.\n--- got ---\n%s\n--- want ---\n%s",
					path, got, want)
			}
		})
	}
}

// bankSize returns the register count of one bank of f.
func bankSize(f *Func, b Bank) int32 {
	switch b {
	case BankInt:
		return int32(f.NInt)
	case BankReal:
		return int32(f.NReal)
	case BankBool:
		return int32(f.NBool)
	case BankStr:
		return int32(f.NStr)
	case BankNode:
		return int32(f.NNode)
	}
	return 0
}

func checkReg(t *testing.T, f *Func, what string, r Reg) {
	t.Helper()
	if r.Bank == BankNone {
		t.Errorf("%s/%s: unbanked register", f.Name, what)
		return
	}
	if r.Idx < 0 || r.Idx >= bankSize(f, r.Bank) {
		t.Errorf("%s/%s: register %s%d out of bank range %d", f.Name, what, r.Bank, r.Idx, bankSize(f, r.Bank))
	}
}

// TestCompileInvariants checks the well-formedness the VM assumes and
// never re-verifies at run time: Pos parallel to Code, jump targets
// inside the function, site-table references in range, parameters
// homed inside their banks.
func TestCompileInvariants(t *testing.T) {
	// An instruction is four words: opcode and three operands, Imm, Fv.
	// A fifth operand (the cost fold the VM no longer carries) made it
	// five.
	if sz := unsafe.Sizeof(Instr{}); sz != 32 {
		t.Errorf("unsafe.Sizeof(Instr{}) = %d, want 32", sz)
	}
	for _, name := range goldenFiles {
		bp := compileFile(t, name+".psl")
		for _, f := range bp.Funcs {
			if len(f.Pos) != len(f.Code) {
				t.Fatalf("%s: Pos length %d != Code length %d", f.Name, len(f.Pos), len(f.Code))
			}
			n := int64(len(f.Code))
			for _, p := range f.Params {
				checkReg(t, f, "param "+p.Name, p.Reg)
			}
			for pc, in := range f.Code {
				switch in.Op {
				case OpJump, OpBr, OpScAnd, OpScOr, OpForHead, OpForTail, OpLoadNodeIdxBegin:
					if in.Imm < 0 || in.Imm > n {
						t.Errorf("%s@%d: %s target %d outside [0,%d]", f.Name, pc, in.Op, in.Imm, n)
					}
				case OpForall:
					s := f.Foralls[in.A]
					if s.BodyStart < 0 || s.BodyEnd < s.BodyStart || int64(s.BodyEnd) > n {
						t.Errorf("%s@%d: forall body [%d,%d) outside [0,%d]", f.Name, pc, s.BodyStart, s.BodyEnd, n)
					}
				case OpCall:
					s := f.Calls[in.A]
					if int(s.FuncIdx) < 0 || int(s.FuncIdx) >= len(bp.Funcs) {
						t.Errorf("%s@%d: call FuncIdx %d out of range", f.Name, pc, s.FuncIdx)
					}
					callee := bp.Funcs[s.FuncIdx]
					if len(s.Args) != len(callee.Params) {
						t.Errorf("%s@%d: call to %s with %d args, want %d", f.Name, pc, callee.Name, len(s.Args), len(callee.Params))
					}
					for i, a := range s.Args {
						checkReg(t, f, "call arg", a)
						if i < len(callee.Params) && a.Bank != callee.Params[i].Reg.Bank {
							t.Errorf("%s@%d: call arg %d bank %s != param bank %s", f.Name, pc, i, a.Bank, callee.Params[i].Reg.Bank)
						}
					}
					if s.Dst.Bank != BankNone {
						checkReg(t, f, "call dst", s.Dst)
					}
				case OpPrint:
					for _, a := range f.Prints[in.A].Args {
						checkReg(t, f, "print arg", a)
					}
				case OpNew:
					if int(in.B) < 0 || int(in.B) >= len(f.News) {
						t.Errorf("%s@%d: new site %d out of range", f.Name, pc, in.B)
					}
				case OpConstStr:
					if int(in.B) < 0 || int(in.B) >= len(f.Strs) {
						t.Errorf("%s@%d: string pool index %d out of range", f.Name, pc, in.B)
					}
				}
			}
		}
	}
}

// TestBankOf pins the slot-type → bank mapping the whole lowering
// hangs off.
func TestBankOf(t *testing.T) {
	cases := []struct {
		typ  lang.Type
		want Bank
	}{
		{lang.Int, BankInt},
		{lang.Real, BankReal},
		{lang.Bool, BankBool},
		{lang.String, BankStr},
		{&lang.Pointer{Elem: "Grid"}, BankNode},
		{nil, BankNone},
	}
	for _, c := range cases {
		if got := BankOf(c.typ); got != c.want {
			t.Errorf("BankOf(%v) = %v, want %v", c.typ, got, c.want)
		}
	}
}

// TestFuncLookup pins Program.Func's behavior for present and absent
// names.
func TestFuncLookup(t *testing.T) {
	bp := compileFile(t, "links.psl")
	if f := bp.Func("scale"); f == nil || f.Name != "scale" {
		t.Fatalf("Func(scale) = %v", f)
	}
	if f := bp.Func("nonexistent"); f != nil {
		t.Fatalf("Func(nonexistent) = %v, want nil", f)
	}
}
