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

var goldenFiles = []string{"barneshut", "kernels", "links", "strips"}

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

// bankSize returns the register count of one bank of f; BankStr's
// indexes are a print's string literals in the Strs pool.
func bankSize(f *Func, b Bank) int32 {
	switch b {
	case BankInt:
		return int32(f.NInt)
	case BankReal:
		return int32(f.NReal)
	case BankBool:
		return int32(f.NBool)
	case BankStr:
		return int32(len(f.Strs))
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
				if in.Op >= OpBrfEqInt && in.Op <= OpBrfNonNull && (in.Imm < 0 || in.Imm > n) {
					t.Errorf("%s@%d: %s target %d outside [0,%d]", f.Name, pc, in.Op, in.Imm, n)
				}
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
				}
			}
		}
	}
}

// TestCondBranchFusion pins which if conditions branch in one brf
// instruction and which keep the compare and br.false because their code
// holds a jump.
func TestCondBranchFusion(t *testing.T) {
	for _, c := range []struct{ cond, want string }{
		{"i == j", "brf.eq.int"},
		{"i >= 2", "brf.ge.int"},
		{"x < y", "brf.lt.real"},
		{"x != i", "brf.ne.real"},
		{"x < x", "brf.lt.real"},
		{"p == q", "brf.eq.node"},
		{"p == NULL", "brf.null"},
		{"NULL == p", "brf.null"},
		{"p->next != NULL", "brf.nonnull"},
		{"NULL != p->next", "brf.nonnull"},
		{"ok", "br.false"},
		{"ok == true", "br.false"},
		{"i < j && x < y", "br.false"},
		{"ok || p == q", "br.false"},
		{"p->sub[i] != NULL", "br.false"},
	} {
		src := `type T [X][Y] { T *next is uniquely forward along X; T *sub[2] is uniquely forward along Y; };
procedure f(int i, int j, real x, real y, bool ok, T *p, T *q) {
  if ` + c.cond + ` { i = 1; }
}`
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", c.cond, err)
		}
		cp, err := compile.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		bp, err := Compile(cp)
		if err != nil {
			t.Fatal(err)
		}
		code := bp.Func("f").Code
		// The branch is the last instruction before the then-block's step.
		var got string
		for pc := len(code) - 1; pc > 0; pc-- {
			if code[pc].Op == OpStep && code[pc-1].Op != OpStep {
				got = code[pc-1].Op.String()
				break
			}
		}
		if got != c.want {
			t.Errorf("if %s: branches with %s, want %s\n%s", c.cond, got, c.want, Disassemble(bp))
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

// args counts the argument registers of f's calls and prints.
func args(f *Func) int {
	n := 0
	for _, c := range f.Calls {
		n += len(c.Args)
	}
	for _, p := range f.Prints {
		n += len(p.Args)
	}
	return n
}

// TestCodeSizedOnce: the pre-walk's count bounds every function's code,
// so Code and Pos are allocated once, at the counted size, and never
// grow, and it counts each site table exactly. The bound stays close:
// over the golden programs it overshoots the code by under a quarter.
func TestCodeSizedOnce(t *testing.T) {
	var code, bound int
	for _, name := range goldenFiles {
		src, err := os.ReadFile(filepath.Join("testdata", name+".psl"))
		if err != nil {
			t.Fatal(err)
		}
		cp, err := compile.Compile(lang.MustParse(string(src)))
		if err != nil {
			t.Fatal(err)
		}
		bp, err := Compile(cp)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range bp.Funcs {
			b := &builder{cp: cp, fn: cp.Funcs[i], slotReg: make([]Reg, len(cp.Funcs[i].Vars)),
				names: make([]nameRef, cp.Lang.Names().Len()), fnNum: int32(i) + 1}
			b.assignSlots(b.fn.Body.Stmts)
			n := b.n
			if len(f.Code) > n.code || cap(f.Code) != n.code || cap(f.Pos) != n.code {
				t.Errorf("%s/%s: %d instructions in Code of cap %d, Pos of cap %d; counted %d",
					name, f.Name, len(f.Code), cap(f.Code), cap(f.Pos), n.code)
			}
			for _, c := range []struct {
				what      string
				len, want int
			}{
				{"calls", len(f.Calls), n.calls}, {"prints", len(f.Prints), n.prints},
				{"foralls", len(f.Foralls), n.foralls}, {"news", len(f.News), n.news},
				{"field names", len(f.Names), n.names}, {"arguments", args(f), n.args},
			} {
				if c.len != c.want {
					t.Errorf("%s/%s: %d %s, counted %d", name, f.Name, c.len, c.what, c.want)
				}
			}
			code += len(f.Code)
			bound += n.code
		}
	}
	t.Logf("%d instructions, bound %d (%.3fx)", code, bound, float64(bound)/float64(code))
	if 4*bound > 5*code {
		t.Errorf("the bound %d overshoots %d instructions by over a quarter", bound, code)
	}
}
