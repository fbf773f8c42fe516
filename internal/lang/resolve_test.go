package lang_test

// The resolution oracle: every field offset and callee lang.Check
// records on the AST (FieldExpr.Off, CallExpr.Callee) is held to a
// lookup by name — the field's position in its record declaration,
// found by a scan of the record's fields, and the callee's position in
// Program.Funcs, found by a scan of the functions' names.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/parexec"
	"repro/internal/transform"
)

// fieldByName finds e's field in the declaration of its base's record:
// its index in Pointers or Data, and which; -1 if it has none.
func fieldByName(prog *lang.Program, e *lang.FieldExpr) (int, bool) {
	elem, _ := lang.IsPointer(e.X.Type())
	decl := prog.Universe.Decl(elem)
	if decl == nil {
		return -1, false
	}
	for i, pf := range decl.Pointers {
		if pf.Name == e.Field {
			return i, true
		}
	}
	for i, df := range decl.Data {
		if df.Name == e.Field {
			return i, false
		}
	}
	return -1, false
}

// calleeByName is the Callee a call of name must carry: 0 for a
// builtin, the function's index in Funcs plus one, or -1 for no
// function at all.
func calleeByName(prog *lang.Program, name string) int {
	if lang.Builtins[name] != nil {
		return 0
	}
	for i, f := range prog.Funcs {
		if f.Name == name {
			return i + 1
		}
	}
	return -1
}

// resolutionMismatches lists every field access, call and `new` of prog
// whose recorded resolution disagrees with the lookup by name, and
// counts the accesses and calls it compared.
func resolutionMismatches(prog *lang.Program) (bad []string, fields, calls int) {
	for _, f := range prog.Funcs {
		lang.Walk(f.Body, func(s lang.Stmt) bool {
			lang.WalkExprs(s, func(e lang.Expr) {
				switch e := e.(type) {
				case *lang.FieldExpr:
					fields++
					off, isPtr := fieldByName(prog, e)
					_, gotPtr := e.Type().(*lang.Pointer)
					if off != int(e.Off) || isPtr != gotPtr {
						bad = append(bad, fmt.Sprintf("%s: %s: %s->%s has off=%d pointer=%v, by name %d %v",
							e.Pos(), f.Name, e.X.Type(), e.Field, e.Off, gotPtr, off, isPtr))
					}
				case *lang.CallExpr:
					calls++
					if want := calleeByName(prog, e.Func); int(e.Callee) != want {
						bad = append(bad, fmt.Sprintf("%s: %s: call of %s has callee=%d, by name %d",
							e.Pos(), f.Name, e.Func, e.Callee, want))
					}
				case *lang.NewExpr:
					if want := prog.Universe.Decl(e.TypeName); e.Decl != want || want == nil {
						bad = append(bad, fmt.Sprintf("%s: %s: new %s has decl %p, by name %p",
							e.Pos(), f.Name, e.TypeName, e.Decl, want))
					}
				}
			})
			return true
		})
	}
	return bad, fields, calls
}

// resolutionCorpus is the programs the oracle checks: the corpus, the
// paper's programs, the planner's cost workload and two hundred
// generated programs.
func resolutionCorpus(t *testing.T) [][2]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.psl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata: %v (%d files)", err, len(files))
	}
	var out [][2]string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]string{filepath.Base(f), string(src)})
	}
	out = append(out,
		[2]string{"BarnesHutPSL", nbody.BarnesHutPSL},
		[2]string{"VecForcePSL", nbody.VecForcePSL},
		[2]string{"PolyNormalizePSL", parexec.PolyNormalizePSL},
		[2]string{"ManyLoopProgramPSL(10,5)", transform.ManyLoopProgramPSL(10, 5)})
	for seed := int64(1); seed <= 200; seed++ {
		out = append(out, [2]string{fmt.Sprintf("GenLoopProgramPSL(%d)", seed), transform.GenLoopProgramPSL(seed)})
	}
	return out
}

// TestCheckerResolutionMatchesNames holds every field offset and callee
// the checker recorded to the lookup by name, over every program of the
// corpus, unplanned and planned at width 32 — a plan clones the
// functions it rewrites, shares the rest and re-checks only what it
// touched, so a shared body's resolution must hold in the plan too.
func TestCheckerResolutionMatchesNames(t *testing.T) {
	var fields, calls, planned int
	for _, p := range resolutionCorpus(t) {
		prog, err := lang.Parse(p[1])
		if err != nil {
			// A corpus file that does not check has nothing resolved.
			continue
		}
		progs := map[string]*lang.Program{p[0]: prog}
		if plan, err := transform.AutoParallelize(prog, 32); err == nil && plan.Program != prog {
			progs[p[0]+" planned"] = plan.Program
			planned++
		}
		for name, prog := range progs {
			bad, nf, nc := resolutionMismatches(prog)
			if len(bad) > 0 {
				t.Fatalf("%s: the checker's resolution disagrees with the lookup by name:\n%s", name, strings.Join(bad, "\n"))
			}
			fields += nf
			calls += nc
		}
	}
	if fields == 0 || calls == 0 || planned == 0 {
		t.Fatalf("compared %d field accesses and %d calls over %d plans: the corpus lost its programs", fields, calls, planned)
	}
	t.Logf("%d field accesses and %d calls agree (%d planned programs)", fields, calls, planned)
}

// TestResolutionOracleCatchesSwappedFields is the oracle's mutation
// check: with two accesses' offsets swapped, or a call pointed at
// another function, the comparison fails.
func TestResolutionOracleCatchesSwappedFields(t *testing.T) {
	prog := lang.MustParse(`
type R [X] { int data, aux; R *next is uniquely forward along X; };
function int g(R *p) { return p->data; }
procedure f(R *p) {
  p->aux = g(p) + 1;
}
`)
	if bad, _, _ := resolutionMismatches(prog); len(bad) > 0 {
		t.Fatalf("the unmutated program disagrees:\n%s", strings.Join(bad, "\n"))
	}
	asg := prog.Func("f").Body.Stmts[0].(*lang.AssignStmt)
	lhs := asg.LHS.(*lang.FieldExpr)
	read := prog.Func("g").Body.Stmts[0].(*lang.ReturnStmt).Value.(*lang.FieldExpr)
	lhs.Off, read.Off = read.Off, lhs.Off
	bad, _, _ := resolutionMismatches(prog)
	if len(bad) != 2 {
		t.Fatalf("with data and aux swapped the oracle reports %d mismatches, want 2: %v", len(bad), bad)
	}
	lhs.Off, read.Off = read.Off, lhs.Off
	call := asg.RHS.(*lang.BinExpr).X.(*lang.CallExpr)
	call.Callee = 2 // f, not g
	if bad, _, _ := resolutionMismatches(prog); len(bad) != 1 {
		t.Fatalf("with the call pointed at f the oracle reports %v, want one mismatch", bad)
	}
}

// TestFieldOffsets: an access's offset indexes its record declaration's
// Data or Pointers in source order, which one the access's type says;
// a name the record does not declare does not check.
func TestFieldOffsets(t *testing.T) {
	prog := lang.MustParse(`
type OneWayList [X]
{ int data, aux;
  real weight;
  OneWayList *next is uniquely forward along X;
};

procedure touch(OneWayList *p) {
  p->aux = p->data;
  p->weight = 1.5;
  p->next = NULL;
}
`)
	got := map[string]string{}
	lang.Walk(prog.Func("touch").Body, func(s lang.Stmt) bool {
		lang.WalkExprs(s, func(e lang.Expr) {
			if fe, ok := e.(*lang.FieldExpr); ok {
				_, isPtr := fe.Type().(*lang.Pointer)
				got[fe.Field] = fmt.Sprintf("%d %v", fe.Off, isPtr)
			}
		})
		return true
	})
	// weight is the third data field (data, aux, weight); next the
	// first pointer.
	want := map[string]string{"data": "0 false", "aux": "1 false", "weight": "2 false", "next": "0 true"}
	for field, w := range want {
		if got[field] != w {
			t.Errorf("OneWayList.%s resolved to %q, want %q", field, got[field], w)
		}
	}
	if _, err := lang.Parse(`type R [X] { int data; R *next is uniquely forward along X; };
procedure f(R *p) { p->sum = 1; }`); err == nil || !strings.Contains(err.Error(), `has no field "sum"`) {
		t.Errorf("an undeclared field checked: %v", err)
	}
}

// TestBuiltinResolution: a call of a user function resolves to its
// index in program order plus one; a builtin's to 0.
func TestBuiltinResolution(t *testing.T) {
	prog := lang.MustParse(`
function real g(real x) { return sqrt(abs(x)) + rand(); }
function real h(real x) { print("x", x); return g(x); }
`)
	got := map[string][]int32{}
	for _, f := range prog.Funcs {
		lang.Walk(f.Body, func(s lang.Stmt) bool {
			lang.WalkExprs(s, func(e lang.Expr) {
				if c, ok := e.(*lang.CallExpr); ok {
					got[c.Func] = append(got[c.Func], c.Callee)
				}
			})
			return true
		})
	}
	want := map[string][]int32{"sqrt": {0}, "abs": {0}, "rand": {0}, "print": {0}, "g": {1}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("callees = %v, want %v", got, want)
	}
	if prog.Func("g") != prog.Funcs[0] || prog.Func("h") != prog.Funcs[1] || prog.Func("sqrt") != nil {
		t.Error("Func does not return the function at its index")
	}
}
