package interp_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/parexec"
	"repro/internal/transform"
)

// The walker reads every variable through the slot lang.Check resolved
// it to. Before it did, it looked names up in a stack of per-block scope
// maps, and that lookup was the engine grid's one check of the checker's
// shadowing rule that did not go through the checker itself. This file
// keeps the old rule as a test oracle: a lexical resolver over names —
// parameters outermost, one scope per block, each for variable in a
// scope of its own — that every use's and declaration's Slot must agree
// with.

// lexResolver resolves one function's names the way the scope maps did.
type lexResolver struct {
	fn     *lang.FuncDecl
	scopes []map[string]int // name → slot of its declaration, innermost last
	owner  map[int]string   // slot → the declaration that holds it
}

// checkSlots reports the first use or declaration of fn whose Slot is
// not the declaration the lexical rule picks.
func checkSlots(fn *lang.FuncDecl) error {
	r := &lexResolver{fn: fn, owner: map[int]string{}}
	r.open()
	for i, prm := range fn.Params {
		if err := r.declare(fmt.Sprintf("%s: parameter", fn.Pos()), prm.Name, prm.ID, i); err != nil {
			return err
		}
	}
	return r.block(fn.Body)
}

func (r *lexResolver) open()  { r.scopes = append(r.scopes, map[string]int{}) }
func (r *lexResolver) close() { r.scopes = r.scopes[:len(r.scopes)-1] }

// declare binds name in the innermost scope to slot, which must be a
// slot of its own that fn.Vars says holds the name.
func (r *lexResolver) declare(where, name string, id lang.ID, slot int) error {
	if slot < 0 || slot >= len(r.fn.Vars) || r.fn.Vars[slot] != id {
		return fmt.Errorf("%s: %s: declaration of %q has slot %d, which Vars does not give it", r.fn.Name, where, name, slot)
	}
	if prev, ok := r.owner[slot]; ok {
		return fmt.Errorf("%s: %s: declaration of %q shares slot %d with %s", r.fn.Name, where, name, slot, prev)
	}
	r.owner[slot] = where + " " + name
	r.scopes[len(r.scopes)-1][name] = slot
	return nil
}

func (r *lexResolver) use(id *lang.Ident) error {
	for i := len(r.scopes) - 1; i >= 0; i-- {
		if slot, ok := r.scopes[i][id.Name]; ok {
			if id.Slot != slot {
				return fmt.Errorf("%s: %s: use of %q has slot %d, the lexical rule picks %d", r.fn.Name, id.Pos(), id.Name, id.Slot, slot)
			}
			return nil
		}
	}
	return fmt.Errorf("%s: %s: use of %q has no declaration in scope", r.fn.Name, id.Pos(), id.Name)
}

func (r *lexResolver) block(b *lang.Block) error {
	r.open()
	defer r.close()
	for _, s := range b.Stmts {
		if err := r.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (r *lexResolver) stmt(s lang.Stmt) error {
	switch s := s.(type) {
	case *lang.Block:
		return r.block(s)
	case *lang.VarStmt:
		if err := r.expr(s.Init); err != nil { // the initializer sees the outer name
			return err
		}
		return r.declare(s.Pos().String(), s.Name, s.ID, s.Slot)
	case *lang.AssignStmt:
		if err := r.expr(s.LHS); err != nil {
			return err
		}
		return r.expr(s.RHS)
	case *lang.WhileStmt:
		if err := r.expr(s.Cond); err != nil {
			return err
		}
		return r.block(s.Body)
	case *lang.IfStmt:
		if err := r.expr(s.Cond); err != nil {
			return err
		}
		if err := r.block(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return r.block(s.Else)
		}
		return nil
	case *lang.ReturnStmt:
		return r.expr(s.Value)
	case *lang.CallStmt:
		return r.expr(s.Call)
	case *lang.ForStmt:
		if err := r.expr(s.From); err != nil {
			return err
		}
		if err := r.expr(s.To); err != nil {
			return err
		}
		r.open()
		defer r.close()
		if err := r.declare(s.Pos().String(), s.Var, s.ID, s.Slot); err != nil {
			return err
		}
		return r.block(s.Body)
	}
	return fmt.Errorf("%s: unknown statement %T", s.Pos(), s)
}

func (r *lexResolver) expr(e lang.Expr) error {
	switch e := e.(type) {
	case *lang.Ident:
		return r.use(e)
	case *lang.FieldExpr:
		if err := r.expr(e.X); err != nil {
			return err
		}
		return r.expr(e.Index)
	case *lang.CallExpr:
		for _, a := range e.Args {
			if err := r.expr(a); err != nil {
				return err
			}
		}
	case *lang.BinExpr:
		if err := r.expr(e.X); err != nil {
			return err
		}
		return r.expr(e.Y)
	case *lang.UnExpr:
		return r.expr(e.X)
	}
	return nil // nil, literals and new
}

// shadowPSL shadows every way the language allows — a parameter, a for
// variable and a block's var by inner declarations whose initializers
// read the outer name, and sibling scopes reusing one — which the rest
// of the corpus, apart from the planner's sibling _pe loops, does not.
const shadowPSL = `
function int shadow(int n) {
  var int s = 0;
  var int n = n + 1;
  for i = 1 to n {
    var int i = i * 2;
    s = s + i;
    {
      var int s = s + 1;
      n = n + s;
    }
    s = s + n;
  }
  for i = 1 to 2 {
    s = s + i;
  }
  if s > 0 {
    var int s = 1;
    n = n + s;
  } else {
    var int n = 3;
    s = s + n;
  }
  return s + n;
}`

// slotPrograms is the corpus the oracle runs over: testdata, the
// paper's programs, the planner's cost workload, two hundred generated
// programs and shadowPSL.
func slotPrograms(t *testing.T) [][2]string {
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
	return append(out, [2]string{"shadowPSL", shadowPSL})
}

// TestSlotsMatchLexicalScopes holds the checker's slots (and the
// normalizer's and planner's, which add declarations after it) to the
// lexical rule, on every program unplanned and planned at width 32.
func TestSlotsMatchLexicalScopes(t *testing.T) {
	planned := 0
	for _, p := range slotPrograms(t) {
		prog, err := lang.Parse(p[1])
		if err != nil {
			t.Fatalf("%s: %v", p[0], err)
		}
		progs := []*lang.Program{prog}
		if plan, err := transform.AutoParallelize(prog, 32); err == nil {
			progs = append(progs, plan.Program)
			planned++
		}
		for _, q := range progs {
			for _, fn := range q.Funcs {
				if err := checkSlots(fn); err != nil {
					t.Errorf("%s: %v", p[0], err)
				}
			}
		}
	}
	if planned == 0 {
		t.Fatal("no program planned: the planned half checked nothing")
	}
}

// TestLexicalOracleCatchesShadowing is the oracle's self-test: re-point
// the use of an inner x at the outer x it shadows — a slot that Vars
// still says holds x, so the walker's own check passes — and the
// oracle must object.
func TestLexicalOracleCatchesShadowing(t *testing.T) {
	prog := lang.MustParse(`
function int f(int n) {
  var int x = n;
  if x > 0 {
    var int x = 2;
    return x;
  }
  return x;
}`)
	fn := prog.Func("f")
	if err := checkSlots(fn); err != nil {
		t.Fatalf("checked program: %v", err)
	}
	outer := fn.Body.Stmts[0].(*lang.VarStmt)
	then := fn.Body.Stmts[1].(*lang.IfStmt).Then
	inner := then.Stmts[0].(*lang.VarStmt)
	use := then.Stmts[1].(*lang.ReturnStmt).Value.(*lang.Ident)
	if use.Slot != inner.Slot || inner.Slot == outer.Slot {
		t.Fatalf("inner use at slot %d, inner x %d, outer x %d", use.Slot, inner.Slot, outer.Slot)
	}
	use.Slot = outer.Slot
	if err := checkSlots(fn); err == nil {
		t.Fatal("the oracle accepted an inner use re-pointed at the outer x")
	}
}
