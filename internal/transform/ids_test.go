package transform

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/parexec"
)

// unresolved describes the first identifier of prog without a resolved
// id ("" when there is none): every parameter, declared variable, use
// and field must carry the id of its own text in the program's table,
// and every declaration and use the slot of its declaration.
func unresolved(prog *lang.Program) string {
	names := prog.Names()
	named := func(id lang.ID, text string) bool {
		return id > 0 && int(id) < names.Len() && names.Text(id) == text
	}
	for _, f := range prog.Funcs {
		if len(f.Vars) < len(f.Params) {
			return fmt.Sprintf("%s: %d slots for %d parameters", f.Name, len(f.Vars), len(f.Params))
		}
		for i, prm := range f.Params {
			if !named(prm.ID, prm.Name) || f.Vars[i] != prm.ID {
				return fmt.Sprintf("%s: parameter %s has id %d, slot %d holds %d", f.Name, prm.Name, prm.ID, i, f.Vars[i])
			}
		}
		resolves := func(id lang.ID, slot int) bool { return slot >= 0 && slot < len(f.Vars) && f.Vars[slot] == id }
		bad := ""
		lang.Walk(f.Body, func(s lang.Stmt) bool {
			switch s := s.(type) {
			case *lang.VarStmt:
				if !named(s.ID, s.Name) || !resolves(s.ID, s.Slot) {
					bad = fmt.Sprintf("%s: %s: var %s has id %d, slot %d", f.Name, s.Pos(), s.Name, s.ID, s.Slot)
				}
			case *lang.ForStmt:
				if !named(s.ID, s.Var) || !resolves(s.ID, s.Slot) {
					bad = fmt.Sprintf("%s: %s: loop variable %s has id %d, slot %d", f.Name, s.Pos(), s.Var, s.ID, s.Slot)
				}
			}
			lang.WalkExprs(s, func(e lang.Expr) {
				switch e := e.(type) {
				case *lang.Ident:
					if bad == "" && (!named(e.ID, e.Name) || !resolves(e.ID, e.Slot)) {
						bad = fmt.Sprintf("%s: %s: %s has id %d, slot %d", f.Name, e.Pos(), e.Name, e.ID, e.Slot)
					}
				case *lang.FieldExpr:
					if bad == "" && !named(e.FieldID, e.Field) {
						bad = fmt.Sprintf("%s: %s: field %s has id %d", f.Name, e.Pos(), e.Field, e.FieldID)
					}
				}
			})
			return bad == ""
		})
		if bad != "" {
			return bad
		}
	}
	return ""
}

// TestEveryIdentifierResolved holds the front end to its identifier
// space: after Parse, and after AutoParallelize has rewritten the
// program (helpers, the PE index, the skip-ahead counter), no
// identifier lacks its id or its declaration's slot — over the corpus,
// the paper's programs and 200 generated ones.
func TestEveryIdentifierResolved(t *testing.T) {
	srcs := map[string]string{
		"barneshut":     nbody.BarnesHutPSL,
		"vecforce":      nbody.VecForcePSL,
		"polynormalize": parexec.PolyNormalizePSL,
		"manyloop-10x5": ManyLoopProgramPSL(10, 5),
	}
	files, err := filepath.Glob("../../testdata/*.psl")
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(data)
	}
	for seed := int64(1); seed <= 200; seed++ {
		srcs[fmt.Sprintf("generated-%d", seed)] = GenLoopProgramPSL(seed)
	}
	for name, src := range srcs {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bad := unresolved(prog); bad != "" {
			t.Errorf("%s, parsed: %s", name, bad)
		}
		plan, err := AutoParallelize(prog, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bad := unresolved(plan.Program); bad != "" {
			t.Errorf("%s, planned: %s", name, bad)
		}
		if bad := unresolved(prog); bad != "" {
			t.Errorf("%s, after planning: %s", name, bad)
		}
	}
}
