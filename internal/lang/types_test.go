package lang_test

// The typing oracle: every expression type lang.Check records is held
// to the rule both engines execute by — the walker evaluates each
// expression at its recorded type, the VM puts it in that type's
// register bank — re-derived here from the operands' types alone.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/transform"
)

// scalarOf names t's scalar kind ("int", "real", "bool", "string"), or
// "" for a pointer or no type.
func scalarOf(t lang.Type) string {
	if s, ok := t.(*lang.Scalar); ok {
		return s.String()
	}
	return ""
}

func numericType(t lang.Type) bool { k := scalarOf(t); return k == "int" || k == "real" }

// ruleType is the type the operand rule gives e from its operands'
// recorded types, or an error saying which premise they break.
func ruleType(e lang.Expr) (lang.Type, error) {
	switch e := e.(type) {
	case *lang.IntLit:
		return lang.Int, nil
	case *lang.RealLit:
		return lang.Real, nil
	case *lang.BoolLit:
		return lang.Bool, nil
	case *lang.StrLit:
		return lang.String, nil
	case *lang.UnExpr:
		xt := e.X.Type()
		if e.Op == lang.NOT {
			if scalarOf(xt) != "bool" {
				return nil, fmt.Errorf("! of %v", xt)
			}
			return lang.Bool, nil
		}
		if !numericType(xt) {
			return nil, fmt.Errorf("- of %v", xt)
		}
		return xt, nil
	case *lang.BinExpr:
		xt, yt := e.X.Type(), e.Y.Type()
		switch e.Op {
		case lang.PLUS, lang.MINUS, lang.STAR, lang.SLASH:
			if !numericType(xt) || !numericType(yt) {
				return nil, fmt.Errorf("%s of %v and %v", e.Op, xt, yt)
			}
			if scalarOf(xt) == "real" || scalarOf(yt) == "real" {
				return lang.Real, nil
			}
			return lang.Int, nil
		case lang.PERCENT:
			if scalarOf(xt) != "int" || scalarOf(yt) != "int" {
				return nil, fmt.Errorf("%% of %v and %v", xt, yt)
			}
			return lang.Int, nil
		case lang.AND, lang.OR:
			if scalarOf(xt) != "bool" || scalarOf(yt) != "bool" {
				return nil, fmt.Errorf("%s of %v and %v", e.Op, xt, yt)
			}
			return lang.Bool, nil
		case lang.LT, lang.LE, lang.GT, lang.GE:
			if !numericType(xt) || !numericType(yt) {
				return nil, fmt.Errorf("%s of %v and %v", e.Op, xt, yt)
			}
			return lang.Bool, nil
		case lang.EQ, lang.NEQ:
			// NULL takes the other side's pointer type; otherwise the
			// sides are both numbers or of one type.
			_, xNull := e.X.(*lang.NullLit)
			_, yNull := e.Y.(*lang.NullLit)
			_, xPtr := lang.IsPointer(xt)
			_, yPtr := lang.IsPointer(yt)
			switch {
			case xNull && yNull:
				if !xPtr || !yPtr {
					return nil, fmt.Errorf("NULL %s NULL typed %v and %v", e.Op, xt, yt)
				}
			case xNull || yNull:
				if !xPtr || !lang.TypeEq(xt, yt) {
					return nil, fmt.Errorf("NULL compared as %v against %v", xt, yt)
				}
			case numericType(xt) && numericType(yt):
			case xt == nil || !lang.TypeEq(xt, yt):
				return nil, fmt.Errorf("%s of %v and %v", e.Op, xt, yt)
			}
			return lang.Bool, nil
		}
		return nil, fmt.Errorf("unknown operator %s", e.Op)
	}
	// Names, field accesses, calls, new and NULL take their types from
	// declarations, not operands: the resolution oracle holds those.
	return e.Type(), nil
}

// typeRuleMismatches lists every expression of prog whose recorded type
// breaks the operand rule, and counts the operator expressions checked.
func typeRuleMismatches(prog *lang.Program) (bad []string, ops int) {
	for _, f := range prog.Funcs {
		lang.Walk(f.Body, func(s lang.Stmt) bool {
			lang.WalkExprs(s, func(e lang.Expr) {
				switch e.(type) {
				case *lang.BinExpr, *lang.UnExpr:
					ops++
				}
				want, err := ruleType(e)
				switch {
				case err != nil:
					bad = append(bad, fmt.Sprintf("%s: %s: %T: %v", e.Pos(), f.Name, e, err))
				case !lang.TypeEq(want, e.Type()):
					bad = append(bad, fmt.Sprintf("%s: %s: %T has type %v, the operand rule gives %v", e.Pos(), f.Name, e, e.Type(), want))
				}
			})
			return true
		})
	}
	return bad, ops
}

// TestExprTypesFollowOperandRule holds every expression type the
// checker recorded to the operand rule — int∘int is int and a real
// operand makes arithmetic real, % is int, comparisons and logic are
// bool, NULL takes the other side's pointer type — over every program
// of the resolution corpus, unplanned and planned at width 32.
func TestExprTypesFollowOperandRule(t *testing.T) {
	var ops, planned int
	for _, p := range resolutionCorpus(t) {
		prog, err := lang.Parse(p[1])
		if err != nil {
			continue
		}
		progs := map[string]*lang.Program{p[0]: prog}
		if plan, err := transform.AutoParallelize(prog, 32); err == nil && plan.Program != prog {
			progs[p[0]+" planned"] = plan.Program
			planned++
		}
		for name, prog := range progs {
			bad, n := typeRuleMismatches(prog)
			if len(bad) > 0 {
				t.Fatalf("%s: the checker's types break the operand rule:\n%s", name, strings.Join(bad, "\n"))
			}
			ops += n
		}
	}
	if ops == 0 || planned == 0 {
		t.Fatalf("checked %d operator expressions over %d plans: the corpus lost its programs", ops, planned)
	}
	t.Logf("%d operator expressions follow the rule (%d planned programs)", ops, planned)
}

// TestTypeRuleCatchesWrongTypes is the oracle's mutation check: an
// arithmetic typed int over a real operand, a comparison typed int and
// a NULL typed as another record's pointer are each reported.
func TestTypeRuleCatchesWrongTypes(t *testing.T) {
	prog := lang.MustParse(`
type R [X] { int data; R *next is uniquely forward along X; };
type S [X] { int data; S *next is uniquely forward along X; };
function real f(R *p, real x) {
  var real y = x * 2;
  if p->next == NULL { y = y + 1; }
  return y;
}
`)
	if bad, _ := typeRuleMismatches(prog); len(bad) > 0 {
		t.Fatalf("the unmutated program breaks the rule:\n%s", strings.Join(bad, "\n"))
	}
	body := prog.Func("f").Body.Stmts
	mul := body[0].(*lang.VarStmt).Init.(*lang.BinExpr)
	cmp := body[1].(*lang.IfStmt).Cond.(*lang.BinExpr)
	null := cmp.Y.(*lang.NullLit)
	for _, m := range []struct {
		what      string
		e         interface{ SetType(lang.Type) }
		bad, good lang.Type
	}{
		{"real x * 2 typed int", mul, lang.Int, lang.Real},
		{"== typed int", cmp, lang.Int, lang.Bool},
		{"NULL typed S*", null, lang.PointerTo("S"), null.Type()},
	} {
		m.e.SetType(m.bad)
		if bad, _ := typeRuleMismatches(prog); len(bad) != 1 {
			t.Errorf("%s: the oracle reports %v, want one mismatch", m.what, bad)
		}
		m.e.SetType(m.good)
	}
	if bad, _ := typeRuleMismatches(prog); len(bad) > 0 {
		t.Fatalf("the restored program breaks the rule:\n%s", strings.Join(bad, "\n"))
	}
}
