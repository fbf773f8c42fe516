package compile

import (
	"testing"

	"repro/internal/lang"
)

const listSrc = `
type OneWayList [X]
{ int data, aux;
  real weight;
  OneWayList *next is uniquely forward along X;
};

function int sum(OneWayList *head) {
  var OneWayList *p = head;
  var int s = 0;
  while p != NULL {
    s = s + p->data;
    p = p->next;
  }
  return s;
}

procedure touch(OneWayList *p) {
  p->weight = 1.5;
  p->next = NULL;
}
`

func mustCompile(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// fn returns the named function.
func fn(t *testing.T, cp *Program, name string) *lang.FuncDecl {
	t.Helper()
	for _, f := range cp.Funcs {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("%s not compiled", name)
	return nil
}

// TestSlotAssignment: parameters take the first slots, each declaration
// gets its own slot, and the frame size counts every declaration.
func TestSlotAssignment(t *testing.T) {
	cp := mustCompile(t, listSrc)
	f := fn(t, cp, "sum")
	if len(f.Params) != 1 || f.Params[0].Name != "head" || f.Vars[0] != f.Params[0].ID {
		t.Fatalf("params = %+v, vars %v", f.Params, f.Vars)
	}
	// head, p, s — no temporaries needed for this body.
	if len(f.Vars) != 3 {
		t.Errorf("sum frame has %d slots, want 3", len(f.Vars))
	}
	if cp.Funcs[1].Name != "touch" {
		t.Errorf("frame 1 is %s, want touch: frames follow the program's order", cp.Funcs[1].Name)
	}
}

// TestShadowing: an inner declaration gets a fresh slot and inner
// references resolve to it, while the initializer still sees the outer
// binding (the checker's scoping rules, which the frame inherits).
func TestShadowing(t *testing.T) {
	cp := mustCompile(t, `
function int f(int x) {
  var int y = x;
  if x > 0 {
    var int x = y + 1;
    y = x;
  }
  return y;
}
`)
	f := fn(t, cp, "f")
	// x, y, inner x.
	if len(f.Vars) != 3 {
		t.Fatalf("frame has %d slots, want 3", len(f.Vars))
	}
	ifs := f.Body.Stmts[1].(*lang.IfStmt)
	inner := ifs.Then.Stmts[0].(*lang.VarStmt)
	if inner.Slot == 0 {
		t.Error("inner x must shadow with a fresh slot")
	}
	// The initializer "y + 1" resolves y to the outer slot.
	if ref := inner.Init.(*lang.BinExpr).X.(*lang.Ident); ref.Name != "y" || ref.Slot != 1 {
		t.Errorf("init references %q in slot %d", ref.Name, ref.Slot)
	}
	asgn := ifs.Then.Stmts[1].(*lang.AssignStmt)
	if rhs := asgn.RHS.(*lang.Ident); rhs.Slot != inner.Slot {
		t.Errorf("y = x resolves x to slot %d, want inner slot %d", rhs.Slot, inner.Slot)
	}
}

// TestCompileRejectsUnchecked: compiling a raw (unchecked) program
// reports an error instead of panicking.
func TestCompileRejectsUnchecked(t *testing.T) {
	prog, err := lang.ParseRaw(listSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(prog); err == nil {
		t.Fatal("Compile accepted an unchecked program")
	}
}

// TestForallLowering: loop variables get slots of their own, a
// forall's as a for's.
func TestForallLowering(t *testing.T) {
	cp := mustCompile(t, `
procedure loops() {
  var int s = 0;
  for i = 0 to 7 { s = s + i; }
  forall i = 0 to 7 { print(i); }
}
`)
	f := fn(t, cp, "loops")
	ser := f.Body.Stmts[1].(*lang.ForStmt)
	par := f.Body.Stmts[2].(*lang.ForStmt)
	if ser.Parallel || !par.Parallel {
		t.Errorf("Parallel flags: serial=%v parallel=%v", ser.Parallel, par.Parallel)
	}
	if ser.Slot == par.Slot {
		t.Error("sibling loop variables should still get distinct slots")
	}
	if len(f.Vars) != 3 {
		t.Errorf("frame has %d slots, want 3", len(f.Vars))
	}
}
