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

// fn returns the named function's frame.
func fn(t *testing.T, cp *Program, name string) *Func {
	t.Helper()
	i := cp.FuncIndex(name)
	if i < 0 {
		t.Fatalf("%s not compiled", name)
	}
	return cp.Funcs[i]
}

// TestSlotAssignment: parameters take the first slots, each declaration
// gets its own slot, and the frame size counts every declaration.
func TestSlotAssignment(t *testing.T) {
	cp := mustCompile(t, listSrc)
	f := fn(t, cp, "sum")
	if len(f.Decl.Params) != 1 || f.Decl.Params[0].Name != "head" || f.Decl.Vars[0] != f.Decl.Params[0].ID {
		t.Fatalf("params = %+v, vars %v", f.Decl.Params, f.Decl.Vars)
	}
	// head, p, s — no temporaries needed for this body.
	if f.Slots != 3 {
		t.Errorf("sum frame has %d slots, want 3", f.Slots)
	}
	if got := cp.FuncIndex("touch"); got != 1 {
		t.Errorf("FuncIndex(touch) = %d", got)
	}
	if cp.FuncIndex("nope") != -1 {
		t.Error("unknown function must resolve to -1")
	}
}

// TestFieldOffsets: offsets index the declaration's Data/Pointers
// slices in source order, keyed by the field name's id; a name the
// record does not declare, or a record the program does not, resolves
// to nothing.
func TestFieldOffsets(t *testing.T) {
	cp := mustCompile(t, listSrc)
	id := func(name string) lang.ID {
		t.Helper()
		id, ok := cp.Lang.Names().Lookup(name)
		if !ok {
			t.Fatalf("%s not in the identifier table", name)
		}
		return id
	}
	for _, c := range []struct {
		field string
		want  Field
	}{
		{"data", Field{Off: 0, ok: true}},
		{"aux", Field{Off: 1, ok: true}},
		// weight is the third data field (data, aux, weight).
		{"weight", Field{Off: 2, ok: true}},
		{"next", Field{Off: 0, IsPtr: true, ok: true}},
	} {
		if got, ok := cp.Field("OneWayList", id(c.field)); !ok || got != c.want {
			t.Errorf("OneWayList.%s = %+v, %v; want %+v", c.field, got, ok, c.want)
		}
	}
	for _, c := range []struct{ record, field string }{
		{"OneWayList", "sum"}, {"OneWayList", "head"}, {"Nope", "data"},
	} {
		if got, ok := cp.Field(c.record, id(c.field)); ok {
			t.Errorf("%s.%s resolved to %+v", c.record, c.field, got)
		}
	}
	if got, ok := cp.Field("OneWayList", lang.ID(cp.Lang.Names().Len()+5)); ok {
		t.Errorf("an id past the table resolved to %+v", got)
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
	if f.Slots != 3 {
		t.Fatalf("frame has %d slots, want 3", f.Slots)
	}
	ifs := f.Decl.Body.Stmts[1].(*lang.IfStmt)
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

// TestBuiltinResolution: user functions resolve to their index in
// program order; builtins are no function of the program's.
func TestBuiltinResolution(t *testing.T) {
	cp := mustCompile(t, `
function real g(real x) { return sqrt(abs(x)) + rand(); }
function real h(real x) { print("x", x); return g(x); }
`)
	if cp.FuncIndex("g") != 0 || cp.FuncIndex("h") != 1 {
		t.Errorf("FuncIndex(g), FuncIndex(h) = %d, %d", cp.FuncIndex("g"), cp.FuncIndex("h"))
	}
	for _, b := range []string{"sqrt", "abs", "rand", "print"} {
		if i := cp.FuncIndex(b); i != -1 {
			t.Errorf("builtin %s resolved to function %d", b, i)
		}
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
	ser := f.Decl.Body.Stmts[1].(*lang.ForStmt)
	par := f.Decl.Body.Stmts[2].(*lang.ForStmt)
	if ser.Parallel || !par.Parallel {
		t.Errorf("Parallel flags: serial=%v parallel=%v", ser.Parallel, par.Parallel)
	}
	if ser.Slot == par.Slot {
		t.Error("sibling loop variables should still get distinct slots")
	}
	if f.Slots != 3 {
		t.Errorf("frame has %d slots, want 3", f.Slots)
	}
}
