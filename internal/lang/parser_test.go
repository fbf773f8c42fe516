package lang

import (
	"strings"
	"testing"

	"repro/internal/adds"
)

// polySrc is the paper's §3.3.2 polynomial-scaling loop, in PSL.
const polySrc = `
type OneWayList [X]
{ int coef, exp;
  OneWayList *next is uniquely forward along X;
};

procedure scale(OneWayList *head, int c) {
  var OneWayList *p = head;
  while p != NULL {
    p->coef = p->coef * c;
    p = p->next;
  }
}
`

func TestParsePolyLoop(t *testing.T) {
	p, err := Parse(polySrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Universe.Decl("OneWayList") == nil {
		t.Fatal("missing type declaration")
	}
	f := p.Func("scale")
	if f == nil {
		t.Fatal("missing function scale")
	}
	if !f.IsProcedure() {
		t.Error("scale is a procedure")
	}
	if len(f.Params) != 2 {
		t.Fatalf("params = %+v", f.Params)
	}
	if elem, ok := IsPointer(f.Params[0].Type); !ok || elem != "OneWayList" {
		t.Errorf("param 0 type = %v", f.Params[0].Type)
	}
	if !TypeEq(f.Params[1].Type, Int) {
		t.Errorf("param 1 type = %v", f.Params[1].Type)
	}
	// Body: var, while.
	if len(f.Body.Stmts) != 2 {
		t.Fatalf("body = %v", f.Body.Stmts)
	}
	w, ok := f.Body.Stmts[1].(*WhileStmt)
	if !ok {
		t.Fatalf("stmt 1 = %T", f.Body.Stmts[1])
	}
	if len(w.Body.Stmts) != 2 {
		t.Fatalf("loop body has %d stmts", len(w.Body.Stmts))
	}
}

func TestParseFunctionWithResult(t *testing.T) {
	src := `
type T [X] { int v; T *next is uniquely forward along X; };
function T * last(T *p) {
  while p->next != NULL {
    p = p->next;
  }
  return p;
}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("last")
	if f == nil || f.IsProcedure() {
		t.Fatal("last should be a function")
	}
	if elem, ok := IsPointer(f.Result); !ok || elem != "T" {
		t.Errorf("result type = %v", f.Result)
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
procedure f(int n) {
  var int s = 0;
  for i = 1 to n {
    s = s + i;
  }
  forall j = 0 to 3 {
    print(j);
  }
  if s > 10 {
    print("big");
  } else if s > 5 {
    print("mid");
  } else {
    print("small");
  }
}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Func("f").Body.Stmts
	if len(body) != 4 {
		t.Fatalf("body has %d stmts", len(body))
	}
	if fs := body[1].(*ForStmt); fs.Parallel {
		t.Error("for must not be parallel")
	}
	if fs := body[2].(*ForStmt); !fs.Parallel {
		t.Error("forall must be parallel")
	}
	ifs := body[3].(*IfStmt)
	if ifs.Else == nil {
		t.Fatal("missing else")
	}
	if _, ok := ifs.Else.Stmts[0].(*IfStmt); !ok {
		t.Error("else-if not nested as IfStmt in else block")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, wantSub string }{
		{"stray token", `42`, "expected type, function, or procedure"},
		{"undeclared var", `procedure f() { x = 1; }`, "undeclared variable"},
		{"undeclared type param", `procedure f(T *p) { }`, "undeclared type"},
		{"bad field", polySrc + `procedure g(OneWayList *p) { p->nosuch = 1; }`, "no field"},
		{"call unknown", `procedure f() { g(); }`, "undefined function"},
		{"assign type", `procedure f() { var int i = 0; i = true; }`, "cannot assign"},
		{"non-bool cond", `procedure f() { var int i = 0; while i { } }`, "condition must be bool"},
		{"return in proc", `procedure f() { return 1; }`, "cannot return a value"},
		{"missing return value", polySrc + `function OneWayList * g(OneWayList *p) { return; }`, "must return a value"},
		{"arity", polySrc + `procedure g(OneWayList *p) { scale(p); }`, "expects 2 arguments"},
		{"null to int", `procedure f() { var int i = 0; i = NULL; }`, "NULL requires a pointer"},
		{"redeclare", `procedure f() { var int i = 0; var int i = 1; }`, "redeclared"},
		{"shadow builtin", `procedure sqrt() { }`, "shadows a builtin"},
		{"dup function", `procedure f() { } procedure f() { }`, "already defined"},
		{"index non-array", polySrc + `procedure g(OneWayList *p) { p = p->next[0]; }`, "not an array"},
		{"record by value", `type T [X] { int v; T *n is forward along X; }; procedure f(T p) { }`, "record types are used only through pointers"},
		{"assign to literal", `procedure f() { 3 = 4; }`, "cannot assign to this expression"},
		{"unterminated block", `procedure f() {`, "unterminated block"},
		{"mod real", `procedure f() { var real r = 1.0 % 2.0; }`, "requires int operands"},
		{"not on int", `procedure f() { var bool b = !3; }`, "requires bool"},
		{"compare ptr int", polySrc + `procedure g(OneWayList *p) { if p == 3 { } }`, "cannot compare"},
		{"array count over cap", `type T [X] { T *n[1025] is forward along X; };`, `1:23: bad array count "1025" (1..1024)`},
		{"array count bomb", `type T [X] { T *n[5000] is forward along X; };`, `1:23: bad array count "5000" (1..1024)`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error with %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error = %v, want substring %q", err, c.wantSub)
			}
		})
	}
}

// TestDeclarationsOnlySource: a source of declarations and nothing else
// is a program — it parses, checks, and each Decl.String() reads back
// through this parser to the same text. This is the one reader of the
// ADDS surface syntax; package adds keeps its own round-trip tests on
// top of it.
func TestDeclarationsOnlySource(t *testing.T) {
	src := adds.OneWayListSrc + adds.ListNodeSrc + adds.TwoWayListSrc + adds.BinTreeSrc +
		adds.OrthListSrc + adds.TwoDRangeTreeSrc + adds.OctreeSrc
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != 0 || prog.Universe.Len() != 7 {
		t.Fatalf("%d functions, %d declarations, want 0 and 7", len(prog.Funcs), prog.Universe.Len())
	}
	for _, name := range prog.Universe.Types() {
		text := prog.Universe.Decl(name).String()
		back, err := ParseRaw(text)
		if err != nil {
			t.Fatalf("re-parse of %s: %v\n%s", name, err, text)
		}
		if got := back.Universe.Decl(name); got == nil || got.String() != text {
			t.Errorf("%s does not round-trip:\n%s\nread back as\n%v", name, text, got)
		}
	}
	// The largest pointer array the parser admits is the cap itself.
	if _, err := Parse(`type T [X] { T *n[1024] is forward along X; };`); err != nil {
		t.Errorf("array count 1024: %v", err)
	}
}

func TestParsePointerArrayField(t *testing.T) {
	src := adds.OctreeSrc + `
procedure visit(Octree *n, int i) {
  var Octree *c = n->subtrees[i];
  if c != NULL {
    visit(c, 0);
  }
}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	vs := prog.Func("visit").Body.Stmts[0].(*VarStmt)
	fe := vs.Init.(*FieldExpr)
	if fe.Index == nil {
		t.Error("subtrees access must carry an index")
	}
	// Missing index must fail.
	_, err = Parse(adds.OctreeSrc + `procedure f(Octree *n) { var Octree *c = n->subtrees; }`)
	if err == nil || !strings.Contains(err.Error(), "index is required") {
		t.Errorf("expected index-required error, got %v", err)
	}
}

func TestNormalizeChains(t *testing.T) {
	src := polySrc + `
procedure g(OneWayList *head) {
  var OneWayList *q = head->next->next;
  head->next->coef = 7;
}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// After normalization every FieldExpr base is an Ident.
	bad := 0
	for _, f := range prog.Funcs {
		Walk(f.Body, func(s Stmt) bool {
			WalkExprs(s, func(e Expr) {
				if fe, ok := e.(*FieldExpr); ok {
					if fe.Base() == nil {
						bad++
					}
				}
			})
			return true
		})
	}
	if bad > 0 {
		t.Errorf("%d field accesses remain chained after normalization", bad)
	}
	// g must have gained temporaries.
	text := FormatFunc(prog.Func("g"))
	if !strings.Contains(text, "_t") {
		t.Errorf("expected temporaries in normalized g:\n%s", text)
	}
}

func TestNormalizeWhileCondHoisting(t *testing.T) {
	src := polySrc + `
procedure g(OneWayList *head) {
  while head->next->next != NULL {
    head = head->next;
  }
}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Func("g")
	// The hoisted load must be re-evaluated at the end of the loop body:
	// find a while loop whose body ends with an assignment to a temp.
	var found bool
	Walk(g.Body, func(s Stmt) bool {
		w, ok := s.(*WhileStmt)
		if !ok {
			return true
		}
		last := w.Body.Stmts[len(w.Body.Stmts)-1]
		if as, ok := last.(*AssignStmt); ok {
			if id, ok := as.LHS.(*Ident); ok && strings.HasPrefix(id.Name, "_t") {
				found = true
			}
		}
		return true
	})
	if !found {
		t.Errorf("hoisted condition temp not re-evaluated at body end:\n%s", FormatFunc(g))
	}
	// Semantics sanity: the loop condition itself is now a single-step load.
	// (Verified structurally above; interpreter tests verify behaviour.)
}

func TestNormalizeStoreRHS(t *testing.T) {
	src := polySrc + `
procedure g(OneWayList *p) {
  p->next = new OneWayList;
  p->next = p->next->next;
}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Every pointer store must have Ident or NULL on the RHS.
	Walk(prog.Func("g").Body, func(s Stmt) bool {
		as, ok := s.(*AssignStmt)
		if !ok {
			return true
		}
		fe, ok := as.LHS.(*FieldExpr)
		if !ok {
			return true
		}
		if _, isPtr := IsPointer(fe.Type()); !isPtr {
			return true
		}
		switch as.RHS.(type) {
		case *Ident, *NullLit:
		default:
			t.Errorf("pointer store RHS is %T, want Ident or NULL", as.RHS)
		}
		return true
	})
}

func TestFormatRoundTrip(t *testing.T) {
	prog, err := Parse(polySrc)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(prog)
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse of formatted output failed: %v\n%s", err, text)
	}
	if Format(prog2) != text {
		t.Errorf("format not stable:\n--- first\n%s\n--- second\n%s", text, Format(prog2))
	}
}

func TestCloneIndependence(t *testing.T) {
	prog := MustParse(polySrc)
	clone := prog.Clone()
	// Mutate the clone; original must be unaffected.
	clone.Func("scale").Body.Stmts = nil
	if len(prog.Func("scale").Body.Stmts) == 0 {
		t.Error("Clone shares statement storage with original")
	}
	if err := clone.AddFunc(&FuncDecl{Name: "extra", Body: &Block{}}); err != nil {
		t.Fatal(err)
	}
	if prog.Func("extra") != nil {
		t.Error("AddFunc on clone affected original")
	}
	if err := clone.AddFunc(&FuncDecl{Name: "extra", Body: &Block{}}); err == nil {
		t.Error("duplicate AddFunc must fail")
	}
}

func TestImplicitWidening(t *testing.T) {
	src := `
procedure f() {
  var real r = 1;
  r = r + 2;
  var real s = sqrt(4);
  print(r, s);
}`
	if _, err := Parse(src); err != nil {
		t.Fatalf("int→real widening should be accepted: %v", err)
	}
}
