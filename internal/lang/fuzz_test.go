package lang

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// fuzzSeeds are small but representative PSL programs: every statement
// form, ADDS annotation shape, literal kind, and operator the grammar
// has, so the fuzzer starts from meaningful corners of the language.
var fuzzSeeds = []string{
	"",
	"function int f() { return 1; }",
	`type OneWayList [X]
{ int coef, exp;
  real val;
  OneWayList *next is uniquely forward along X;
};
function OneWayList * poly(int n) {
  var OneWayList *head = NULL;
  var int i = 0;
  while i < n {
    var OneWayList *t = new OneWayList;
    t->coef = i + 1;
    t->next = head;
    head = t;
    i = i + 1;
  }
  return head;
}`,
	`type Orth [X][Y] where X||Y
{ real v;
  Orth *across is uniquely forward along X;
  Orth *down   is uniquely forward along Y;
  Orth *back   is backward along X;
};
procedure p(Orth *o) {
  if o != NULL && o->v >= 0.5 { o->v = -o->v / 2.0; } else { o->v = abs(o->v); }
}`,
	`type T { T *kids[8]; int n; };
function real g(T *t, int k) {
  var real s = 1.5e-3;
  for i = 0 to 7 { s = s + t->kids[i]->n; }
  forall i = 0 to 7 { print("k", i, s, true, NULL); }
  while !(s > 100.0) { s = s * 2.0 + sqrt(s) + rand(); }
  return s;
}`,
	"procedure q() { print(\"a\\nb\\t\\\"c\\\\\"); }",
	"function int mod(int a, int b) { return a % b == 0 && 3 <> 4; }",
}

// FuzzLexer: the lexer never panics and either yields lexemes ending
// in EOF or reports an error, and on a source with no byte at or above
// 0x80 it agrees with the reference lexer (LexDiff) lexeme for lexeme.
func FuzzLexer(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if !strings.ContainsFunc(src, func(r rune) bool { return r >= utf8.RuneSelf }) {
			if d := LexDiff(src); d != "" {
				t.Fatalf("LexAll and the reference disagree: %s\n--- source ---\n%q", d, src)
			}
		}
		lexemes, err := LexAll(src)
		if err != nil {
			return
		}
		if len(lexemes) == 0 || lexemes[len(lexemes)-1].Tok != EOF {
			t.Fatalf("LexAll succeeded without trailing EOF: %v", lexemes)
		}
	})
}

// FuzzParser: parsing never panics and agrees with the reference
// pipeline (ParseDiff), and whatever parses (checked and normalized)
// round-trips through the printer — print → parse → print reaches a
// fixed point on the first print. This is the property that keeps
// Format output usable as input (the transformed programs the harness
// prints are real PSL). Every function it accepts is at most
// maxNesting levels deep (treeDepth), the bound the walks over the
// tree rely on.
func FuzzParser(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if d := ParseDiff(src); d != "" {
			t.Fatalf("Parse and the reference disagree: %s\n--- source ---\n%s", d, src)
		}
		p1, err := Parse(src)
		if err != nil {
			return
		}
		s1 := Format(p1)
		p2, err := Parse(s1)
		if err != nil {
			t.Fatalf("printed program no longer parses: %v\n--- printed ---\n%s", err, s1)
		}
		s2 := Format(p2)
		if s1 != s2 {
			t.Fatalf("print→parse→print not stable:\n--- first ---\n%s\n--- second ---\n%s", s1, s2)
		}
		for _, fn := range p1.Funcs {
			if d := treeDepth(fn); d > maxNesting {
				t.Fatalf("%s's tree is %d levels deep, past the parser's bound of %d\n--- source ---\n%s", fn.Name, d, maxNesting, src)
			}
		}
	})
}

// treeDepth is how many levels deep a function's tree runs: a statement
// or expression one below its parent.
func treeDepth(f *FuncDecl) int {
	var stmt func(s Stmt) int
	var expr func(e Expr) int
	exprs := func(es ...Expr) int {
		d := 0
		for _, e := range es {
			if e != nil {
				d = max(d, expr(e))
			}
		}
		return d
	}
	block := func(b *Block) int {
		d := 0
		if b != nil {
			for _, s := range b.Stmts {
				d = max(d, stmt(s))
			}
		}
		return d
	}
	expr = func(e Expr) int {
		switch e := e.(type) {
		case *FieldExpr:
			return 1 + exprs(e.X, e.Index)
		case *CallExpr:
			return 1 + exprs(e.Args...)
		case *BinExpr:
			return 1 + exprs(e.X, e.Y)
		case *UnExpr:
			return 1 + exprs(e.X)
		}
		return 1
	}
	stmt = func(s Stmt) int {
		switch s := s.(type) {
		case *Block:
			return 1 + block(s)
		case *VarStmt:
			return 1 + exprs(s.Init)
		case *AssignStmt:
			return 1 + exprs(s.LHS, s.RHS)
		case *WhileStmt:
			return 1 + max(exprs(s.Cond), block(s.Body))
		case *IfStmt:
			return 1 + max(exprs(s.Cond), block(s.Then), block(s.Else))
		case *ReturnStmt:
			return 1 + exprs(s.Value)
		case *CallStmt:
			return 1 + expr(s.Call)
		case *ForStmt:
			return 1 + max(exprs(s.From, s.To), block(s.Body))
		}
		return 1
	}
	return 1 + block(f.Body)
}

// TestQuotePSL pins the printer's escape set to what the lexer accepts.
func TestQuotePSL(t *testing.T) {
	for _, raw := range []string{
		"", "plain", "a\nb", "tab\there", `quote"inside`, `back\slash`,
		"raw\x01bytes\x7f", "mixed \\ \" \n \t end",
	} {
		quoted := quotePSL(raw)
		lexemes, err := LexAll(quoted)
		if err != nil {
			t.Fatalf("%q: quoted form %s does not lex: %v", raw, quoted, err)
		}
		if len(lexemes) != 2 || lexemes[0].Tok != STRING || lexemes[0].Text != raw {
			t.Fatalf("%q: round-trip through %s gave %v", raw, quoted, lexemes)
		}
	}
	if !strings.Contains(quotePSL("a\nb"), `\n`) {
		t.Error("newline must print escaped")
	}
}
