package lang

import (
	"fmt"
	"strings"
	"testing"
)

func toks(t *testing.T, src string) []Lexeme {
	t.Helper()
	out, err := LexAll(src)
	if err != nil {
		t.Fatalf("LexAll(%q): %v", src, err)
	}
	return out
}

func TestLexBasics(t *testing.T) {
	got := toks(t, `p = p->next;`)
	want := []Token{IDENT, ASSIGN, IDENT, ARROW, IDENT, SEMI, EOF}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i, w := range want {
		if got[i].Tok != w {
			t.Errorf("token %d = %s, want %s", i, got[i], w)
		}
	}
}

func TestLexOperators(t *testing.T) {
	src := `== != <= >= < > <> && || ! + - * / % -> =`
	want := []Token{EQ, NEQ, LE, GE, LT, GT, NEQ, AND, OR, NOT, PLUS, MINUS, STAR, SLASH, PERCENT, ARROW, ASSIGN, EOF}
	got := toks(t, src)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i, w := range want {
		if got[i].Tok != w {
			t.Errorf("token %d = %s, want %s", i, got[i], w)
		}
	}
}

func TestLexPaperDiamond(t *testing.T) {
	// The paper writes "while p <> NULL": <> lexes as !=.
	got := toks(t, `while p <> NULL`)
	if got[2].Tok != NEQ {
		t.Errorf("<> lexed as %s, want !=", got[2])
	}
	if got[3].Tok != NULLKW {
		t.Errorf("NULL lexed as %s", got[3])
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src  string
		tok  Token
		text string
	}{
		{"42", INT, "42"},
		{"0", INT, "0"},
		{"3.25", REAL, "3.25"},
		{"1e9", REAL, "1e9"},
		{"2.5e-3", REAL, "2.5e-3"},
		{"7E+2", REAL, "7E+2"},
	}
	for _, c := range cases {
		got := toks(t, c.src)
		if got[0].Tok != c.tok || got[0].Text != c.text {
			t.Errorf("lex(%q) = %s, want %s %q", c.src, got[0], c.tok, c.text)
		}
	}
	// "3." followed by non-digit must not absorb the dot.
	if _, err := LexAll("3.x"); err == nil {
		// 3 then illegal '.': expect an error
		t.Error("expected error lexing '3.x'")
	}
	// "1e" with no exponent digits stays INT followed by IDENT.
	got := toks(t, "1e")
	if got[0].Tok != INT || got[1].Tok != IDENT {
		t.Errorf("lex(1e) = %v", got)
	}
}

func TestLexStringsAndEscapes(t *testing.T) {
	got := toks(t, `"a\nb\t\"q\"\\"`)
	if got[0].Tok != STRING {
		t.Fatalf("got %v", got[0])
	}
	if got[0].Text != "a\nb\t\"q\"\\" {
		t.Errorf("string = %q", got[0].Text)
	}
	if _, err := LexAll(`"unterminated`); err == nil {
		t.Error("expected unterminated string error")
	}
	if _, err := LexAll(`"bad \z"`); err == nil {
		t.Error("expected unknown escape error")
	}
}

func TestLexComments(t *testing.T) {
	got := toks(t, "a // line comment\n /* block\n comment */ b")
	if len(got) != 3 || got[0].Text != "a" || got[1].Text != "b" {
		t.Errorf("comments not skipped: %v", got)
	}
	if _, err := LexAll("/* unterminated"); err == nil {
		t.Error("expected unterminated comment error")
	}
}

func TestLexKeywords(t *testing.T) {
	src := "type function procedure var while if else return for forall to new NULL true false is uniquely forward backward along where int real bool"
	got := toks(t, src)
	want := []Token{TYPE, FUNCTION, PROCEDURE, VAR, WHILE, IF, ELSE, RETURN, FOR, FORALL, TO, NEW, NULLKW, TRUE, FALSE, IS, UNIQUELY, FORWARD, BACKWARD, ALONG, WHERE, INTKW, REALKW, BOOLKW, EOF}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Tok != w {
			t.Errorf("token %d = %s, want %s", i, got[i], w)
		}
	}
}

func TestLexPositions(t *testing.T) {
	got := toks(t, "a\n  b")
	if got[0].Pos != (Pos{1, 1}) {
		t.Errorf("a at %v", got[0].Pos)
	}
	if got[1].Pos != (Pos{2, 3}) {
		t.Errorf("b at %v, want 2:3", got[1].Pos)
	}
}

func TestLexIllegal(t *testing.T) {
	for _, src := range []string{"#", "$", "&x", "|x", "@"} {
		if _, err := LexAll(src); err == nil {
			t.Errorf("LexAll(%q) succeeded, want error", src)
		} else if !strings.Contains(err.Error(), "unexpected character") && !strings.Contains(err.Error(), "1:") {
			t.Errorf("LexAll(%q) error lacks position: %v", src, err)
		}
	}
}

// TestLexUnicode: a byte at or above 0x80 is read as part of a UTF-8
// character. Identifiers take Unicode letters (and digits after the
// first), an error names the character the source holds, invalid UTF-8
// is an error at its byte, and columns count bytes. The lexer before
// this read each byte as a Latin-1 rune: café failed on '©', π on
// '\u0080', and ªb lexed only because both bytes of ª are Latin-1
// letters.
func TestLexUnicode(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"var int café = 1;", `var@1:1 int@1:5 identifier("café")@1:9 =@1:15 int literal("1")@1:17 ;@1:18 EOF@1:19`},
		{"π", `identifier("π")@1:1 EOF@1:3`},
		{"ªb", `identifier("ªb")@1:1 EOF@1:4`},
		{"x٣ _é", `identifier("x٣")@1:1 identifier("_é")@1:5 EOF@1:8`},
		{`"é\t" é`, `string literal("é\t")@1:1 identifier("é")@1:8 EOF@1:10`},
		{"a ©", "1:3: unexpected character '©'"},
		{"\n ٣x", "2:2: unexpected character '٣'"},
		{"a\xffb", "1:2: invalid UTF-8 byte 0xff"},
		{"é\xe9", "1:3: invalid UTF-8 byte 0xe9"},
		{`"\é"`, `1:1: unknown string escape \é`},
	} {
		lexemes, err := LexAll(c.src)
		got := fmt.Sprint(err)
		if err == nil {
			var parts []string
			for _, l := range lexemes {
				parts = append(parts, fmt.Sprintf("%s@%s", l, l.Pos))
			}
			got = strings.Join(parts, " ")
		}
		if got != c.want {
			t.Errorf("LexAll(%q) = %s, want %s", c.src, got, c.want)
		}
	}
	prog, err := Parse("function real área(real lado) { var real π = 3.14; return π * lado * lado; }")
	if err != nil || prog.Func("área") == nil {
		t.Errorf("Unicode identifiers do not parse: %v", err)
	}
}
