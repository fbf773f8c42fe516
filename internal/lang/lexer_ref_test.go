package lang

import (
	"fmt"
	"strings"
	"unicode"
)

// The lexer as it was before it classified bytes by table and took
// positions from offsets, kept verbatim (under test-only names) as the
// oracle LexDiff holds LexAll to. It reads every byte of a UTF-8
// character as a Latin-1 rune, so it is the oracle only for sources
// without a byte at or above 0x80.

// refLexer scans PSL source text into lexemes. Comments run from "//" to end
// of line and from "/*" to "*/". Every word it scans is interned once in
// its table, which already holds the keywords.
type refLexer struct {
	src   string
	pos   int
	line  int
	col   int
	names *Names
}

// newRefLexer returns a lexer over src with a fresh identifier table.
func newRefLexer(src string) *refLexer {
	return &refLexer{src: src, line: 1, col: 1, names: keywordNames.clone()}
}

func (l *refLexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *refLexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *refLexer) peekByte2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *refLexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekByte2() == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekByte2() == '*':
			open := Pos{l.line, l.col}
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peekByte() == '*' && l.peekByte2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return fmt.Errorf("%s: unterminated block comment", open)
			}
		default:
			return nil
		}
	}
	return nil
}

// next scans and returns the next lexeme. At end of input it returns an
// EOF lexeme (repeatedly, if called again).
func (l *refLexer) next() (Lexeme, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Lexeme{Tok: ILLEGAL}, err
	}
	pos := Pos{l.line, l.col}
	if l.pos >= len(l.src) {
		return Lexeme{Tok: EOF, Pos: pos}, nil
	}
	c := l.peekByte()
	switch {
	case refIsIdentStart(rune(c)):
		start := l.pos
		for l.pos < len(l.src) && refIsIdentPart(rune(l.src[l.pos])) {
			l.pos++ // never a newline
			l.col++
		}
		text := l.src[start:l.pos]
		id := l.names.intern(text)
		if id <= ID(BOOLKW-keywords) { // the keywords' ids are 1..K, in token order
			return Lexeme{Tok: keywords + Token(id), Text: text, Pos: pos}, nil
		}
		return Lexeme{Tok: IDENT, Text: text, ID: id, Pos: pos}, nil

	case c >= '0' && c <= '9':
		start := l.pos
		isReal := false
		for l.pos < len(l.src) {
			c := l.peekByte()
			if c >= '0' && c <= '9' {
				l.advance()
				continue
			}
			if c == '.' && !isReal && l.peekByte2() >= '0' && l.peekByte2() <= '9' {
				isReal = true
				l.advance()
				continue
			}
			if (c == 'e' || c == 'E') && l.pos > start {
				// Exponent part: e[+-]?digits
				save, saveLine, saveCol := l.pos, l.line, l.col
				l.advance()
				if l.peekByte() == '+' || l.peekByte() == '-' {
					l.advance()
				}
				if d := l.peekByte(); d >= '0' && d <= '9' {
					isReal = true
					for l.pos < len(l.src) && l.peekByte() >= '0' && l.peekByte() <= '9' {
						l.advance()
					}
					continue
				}
				l.pos, l.line, l.col = save, saveLine, saveCol
			}
			break
		}
		tok := INT
		if isReal {
			tok = REAL
		}
		return Lexeme{Tok: tok, Text: l.src[start:l.pos], Pos: pos}, nil

	case c == '"':
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Lexeme{Tok: ILLEGAL}, fmt.Errorf("%s: unterminated string literal", pos)
			}
			c := l.advance()
			if c == '"' {
				break
			}
			if c == '\\' {
				if l.pos >= len(l.src) {
					return Lexeme{Tok: ILLEGAL}, fmt.Errorf("%s: unterminated string escape", pos)
				}
				e := l.advance()
				switch e {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '"':
					sb.WriteByte('"')
				case '\\':
					sb.WriteByte('\\')
				default:
					return Lexeme{Tok: ILLEGAL}, fmt.Errorf("%s: unknown string escape \\%c", pos, e)
				}
				continue
			}
			sb.WriteByte(c)
		}
		return Lexeme{Tok: STRING, Text: sb.String(), Pos: pos}, nil
	}

	// Operators and punctuation.
	two := func(tok Token, text string) (Lexeme, error) {
		l.advance()
		l.advance()
		return Lexeme{Tok: tok, Text: text, Pos: pos}, nil
	}
	one := func(tok Token) (Lexeme, error) {
		l.advance()
		return Lexeme{Tok: tok, Text: l.src[l.pos-1 : l.pos], Pos: pos}, nil
	}
	switch c {
	case '(':
		return one(LPAREN)
	case ')':
		return one(RPAREN)
	case '{':
		return one(LBRACE)
	case '}':
		return one(RBRACE)
	case '[':
		return one(LBRACK)
	case ']':
		return one(RBRACK)
	case ';':
		return one(SEMI)
	case ',':
		return one(COMMA)
	case '+':
		return one(PLUS)
	case '*':
		return one(STAR)
	case '/':
		return one(SLASH)
	case '%':
		return one(PERCENT)
	case '-':
		if l.peekByte2() == '>' {
			return two(ARROW, "->")
		}
		return one(MINUS)
	case '=':
		if l.peekByte2() == '=' {
			return two(EQ, "==")
		}
		return one(ASSIGN)
	case '!':
		if l.peekByte2() == '=' {
			return two(NEQ, "!=")
		}
		return one(NOT)
	case '<':
		if l.peekByte2() == '=' {
			return two(LE, "<=")
		}
		if l.peekByte2() == '>' {
			// The paper writes "p <> NULL"; accept it as !=.
			return two(NEQ, "<>")
		}
		return one(LT)
	case '>':
		if l.peekByte2() == '=' {
			return two(GE, ">=")
		}
		return one(GT)
	case '&':
		if l.peekByte2() == '&' {
			return two(AND, "&&")
		}
	case '|':
		if l.peekByte2() == '|' {
			return two(OR, "||")
		}
	}
	return Lexeme{Tok: ILLEGAL}, fmt.Errorf("%s: unexpected character %q", pos, c)
}

// refLexAll scans the entire input, returning all lexemes up to and including
// the EOF lexeme.
func refLexAll(src string) ([]Lexeme, error) {
	lx := newRefLexer(src)
	var out []Lexeme
	for {
		lex, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, lex)
		if lex.Tok == EOF {
			return out, nil
		}
	}
}

func refIsIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func refIsIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// LexDiff lexes src with LexAll and with the reference lexer and
// describes the first difference — error text, lexeme count, or one
// lexeme's token, id, text or position — or returns "" when there is
// none. Exported for the corpus test in package lang_test.
func LexDiff(src string) string {
	got, gotErr := LexAll(src)
	want, wantErr := refLexAll(src)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d lexemes, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("lexeme %d: %+v, reference %+v", i, got[i], want[i])
		}
	}
	return ""
}
