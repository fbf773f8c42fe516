package lang

import (
	"fmt"
	"strings"
	"unicode"
)

// Lexeme is one scanned token with its source text and position; an
// identifier's also carries its id in the lexer's table.
type Lexeme struct {
	Tok  Token
	ID   ID
	Text string
	Pos  Pos
}

func (l Lexeme) String() string {
	if l.Tok == IDENT || l.Tok == INT || l.Tok == REAL || l.Tok == STRING {
		return fmt.Sprintf("%s(%q)", l.Tok, l.Text)
	}
	return l.Tok.String()
}

// Lexer scans PSL source text into lexemes. Comments run from "//" to end
// of line and from "/*" to "*/". Every word it scans is interned once in
// its table, which already holds the keywords.
type Lexer struct {
	src   string
	pos   int
	line  int
	col   int
	names *Names
}

// NewLexer returns a lexer over src with a fresh identifier table.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1, names: keywordNames.clone()}
}

func (l *Lexer) advance() byte {
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

func (l *Lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekByte2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) skipSpaceAndComments() error {
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

// Next scans and returns the next lexeme. At end of input it returns an
// EOF lexeme (repeatedly, if called again).
func (l *Lexer) Next() (Lexeme, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Lexeme{Tok: ILLEGAL}, err
	}
	pos := Pos{l.line, l.col}
	if l.pos >= len(l.src) {
		return Lexeme{Tok: EOF, Pos: pos}, nil
	}
	c := l.peekByte()
	switch {
	case isIdentStart(rune(c)):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
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

// LexAll scans the entire input, returning all lexemes up to and including
// the EOF lexeme.
func LexAll(src string) ([]Lexeme, error) {
	lx := NewLexer(src)
	var out []Lexeme
	for {
		lex, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, lex)
		if lex.Tok == EOF {
			return out, nil
		}
	}
}

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
