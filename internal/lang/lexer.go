package lang

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
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
//
// The scanner classifies each byte once, by table. A position is the
// line and the byte offset from that line's start, so only whitespace,
// comments and string literals, where a newline can occur, move the
// line.
type Lexer struct {
	src       string
	off       int // the next byte to scan
	line      int // the line off is on
	lineStart int // the offset of that line's first byte
	names     *Names
	lex       Lexeme // the lexeme scan scanned last
	err       error  // its error; lex is then ILLEGAL
	// recent holds, by a hash of its bytes taken as they are scanned,
	// the id of a word met before, so a word met again skips the
	// table's seeded hash. A collision only costs the table's lookup.
	recent [256]ID
}

// NewLexer returns a lexer over src with a fresh identifier table.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, names: keywordNames.clone()}
}

// Byte classes.
const (
	identStart = 1 << iota
	identPart
	digit
	space
	pairStart // the first byte of a two-byte operator
)

// class classifies every byte by the predicates below. It holds only
// ASCII: a byte at or above utf8.RuneSelf is part of a multi-byte
// character, which scan decodes before it asks the predicates.
var class = func() (t [256]uint8) {
	for c := 0; c < utf8.RuneSelf; c++ {
		r := rune(c)
		if isIdentStart(r) {
			t[c] |= identStart
		}
		if isIdentPart(r) {
			t[c] |= identPart
		}
		if '0' <= r && r <= '9' {
			t[c] |= digit
		}
	}
	for _, c := range " \t\r\n" {
		t[c] |= space
	}
	for _, c := range "-=!<>&|" {
		t[c] |= pairStart
	}
	return t
}()

// punct is the token an operator or punctuation byte makes on its own;
// '&' and '|' make one only doubled.
var punct = [256]Token{
	'(': LPAREN, ')': RPAREN, '{': LBRACE, '}': RBRACE, '[': LBRACK, ']': RBRACK,
	';': SEMI, ',': COMMA, '+': PLUS, '-': MINUS, '*': STAR, '/': SLASH, '%': PERCENT,
	'=': ASSIGN, '!': NOT, '<': LT, '>': GT,
}

// pair returns the token of the two-byte operator c c2, or ILLEGAL. The
// paper writes "p <> NULL"; "<>" is accepted as !=.
func pair(c, c2 byte) Token {
	switch uint16(c)<<8 | uint16(c2) {
	case '-'<<8 | '>':
		return ARROW
	case '='<<8 | '=':
		return EQ
	case '!'<<8 | '=', '<'<<8 | '>':
		return NEQ
	case '<'<<8 | '=':
		return LE
	case '>'<<8 | '=':
		return GE
	case '&'<<8 | '&':
		return AND
	case '|'<<8 | '|':
		return OR
	}
	return ILLEGAL
}

// at returns off's position; no newline may lie between the line's
// start and off.
func (l *Lexer) at(off int) Pos { return Pos{l.line, off - l.lineStart + 1} }

// newlines moves the line past the newlines in src[from:to].
func (l *Lexer) newlines(from, to int) {
	if n := strings.Count(l.src[from:to], "\n"); n > 0 {
		l.line += n
		l.lineStart = from + strings.LastIndexByte(l.src[from:to], '\n') + 1
	}
}

func (l *Lexer) skipSpaceAndComments() error {
	src, off := l.src, l.off
	for off < len(src) {
		c := src[off]
		if class[c]&space != 0 {
			off++
			if c == '\n' {
				l.line, l.lineStart = l.line+1, off
			}
			continue
		}
		if c != '/' || off+1 == len(src) {
			break
		}
		if src[off+1] == '/' {
			if i := strings.IndexByte(src[off:], '\n'); i >= 0 {
				off += i
			} else {
				off = len(src)
			}
		} else if src[off+1] == '*' {
			n := strings.Index(src[off+2:], "*/")
			if n < 0 {
				return fmt.Errorf("%s: unterminated block comment", l.at(off))
			}
			l.newlines(off, off+2+n)
			off += n + 4
		} else {
			break
		}
	}
	l.off = off
	return nil
}

// Next scans and returns the next lexeme. At end of input it returns an
// EOF lexeme (repeatedly, if called again).
func (l *Lexer) Next() (Lexeme, error) {
	l.scan()
	return l.lex, l.err
}

// scan scans the next lexeme into l.lex, or its error into l.err.
func (l *Lexer) scan() {
	if err := l.skipSpaceAndComments(); err != nil {
		l.fail(err)
		return
	}
	// The fields are set one by one: a Lexeme built whole and copied in
	// costs a store-forwarding stall per lexeme.
	start, lex := l.off, &l.lex
	lex.Pos, lex.ID = l.at(start), 0
	if start >= len(l.src) {
		lex.Tok, lex.Text = EOF, ""
		return
	}
	c := l.src[start]
	switch {
	case class[c]&identStart != 0:
		l.ident(start)
	case class[c]&digit != 0:
		lex.Tok = l.number(start)
		lex.Text = l.src[start:l.off]
	case c == '"':
		text, err := l.str(start)
		if err != nil {
			l.fail(fmt.Errorf("%s: %v", lex.Pos, err))
			return
		}
		lex.Tok, lex.Text = STRING, text
	case c >= utf8.RuneSelf:
		switch r, size := utf8.DecodeRuneInString(l.src[start:]); {
		case r == utf8.RuneError && size == 1:
			l.fail(fmt.Errorf("%s: invalid UTF-8 byte %#x", lex.Pos, c))
		case isIdentStart(r):
			l.ident(start)
		default:
			l.fail(fmt.Errorf("%s: unexpected character %q", lex.Pos, r))
		}
	default:
		tok := punct[c]
		if l.off++; class[c]&pairStart != 0 && l.off < len(l.src) {
			if t := pair(c, l.src[l.off]); t != ILLEGAL {
				tok = t
				l.off++
			}
		}
		if tok == ILLEGAL {
			l.fail(fmt.Errorf("%s: unexpected character %q", lex.Pos, c))
			return
		}
		lex.Tok, lex.Text = tok, l.src[start:l.off]
	}
}

func (l *Lexer) fail(err error) { l.lex, l.err = Lexeme{Tok: ILLEGAL}, err }

// ident scans the word at start, a keyword or an identifier.
func (l *Lexer) ident(start int) {
	src, i, h := l.src, start, uint(0)
	for i < len(src) {
		if c := src[i]; c < utf8.RuneSelf {
			if class[c]&identPart == 0 {
				break
			}
			h = h*31 + uint(c)
			i++
		} else if r, size := utf8.DecodeRuneInString(src[i:]); isIdentPart(r) {
			h = h*31 + uint(r)
			i += size
		} else {
			break
		}
	}
	l.off = i
	text := src[start:i]
	h = (h ^ h>>8) % uint(len(l.recent))
	id := l.recent[h]
	if id == 0 || l.names.Text(id) != text {
		id = l.names.intern(text)
		l.recent[h] = id
	}
	if l.lex.Text = text; id <= ID(BOOLKW-keywords) { // the keywords' ids are 1..K, in token order
		l.lex.Tok = keywords + Token(id)
	} else {
		l.lex.Tok, l.lex.ID = IDENT, id
	}
}

// number scans the literal at start and returns INT or REAL: digits,
// then at most one '.' followed by a digit, then any number of exponent
// parts e[+-]?digits.
func (l *Lexer) number(start int) Token {
	src, i, tok := l.src, start, INT
	for i < len(src) {
		c := src[i]
		if class[c]&digit != 0 {
			i++
			continue
		}
		if c == '.' && tok == INT && i+1 < len(src) && class[src[i+1]]&digit != 0 {
			tok = REAL
			i++
			continue
		}
		if c != 'e' && c != 'E' {
			break
		}
		j := i + 1
		if j < len(src) && (src[j] == '+' || src[j] == '-') {
			j++
		}
		if j == len(src) || class[src[j]]&digit == 0 {
			break
		}
		tok = REAL
		for i = j; i < len(src) && class[src[i]]&digit != 0; i++ {
		}
	}
	l.off = i
	return tok
}

// str scans the string literal at start and returns its value: a slice
// of the source unless it has an escape.
func (l *Lexer) str(start int) (string, error) {
	src, i := l.src, start+1
	for i < len(src) && src[i] != '"' && src[i] != '\\' {
		i++
	}
	text := src[start+1 : i]
	if i < len(src) && src[i] == '\\' {
		var sb strings.Builder
		sb.WriteString(text)
		for i < len(src) && src[i] != '"' {
			c := src[i]
			i++
			if c != '\\' {
				sb.WriteByte(c)
				continue
			}
			if i == len(src) {
				return "", fmt.Errorf("unterminated string escape")
			}
			switch e := src[i]; e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '"', '\\':
				sb.WriteByte(e)
			default:
				r, _ := utf8.DecodeRuneInString(src[i:])
				return "", fmt.Errorf("unknown string escape \\%c", r)
			}
			i++
		}
		text = sb.String()
	}
	if i == len(src) {
		return "", fmt.Errorf("unterminated string literal")
	}
	l.newlines(start, i)
	l.off = i + 1
	return text, nil
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
