// Package lang implements PSL, the small imperative pointer language the
// paper's analysis operates on. PSL provides exactly the constructs the
// paper uses: ADDS-annotated record types, pointer statements in the
// canonical forms (p = q, p = q->f, p->f = q, p = new T, p = NULL),
// scalar/field arithmetic, while/if control flow, recursive functions,
// and — as a transformation target — parallel forall loops.
//
// The package contains the lexer, parser, AST, type checker, a
// normalizer that rewrites chained pointer accesses into canonical
// single-step statements, and a source printer.
//
// Every program has one identifier table (Names): the lexer interns
// each name once, the AST carries the ids, and Check resolves each use
// to its declaration's slot, so later stages index by id and never hash
// a name again. After the lexer, only Program.Intern appends — in
// Normalize, and in transform for the names a rewrite creates; a Clone
// shares the table until either side interns a new name, which copies
// it first. Every other reader only reads, without a lock.
package lang

import "fmt"

// Token identifies a lexical token kind.
type Token int32

// Token kinds.
const (
	ILLEGAL Token = iota
	EOF

	IDENT  // p, compute_force
	INT    // 42
	REAL   // 3.14
	STRING // "hello"

	// Punctuation and operators.
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACK   // [
	RBRACK   // ]
	SEMI     // ;
	COMMA    // ,
	ARROW    // ->
	ASSIGN   // =
	EQ       // ==
	NEQ      // !=
	LT       // <
	LE       // <=
	GT       // >
	GE       // >=
	PLUS     // +
	MINUS    // -
	STAR     // *
	SLASH    // /
	PERCENT  // %
	NOT      // !
	AND      // &&
	OR       // ||
	keywords // marker: everything after is a keyword

	TYPE
	FUNCTION
	PROCEDURE
	VAR
	WHILE
	IF
	ELSE
	RETURN
	FOR
	FORALL
	TO
	NEW
	NULLKW
	TRUE
	FALSE
	IS
	UNIQUELY
	FORWARD
	BACKWARD
	ALONG
	WHERE
	INTKW
	REALKW
	BOOLKW
)

var tokenNames = map[Token]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF",
	IDENT: "identifier", INT: "int literal", REAL: "real literal", STRING: "string literal",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}", LBRACK: "[", RBRACK: "]",
	SEMI: ";", COMMA: ",", ARROW: "->", ASSIGN: "=",
	EQ: "==", NEQ: "!=", LT: "<", LE: "<=", GT: ">", GE: ">=",
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%",
	NOT: "!", AND: "&&", OR: "||",
	TYPE: "type", FUNCTION: "function", PROCEDURE: "procedure", VAR: "var",
	WHILE: "while", IF: "if", ELSE: "else", RETURN: "return",
	FOR: "for", FORALL: "forall", TO: "to", NEW: "new", NULLKW: "NULL",
	TRUE: "true", FALSE: "false",
	IS: "is", UNIQUELY: "uniquely", FORWARD: "forward", BACKWARD: "backward",
	ALONG: "along", WHERE: "where",
	INTKW: "int", REALKW: "real", BOOLKW: "bool",
}

// String returns a human-readable name for the token.
func (t Token) String() string {
	if s, ok := tokenNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Token(%d)", int(t))
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

// String renders "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }
