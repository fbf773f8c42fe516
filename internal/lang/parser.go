package lang

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/adds"
)

// Parse lexes, parses, checks, and normalizes a PSL program. The result
// is fully typed and in canonical pointer form (every pointer access is a
// single step from a named variable). It is checked once: Normalize
// types everything it introduces.
func Parse(src string) (*Program, error) {
	p, err := ParseRaw(src)
	if err != nil {
		return nil, err
	}
	if err := Check(p); err != nil {
		return nil, err
	}
	if err := Normalize(p); err != nil {
		return nil, err
	}
	return p, nil
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// maxNesting bounds how deep blocks, parentheses, unary operators, calls,
// index brackets and else-ifs may nest, and how long a chain of binary
// operators or of field accesses may run, all counted together. The
// parser recurses once per nesting level, and the checker, the
// normalizer, the lowering and the walker once per level of the tree a
// chain builds; a deep enough source would otherwise overflow the
// goroutine's stack, which no recover can catch.
const maxNesting = 1000

// ParseRaw parses without checking or normalizing. A lexing error
// anywhere in src is reported ahead of any other error, as if the whole
// source had been lexed first.
func ParseRaw(src string) (*Program, error) {
	p := &parser{Lexer: *NewLexer(src)}
	p.scan()
	prog, err := p.program()
	for err != nil && p.err == nil && p.lex.Tok != EOF {
		p.next()
	}
	if p.err != nil {
		return nil, p.err
	}
	return prog, err
}

// parser reads the lexer's current lexeme in place. After the first
// lexing error that lexeme stays ILLEGAL, which no production accepts,
// and ParseRaw reports the lexing error. A production that fails panics
// with a bailout, which program turns back into the error.
type parser struct {
	Lexer
	depth  int     // open blocks, parentheses, unary operators, calls, index brackets, else-ifs and chain links
	stmts  []Stmt  // the open blocks' statements so far, innermost last
	args   []Expr  // the open calls' arguments so far, likewise
	params []Param // the current function's parameters so far

	idents   slab[Ident]
	fields   slab[FieldExpr]
	bins     slab[BinExpr]
	ints     slab[IntLit]
	reals    slab[RealLit]
	calls    slab[CallExpr]
	blocks   slab[Block]
	vars     slab[VarStmt]
	assigns  slab[AssignStmt]
	whiles   slab[WhileStmt]
	ifs      slab[IfStmt]
	returns  slab[ReturnStmt]
	callSts  slab[CallStmt]
	fors     slab[ForStmt]
	nulls    slab[NullLit]
	lists    slab[Stmt] // blocks' statement lists
	argLists slab[Expr] // calls' argument lists
	ptrs     []*Pointer // the pointer types met so far, each made once
}

type bailout struct{ err error }

func (p *parser) program() (prog *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			b, ok := r.(bailout)
			if !ok {
				panic(r)
			}
			prog, err = nil, b.err
		}
	}()
	prog = &Program{Universe: adds.NewUniverse(), funcMap: make(map[string]int32), names: p.names}
	for p.lex.Tok != EOF {
		switch p.lex.Tok {
		case TYPE:
			p.check(prog.Universe.Add(p.parseTypeDecl()))
		case FUNCTION, PROCEDURE:
			p.check(prog.AddFunc(p.parseFunc()))
		default:
			p.fail("expected type, function, or procedure, found %s", p.lex)
		}
	}
	p.check(prog.Universe.Check())
	return prog, nil
}

// slab hands out one kind of node from chunks shared by the nodes of a
// parse. A chunk holds half the nodes the parse would still make at the
// rate it has made them so far, so chunks grow with the parse and shrink
// again towards its end, and a tiny program gets chunks of one.
type slab[T any] struct {
	chunk []T
	used  int // slots of chunk handed out
	n     int // nodes handed out over the parse
}

// carve returns k zeroed, adjacent Ts from s, as a slice with no room to
// grow in place.
func carve[T any](p *parser, s *slab[T], k int) []T {
	if s.used+k > len(s.chunk) {
		left := int64(s.n) * int64(len(p.src)-p.off) / int64(2*max(p.off, 1))
		s.chunk = slices.Grow(s.chunk[:0:0], k+int(min(left, 255)))
		s.chunk, s.used = s.chunk[:cap(s.chunk)], 0
	}
	x := s.chunk[s.used : s.used+k : s.used+k]
	s.used += k
	s.n += k
	return x
}

// node returns a zeroed node from s.
func node[T any](p *parser, s *slab[T]) *T { return &carve(p, s, 1)[0] }

func (p *parser) next() {
	if p.lex.Tok != EOF && p.lex.Tok != ILLEGAL {
		p.scan()
	}
}

func (p *parser) accept(tok Token) bool {
	if p.lex.Tok == tok {
		p.next()
		return true
	}
	return false
}

// want consumes a tok.
func (p *parser) want(tok Token) {
	if p.lex.Tok != tok {
		p.fail("expected %s, found %s", tok, p.lex)
	}
	p.next()
}

// ident consumes an identifier and returns its text and id.
func (p *parser) ident() (string, ID) {
	text, id := p.lex.Text, p.lex.ID
	p.want(IDENT)
	return text, id
}

// fail abandons the parse with an error at the current lexeme.
func (p *parser) fail(format string, args ...any) {
	p.check(fmt.Errorf("%s: %s", p.lex.Pos, fmt.Sprintf(format, args...)))
}

func (p *parser) check(err error) {
	if err != nil {
		panic(bailout{err})
	}
}

// enter opens a nesting level at pos; the caller closes it with
// p.depth--.
func (p *parser) enter(pos Pos) {
	if p.depth++; p.depth > maxNesting {
		p.check(fmt.Errorf("%s: nesting deeper than %d", pos, maxNesting))
	}
}

// link opens a level for the chain link at pos: a binary operator or a
// field access, each of which puts what the chain built so far one
// level deeper in the tree, though the parser reads the chain without
// recursing. The caller closes a chain's links when it ends.
func (p *parser) link(pos Pos) {
	if p.depth++; p.depth > maxNesting {
		p.check(fmt.Errorf("%s: expression deeper than %d", pos, maxNesting))
	}
}

// ---------------------------------------------------------------------------
// Type declarations (ADDS)

func (p *parser) parseTypeDecl() *adds.Decl {
	p.want(TYPE)
	d := &adds.Decl{}
	d.Name, _ = p.ident()
	for p.accept(LBRACK) {
		dim, _ := p.ident()
		p.want(RBRACK)
		d.Dims = append(d.Dims, dim)
	}
	if len(d.Dims) == 0 {
		d.Dims = []string{adds.DefaultDimension}
	}
	if p.accept(WHERE) {
		for {
			a, _ := p.ident()
			p.want(OR) // "||"
			b, _ := p.ident()
			d.Indep = append(d.Indep, [2]string{a, b})
			if !p.accept(COMMA) {
				break
			}
		}
	}
	p.want(LBRACE)
	for p.lex.Tok != RBRACE {
		p.parseFieldDecl(d)
	}
	p.next() // }
	p.accept(SEMI)
	return d
}

func (p *parser) parseFieldDecl(d *adds.Decl) {
	typeName := p.lex.Text
	switch p.lex.Tok {
	case INTKW, REALKW, BOOLKW, IDENT:
		p.next()
	default:
		p.fail("expected field type, found %s", p.lex)
	}
	isPointer := p.accept(STAR)
	type pending struct {
		name  string
		count int
	}
	var names []pending
	for {
		name, _ := p.ident()
		count := 1
		if p.accept(LBRACK) {
			num := p.lex.Text
			p.want(INT)
			// maxPtrArray bounds pointer-array fields: the paper's
			// structures top out at 8 (the octree); anything huge is a
			// typo or an allocation bomb (every `new` materializes the
			// whole array).
			const maxPtrArray = 1024
			n, convErr := strconv.Atoi(num)
			if convErr != nil || n < 1 || n > maxPtrArray {
				p.fail("bad array count %q (1..%d)", num, maxPtrArray)
			}
			count = n
			p.want(RBRACK)
		}
		names = append(names, pending{name, count})
		if !p.accept(COMMA) {
			break
		}
		if isPointer {
			p.want(STAR)
		}
	}
	if !isPointer {
		for _, n := range names {
			if n.count != 1 {
				p.fail("array data fields are not supported: %s.%s", d.Name, n.name)
			}
			d.Data = append(d.Data, adds.DataField{Name: n.name, Type: typeName})
		}
		p.want(SEMI)
		return
	}
	dim, dir, unique := "", adds.Unknown, false
	if p.accept(IS) {
		unique = p.accept(UNIQUELY)
		switch p.lex.Tok {
		case FORWARD:
			dir = adds.Forward
		case BACKWARD:
			dir = adds.Backward
		default:
			p.fail("expected forward or backward, found %s", p.lex)
		}
		p.next()
		p.want(ALONG)
		dim, _ = p.ident()
	}
	if dim == "" {
		dim = adds.DefaultDimension
		if !d.HasDim(dim) {
			d.Dims = append(d.Dims, dim)
		}
	}
	for _, n := range names {
		d.Pointers = append(d.Pointers, adds.PointerField{
			Name: n.name, Type: typeName, Count: n.count,
			Dim: dim, Dir: dir, Unique: unique,
		})
	}
	p.want(SEMI)
}

// ---------------------------------------------------------------------------
// Functions

// parseType parses "int", "real", "bool", or "Name *".
func (p *parser) parseType() Type {
	switch p.lex.Tok {
	case INTKW:
		p.next()
		return Int
	case REALKW:
		p.next()
		return Real
	case BOOLKW:
		p.next()
		return Bool
	case IDENT:
		name := p.lex.Text
		p.next()
		if p.lex.Tok != STAR {
			p.fail("expected %s, found %s (record types are used only through pointers)", STAR, p.lex)
		}
		p.next()
		for _, t := range p.ptrs {
			if t.Elem == name {
				return t
			}
		}
		t := PointerTo(name)
		p.ptrs = append(p.ptrs, t)
		return t
	}
	p.fail("expected a type, found %s", p.lex)
	return nil
}

func (p *parser) parseFunc() *FuncDecl {
	f := &FuncDecl{pos: p.lex.Pos}
	isFunc := p.lex.Tok == FUNCTION // else PROCEDURE
	p.next()
	if isFunc {
		// function <rettype> <name>(params) { ... }
		f.Result = p.parseType()
	}
	f.Name, _ = p.ident()
	p.want(LPAREN)
	if p.lex.Tok != RPAREN {
		params := p.params[:0]
		for {
			t := p.parseType()
			name, id := p.ident()
			params = append(params, Param{Name: name, ID: id, Type: t})
			if !p.accept(COMMA) {
				break
			}
		}
		f.Params, p.params = slices.Clone(params), params
	}
	p.want(RPAREN)
	f.Body = p.parseBlock()
	return f
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) parseBlock() *Block {
	open := p.lex.Pos
	p.want(LBRACE)
	p.enter(open)
	b := node(p, &p.blocks)
	b.pos = open
	mark := len(p.stmts)
	for p.lex.Tok != RBRACE {
		if p.lex.Tok == EOF {
			p.fail("unterminated block opened at %s", open)
		}
		s := p.parseStmt()
		p.stmts = append(p.stmts, s)
	}
	if len(p.stmts) > mark {
		b.Stmts = carve(p, &p.lists, len(p.stmts)-mark)
		copy(b.Stmts, p.stmts[mark:])
		p.stmts = p.stmts[:mark]
	}
	p.next() // }
	p.depth--
	return b
}

func (p *parser) parseStmt() Stmt {
	pos := p.lex.Pos
	switch p.lex.Tok {
	case VAR:
		p.next()
		s := node(p, &p.vars)
		s.pos = pos
		s.DeclType = p.parseType()
		s.Name, s.ID = p.ident()
		if p.accept(ASSIGN) {
			s.Init = p.parseExpr()
		}
		p.want(SEMI)
		return s
	case WHILE:
		p.next()
		s := node(p, &p.whiles)
		s.pos = pos
		s.Cond = p.parseExpr()
		s.Body = p.parseBlock()
		return s
	case IF:
		p.next()
		s := node(p, &p.ifs)
		s.pos = pos
		s.Cond = p.parseExpr()
		s.Then = p.parseBlock()
		if !p.accept(ELSE) {
			return s
		}
		if p.lex.Tok != IF {
			s.Else = p.parseBlock()
			return s
		}
		// else if: wrap the nested if in a block.
		p.enter(p.lex.Pos)
		nested := p.parseStmt()
		p.depth--
		s.Else = node(p, &p.blocks)
		s.Else.pos = nested.Pos()
		s.Else.Stmts = []Stmt{nested}
		return s
	case RETURN:
		p.next()
		s := node(p, &p.returns)
		s.pos = pos
		if p.lex.Tok != SEMI {
			s.Value = p.parseExpr()
		}
		p.want(SEMI)
		return s
	case FOR, FORALL:
		s := node(p, &p.fors)
		s.pos, s.Parallel = pos, p.lex.Tok == FORALL
		p.next()
		s.Var, s.ID = p.ident()
		p.want(ASSIGN)
		s.From = p.parseExpr()
		p.want(TO)
		s.To = p.parseExpr()
		s.Body = p.parseBlock()
		return s
	case LBRACE:
		return p.parseBlock()
	}
	// Assignment or call statement: parse a postfix expression first.
	lhs := p.parsePostfix()
	if p.lex.Tok == ASSIGN {
		switch lhs.(type) {
		case *Ident, *FieldExpr:
		default:
			p.fail("cannot assign to this expression")
		}
		p.next()
		s := node(p, &p.assigns)
		s.pos, s.LHS = lhs.Pos(), lhs
		s.RHS = p.parseExpr()
		p.want(SEMI)
		return s
	}
	call, ok := lhs.(*CallExpr)
	if !ok {
		p.fail("expected assignment or call statement")
	}
	p.want(SEMI)
	s := node(p, &p.callSts)
	s.pos, s.Call = call.Pos(), call
	return s
}

// ---------------------------------------------------------------------------
// Expressions

// binaryPrec is each binary operator's precedence, loosest 1; it is 0
// for every other token. Every level is left-associative.
var binaryPrec = [BOOLKW + 1]int{
	OR: 1, AND: 2, EQ: 3, NEQ: 3, LT: 4, LE: 4, GT: 4, GE: 4,
	PLUS: 5, MINUS: 5, STAR: 6, SLASH: 6, PERCENT: 6,
}

func (p *parser) parseExpr() Expr { return p.parseBinary(1) }

// parseBinary parses a unary operand followed by every binary operator
// of precedence prec or tighter, each with a right operand whose own
// operators bind tighter than it: one call per operand. Each operator is
// a link of a left-deep chain.
func (p *parser) parseBinary(prec int) Expr {
	x := p.parseUnary()
	links := 0
	for ; binaryPrec[p.lex.Tok] >= prec; links++ {
		b := node(p, &p.bins)
		b.pos, b.Op, b.X = p.lex.Pos, p.lex.Tok, x
		p.link(b.pos)
		p.next()
		b.Y = p.parseBinary(binaryPrec[b.Op] + 1)
		x = b
	}
	p.depth -= links
	return x
}

func (p *parser) parseUnary() Expr {
	if op := p.lex.Tok; op == MINUS || op == NOT {
		u := &UnExpr{Op: op}
		u.pos = p.lex.Pos
		p.enter(u.pos)
		p.next()
		u.X = p.parseUnary()
		p.depth--
		return u
	}
	return p.parsePostfix()
}

// parsePostfix parses a primary and its chain of field accesses. Every
// access past the first is a link; the first is not, so that an index
// nested in an access, p->a[p->a[…]->v], costs one level each, its
// bracket's, as a parenthesis does.
func (p *parser) parsePostfix() Expr {
	x := p.parsePrimary()
	links := 0
	for first := true; p.lex.Tok == ARROW; first = false {
		fe := node(p, &p.fields)
		fe.pos, fe.X = p.lex.Pos, x
		if !first {
			p.link(fe.pos)
			links++
		}
		p.next()
		fe.Field, fe.FieldID = p.ident()
		if p.lex.Tok == LBRACK {
			p.enter(p.lex.Pos)
			p.next()
			fe.Index = p.parseExpr()
			p.want(RBRACK)
			p.depth--
		}
		x = fe
	}
	p.depth -= links
	return x
}

func (p *parser) parsePrimary() Expr {
	lex := &p.lex
	pos, text := lex.Pos, lex.Text
	switch lex.Tok {
	case IDENT:
		id := lex.ID
		p.next()
		if lex.Tok == LPAREN {
			return p.parseCall(text, pos)
		}
		e := node(p, &p.idents)
		e.pos, e.Name, e.ID = pos, text, id
		return e
	case INT:
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			p.check(fmt.Errorf("%s: bad integer literal %q", pos, text))
		}
		p.next()
		e := node(p, &p.ints)
		e.pos, e.Val = pos, v
		return e
	case REAL:
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			p.check(fmt.Errorf("%s: bad real literal %q", pos, text))
		}
		p.next()
		e := node(p, &p.reals)
		e.pos, e.Val = pos, v
		return e
	case STRING:
		p.next()
		e := &StrLit{Val: text}
		e.pos = pos
		return e
	case TRUE, FALSE:
		e := &BoolLit{Val: lex.Tok == TRUE}
		e.pos = pos
		p.next()
		return e
	case NULLKW:
		p.next()
		e := node(p, &p.nulls)
		e.pos = pos
		return e
	case NEW:
		p.next()
		e := &NewExpr{}
		e.pos = pos
		e.TypeName, _ = p.ident()
		return e
	case LPAREN:
		p.enter(pos)
		p.next()
		e := p.parseExpr()
		p.want(RPAREN)
		p.depth--
		return e
	}
	p.fail("expected an expression, found %s", p.lex)
	return nil
}

// parseCall parses a call's parenthesized arguments; name is already
// consumed.
func (p *parser) parseCall(name string, pos Pos) *CallExpr {
	p.enter(p.lex.Pos)
	p.next() // (
	call := node(p, &p.calls)
	call.pos, call.Func = pos, name
	if p.lex.Tok != RPAREN {
		mark := len(p.args)
		for {
			a := p.parseExpr()
			p.args = append(p.args, a)
			if !p.accept(COMMA) {
				break
			}
		}
		call.Args = carve(p, &p.argLists, len(p.args)-mark)
		copy(call.Args, p.args[mark:])
		p.args = p.args[:mark]
	}
	p.want(RPAREN)
	p.depth--
	return call
}
