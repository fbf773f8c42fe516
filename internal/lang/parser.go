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

// ParseRaw parses without checking or normalizing. A lexing error
// anywhere in src is reported ahead of any other error, as if the whole
// source had been lexed first.
func ParseRaw(src string) (*Program, error) {
	p := &parser{lx: NewLexer(src)}
	p.cur, p.lexErr = p.lx.Next()
	prog, err := p.program()
	for err != nil && p.lexErr == nil && p.cur.Tok != EOF {
		p.next()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return prog, err
}

func (p *parser) program() (*Program, error) {
	prog := &Program{Universe: adds.NewUniverse(), funcMap: make(map[string]*FuncDecl), names: p.lx.names}
	for p.peek().Tok != EOF {
		switch p.peek().Tok {
		case TYPE:
			d, err := p.parseTypeDecl()
			if err != nil {
				return nil, err
			}
			if err := prog.Universe.Add(d); err != nil {
				return nil, err
			}
		case FUNCTION, PROCEDURE:
			f, err := p.parseFunc()
			if err != nil {
				return nil, err
			}
			if err := prog.AddFunc(f); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("expected type, function, or procedure, found %s", p.peek())
		}
	}
	if err := prog.Universe.Check(); err != nil {
		return nil, err
	}
	return prog, nil
}

// parser pulls lexemes one at a time. After the first lexing error cur
// stays ILLEGAL, which no production accepts, and ParseRaw reports it.
type parser struct {
	lx     *Lexer
	cur    Lexeme
	lexErr error
	stmts  []Stmt // the open blocks' statements so far, innermost last
	args   []Expr // the open calls' arguments so far, likewise
}

func (p *parser) peek() Lexeme { return p.cur }

func (p *parser) next() Lexeme {
	lex := p.cur
	if lex.Tok != EOF && lex.Tok != ILLEGAL {
		p.cur, p.lexErr = p.lx.Next()
	}
	return lex
}

func (p *parser) accept(tok Token) bool {
	if p.peek().Tok == tok {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(tok Token) (Lexeme, error) {
	lex := p.peek()
	if lex.Tok != tok {
		return lex, p.errf("expected %s, found %s", tok, lex)
	}
	return p.next(), nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("%s: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------------
// Type declarations (ADDS)

func (p *parser) parseTypeDecl() (*adds.Decl, error) {
	if _, err := p.expect(TYPE); err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	d := &adds.Decl{Name: name.Text}
	for p.peek().Tok == LBRACK {
		p.next()
		dim, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RBRACK); err != nil {
			return nil, err
		}
		d.Dims = append(d.Dims, dim.Text)
	}
	if len(d.Dims) == 0 {
		d.Dims = []string{adds.DefaultDimension}
	}
	if p.accept(WHERE) {
		for {
			a, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(OR); err != nil { // "||"
				return nil, err
			}
			b, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			d.Indep = append(d.Indep, [2]string{a.Text, b.Text})
			if !p.accept(COMMA) {
				break
			}
		}
	}
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	for p.peek().Tok != RBRACE {
		if err := p.parseFieldDecl(d); err != nil {
			return nil, err
		}
	}
	p.next() // }
	p.accept(SEMI)
	return d, nil
}

func (p *parser) parseFieldDecl(d *adds.Decl) error {
	var typeName string
	switch p.peek().Tok {
	case INTKW, REALKW, BOOLKW, IDENT:
		typeName = p.next().Text
	default:
		return p.errf("expected field type, found %s", p.peek())
	}
	isPointer := p.accept(STAR)
	type pending struct {
		name  string
		count int
	}
	var names []pending
	for {
		name, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		count := 1
		if p.accept(LBRACK) {
			num, err := p.expect(INT)
			if err != nil {
				return err
			}
			// maxPtrArray bounds pointer-array fields: the paper's
			// structures top out at 8 (the octree); anything huge is a
			// typo or an allocation bomb (every `new` materializes the
			// whole array).
			const maxPtrArray = 1024
			n, convErr := strconv.Atoi(num.Text)
			if convErr != nil || n < 1 || n > maxPtrArray {
				return p.errf("bad array count %q (1..%d)", num.Text, maxPtrArray)
			}
			count = n
			if _, err := p.expect(RBRACK); err != nil {
				return err
			}
		}
		names = append(names, pending{name.Text, count})
		if !p.accept(COMMA) {
			break
		}
		if isPointer {
			if _, err := p.expect(STAR); err != nil {
				return err
			}
		}
	}
	if !isPointer {
		for _, n := range names {
			if n.count != 1 {
				return p.errf("array data fields are not supported: %s.%s", d.Name, n.name)
			}
			d.Data = append(d.Data, adds.DataField{Name: n.name, Type: typeName})
		}
		_, err := p.expect(SEMI)
		return err
	}
	dim, dir, unique := "", adds.Unknown, false
	if p.accept(IS) {
		if p.accept(UNIQUELY) {
			unique = true
		}
		switch p.peek().Tok {
		case FORWARD:
			dir = adds.Forward
		case BACKWARD:
			dir = adds.Backward
		default:
			return p.errf("expected forward or backward, found %s", p.peek())
		}
		p.next()
		if _, err := p.expect(ALONG); err != nil {
			return err
		}
		dimTok, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		dim = dimTok.Text
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
	_, err := p.expect(SEMI)
	return err
}

// ---------------------------------------------------------------------------
// Functions

// parseType parses "int", "real", "bool", or "Name *".
func (p *parser) parseType() (Type, error) {
	switch p.peek().Tok {
	case INTKW:
		p.next()
		return Int, nil
	case REALKW:
		p.next()
		return Real, nil
	case BOOLKW:
		p.next()
		return Bool, nil
	case IDENT:
		name := p.next().Text
		if _, err := p.expect(STAR); err != nil {
			return nil, fmt.Errorf("%v (record types are used only through pointers)", err)
		}
		return PointerTo(name), nil
	}
	return nil, p.errf("expected a type, found %s", p.peek())
}

func (p *parser) parseFunc() (*FuncDecl, error) {
	kw := p.next() // FUNCTION or PROCEDURE
	f := &FuncDecl{pos: kw.Pos}
	if kw.Tok == FUNCTION {
		// function <rettype> <name>(params) { ... }
		rt, err := p.parseType()
		if err != nil {
			return nil, err
		}
		f.Result = rt
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	f.Name = name.Text
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	if p.peek().Tok != RPAREN {
		for {
			t, err := p.parseType()
			if err != nil {
				return nil, err
			}
			pn, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			f.Params = append(f.Params, Param{Name: pn.Text, ID: pn.ID, Type: t})
			if !p.accept(COMMA) {
				break
			}
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) parseBlock() (*Block, error) {
	open, err := p.expect(LBRACE)
	if err != nil {
		return nil, err
	}
	b := &Block{}
	b.pos = open.Pos
	mark := len(p.stmts)
	for p.peek().Tok != RBRACE {
		if p.peek().Tok == EOF {
			return nil, p.errf("unterminated block opened at %s", open.Pos)
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	if len(p.stmts) > mark { // one exact-size slice per block
		b.Stmts = slices.Clone(p.stmts[mark:])
		p.stmts = p.stmts[:mark]
	}
	p.next() // }
	return b, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	switch p.peek().Tok {
	case VAR:
		return p.parseVarStmt()
	case WHILE:
		kw := p.next()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		s := &WhileStmt{Cond: cond, Body: body}
		s.pos = kw.Pos
		return s, nil
	case IF:
		kw := p.next()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		s := &IfStmt{Cond: cond, Then: then}
		s.pos = kw.Pos
		if p.accept(ELSE) {
			if p.peek().Tok == IF {
				// else if: wrap the nested if in a block.
				nested, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				eb := &Block{}
				eb.pos = nested.Pos()
				eb.Stmts = []Stmt{nested}
				s.Else = eb
			} else {
				els, err := p.parseBlock()
				if err != nil {
					return nil, err
				}
				s.Else = els
			}
		}
		return s, nil
	case RETURN:
		kw := p.next()
		s := &ReturnStmt{}
		s.pos = kw.Pos
		if p.peek().Tok != SEMI {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Value = v
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return s, nil
	case FOR, FORALL:
		kw := p.next()
		v, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(ASSIGN); err != nil {
			return nil, err
		}
		from, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TO); err != nil {
			return nil, err
		}
		to, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		s := &ForStmt{Var: v.Text, ID: v.ID, From: from, To: to, Body: body, Parallel: kw.Tok == FORALL}
		s.pos = kw.Pos
		return s, nil
	case LBRACE:
		return p.parseBlock()
	default:
		// Assignment or call statement: parse a postfix expression first.
		lhs, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		if p.peek().Tok == ASSIGN {
			eq := p.next()
			switch lhs.(type) {
			case *Ident, *FieldExpr:
			default:
				return nil, fmt.Errorf("%s: cannot assign to this expression", eq.Pos)
			}
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
			s := &AssignStmt{LHS: lhs, RHS: rhs}
			s.pos = lhs.Pos()
			return s, nil
		}
		call, ok := lhs.(*CallExpr)
		if !ok {
			return nil, p.errf("expected assignment or call statement")
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		s := &CallStmt{Call: call}
		s.pos = call.Pos()
		return s, nil
	}
}

func (p *parser) parseVarStmt() (Stmt, error) {
	kw := p.next() // var
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	s := &VarStmt{Name: name.Text, ID: name.ID, DeclType: t}
	s.pos = kw.Pos
	if p.accept(ASSIGN) {
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Init = init
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Expressions

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(0) }

// binaryLevels lists the binary operators by precedence, loosest first;
// every level is left-associative.
var binaryLevels = [][]Token{{OR}, {AND}, {EQ, NEQ}, {LT, LE, GT, GE}, {PLUS, MINUS}, {STAR, SLASH, PERCENT}}

// parseBinary parses a chain of level's operators over operands of the
// next tighter level (unary expressions below the tightest).
func (p *parser) parseBinary(level int) (Expr, error) {
	if level == len(binaryLevels) {
		return p.parseUnary()
	}
	x, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for slices.Contains(binaryLevels[level], p.peek().Tok) {
		op := p.next()
		y, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		b := &BinExpr{Op: op.Tok, X: x, Y: y}
		b.pos = op.Pos
		x = b
	}
	return x, nil
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.peek().Tok {
	case MINUS, NOT:
		op := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		u := &UnExpr{Op: op.Tok, X: x}
		u.pos = op.Pos
		return u, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.peek().Tok == ARROW {
		arrow := p.next()
		field, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		fe := &FieldExpr{X: x, Field: field.Text, FieldID: field.ID}
		fe.pos = arrow.Pos
		if p.accept(LBRACK) {
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			fe.Index = idx
		}
		x = fe
	}
	return x, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	lex := p.peek()
	switch lex.Tok {
	case IDENT:
		p.next()
		if p.peek().Tok == LPAREN {
			p.next()
			call := &CallExpr{Func: lex.Text}
			call.pos = lex.Pos
			if p.peek().Tok != RPAREN {
				mark := len(p.args)
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					p.args = append(p.args, a)
					if !p.accept(COMMA) {
						break
					}
				}
				call.Args = slices.Clone(p.args[mark:])
				p.args = p.args[:mark]
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			return call, nil
		}
		id := &Ident{Name: lex.Text, ID: lex.ID}
		id.pos = lex.Pos
		return id, nil
	case INT:
		p.next()
		v, err := strconv.ParseInt(lex.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad integer literal %q", lex.Pos, lex.Text)
		}
		e := &IntLit{Val: v}
		e.pos = lex.Pos
		return e, nil
	case REAL:
		p.next()
		v, err := strconv.ParseFloat(lex.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad real literal %q", lex.Pos, lex.Text)
		}
		e := &RealLit{Val: v}
		e.pos = lex.Pos
		return e, nil
	case STRING:
		p.next()
		e := &StrLit{Val: lex.Text}
		e.pos = lex.Pos
		return e, nil
	case TRUE, FALSE:
		p.next()
		e := &BoolLit{Val: lex.Tok == TRUE}
		e.pos = lex.Pos
		return e, nil
	case NULLKW:
		p.next()
		e := &NullLit{}
		e.pos = lex.Pos
		return e, nil
	case NEW:
		p.next()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		e := &NewExpr{TypeName: name.Text}
		e.pos = lex.Pos
		return e, nil
	case LPAREN:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("expected an expression, found %s", lex)
}
