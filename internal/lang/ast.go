package lang

import (
	"fmt"
	"slices"

	"repro/internal/adds"
)

// ---------------------------------------------------------------------------
// Types

// Type is the type of a PSL expression: a scalar or a pointer to an
// ADDS-declared record type.
type Type interface {
	typeNode()
	String() string
}

// ScalarKind enumerates PSL's scalar types.
type ScalarKind int

// Scalar kinds.
const (
	KindInt ScalarKind = iota
	KindReal
	KindBool
	KindString
)

// Scalar is a scalar type.
type Scalar struct{ Kind ScalarKind }

func (*Scalar) typeNode() {}

func (s *Scalar) String() string {
	switch s.Kind {
	case KindInt:
		return "int"
	case KindReal:
		return "real"
	case KindBool:
		return "bool"
	default:
		return "string"
	}
}

// Singleton scalar types. Compare types with TypeEq, not ==, although the
// checker always uses these singletons.
var (
	Int    = &Scalar{KindInt}
	Real   = &Scalar{KindReal}
	Bool   = &Scalar{KindBool}
	String = &Scalar{KindString}
)

// Pointer is a pointer-to-record type. Elem names an ADDS declaration.
type Pointer struct{ Elem string }

func (*Pointer) typeNode() {}

func (p *Pointer) String() string { return p.Elem + "*" }

// PointerTo returns the pointer type for the named record.
func PointerTo(elem string) *Pointer { return &Pointer{Elem: elem} }

// TypeEq reports whether two types are identical.
func TypeEq(a, b Type) bool {
	if a == nil || b == nil {
		return a == b
	}
	switch a := a.(type) {
	case *Scalar:
		b, ok := b.(*Scalar)
		return ok && a.Kind == b.Kind
	case *Pointer:
		b, ok := b.(*Pointer)
		return ok && a.Elem == b.Elem
	}
	return false
}

// IsPointer reports whether t is a pointer type, returning the record name.
func IsPointer(t Type) (string, bool) {
	p, ok := t.(*Pointer)
	if !ok {
		return "", false
	}
	return p.Elem, true
}

// ---------------------------------------------------------------------------
// AST nodes

// Node is any AST node.
type Node interface {
	Pos() Pos
}

// Expr is an expression node. Type() is valid after type checking.
type Expr interface {
	Node
	exprNode()
	Type() Type
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

type exprBase struct {
	pos Pos
	typ Type
}

func (e *exprBase) Pos() Pos   { return e.pos }
func (e *exprBase) Type() Type { return e.typ }

// SetType records the checked type of the expression. Exposed so that
// passes building synthetic AST (the normalizer and transformations) can
// keep the tree typed.
func (e *exprBase) SetType(t Type) { e.typ = t }

// Ident is a variable reference.
type Ident struct {
	exprBase
	Name string
}

func (*Ident) exprNode() {}

// NewIdent constructs a typed identifier at a position.
func NewIdent(name string, t Type, pos Pos) *Ident {
	id := &Ident{Name: name}
	id.pos = pos
	id.typ = t
	return id
}

// FieldExpr is a pointer field access X->Field, optionally indexed
// (X->Field[Index]) for pointer-array fields such as subtrees[i].
// After normalization X is always an *Ident.
type FieldExpr struct {
	exprBase
	X     Expr
	Field string
	Index Expr // nil unless the field is a pointer array
}

func (*FieldExpr) exprNode() {}

// Base returns the base identifier of a normalized field access, or nil
// if the access is not normalized.
func (f *FieldExpr) Base() *Ident {
	id, _ := f.X.(*Ident)
	return id
}

// CallExpr is a function call.
type CallExpr struct {
	exprBase
	Func string
	Args []Expr
}

func (*CallExpr) exprNode() {}

// NewExpr allocates a record: new T.
type NewExpr struct {
	exprBase
	TypeName string
}

func (*NewExpr) exprNode() {}

// NullLit is the NULL literal. Its type is assigned from context by the
// checker.
type NullLit struct{ exprBase }

func (*NullLit) exprNode() {}

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Val int64
}

func (*IntLit) exprNode() {}

// NewIntLit constructs a typed integer literal.
func NewIntLit(v int64, pos Pos) *IntLit {
	l := &IntLit{Val: v}
	l.pos = pos
	l.typ = Int
	return l
}

// RealLit is a real literal.
type RealLit struct {
	exprBase
	Val float64
}

func (*RealLit) exprNode() {}

// StrLit is a string literal (only meaningful as a print argument).
type StrLit struct {
	exprBase
	Val string
}

func (*StrLit) exprNode() {}

// BoolLit is true or false.
type BoolLit struct {
	exprBase
	Val bool
}

func (*BoolLit) exprNode() {}

// BinExpr is a binary operation.
type BinExpr struct {
	exprBase
	Op   Token
	X, Y Expr
}

func (*BinExpr) exprNode() {}

// UnExpr is a unary operation (MINUS or NOT).
type UnExpr struct {
	exprBase
	Op Token
	X  Expr
}

func (*UnExpr) exprNode() {}

// ---------------------------------------------------------------------------
// Statements

type stmtBase struct{ pos Pos }

func (s *stmtBase) Pos() Pos { return s.pos }

// SetPos stamps the statement's source position. Transforms use it to
// attribute synthesized statements (e.g. the forall that strip-mining
// generates) to the source loop they came from, so positions in error
// messages and profiles point at code the user wrote.
func (s *stmtBase) SetPos(p Pos) { s.pos = p }

// Block is a brace-delimited statement sequence.
type Block struct {
	stmtBase
	Stmts []Stmt
}

func (*Block) stmtNode() {}

// VarStmt declares a local variable with an optional initializer:
// "var OneWayList *p = head;".
type VarStmt struct {
	stmtBase
	Name     string
	DeclType Type
	Init     Expr // may be nil
}

func (*VarStmt) stmtNode() {}

// AssignStmt assigns RHS to LHS. LHS is an *Ident or a *FieldExpr.
type AssignStmt struct {
	stmtBase
	LHS Expr
	RHS Expr
}

func (*AssignStmt) stmtNode() {}

// WhileStmt is a while loop.
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body *Block
}

func (*WhileStmt) stmtNode() {}

// IfStmt is a conditional with optional else.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then *Block
	Else *Block // may be nil
}

func (*IfStmt) stmtNode() {}

// ReturnStmt returns from a function; Value is nil in procedures.
type ReturnStmt struct {
	stmtBase
	Value Expr
}

func (*ReturnStmt) stmtNode() {}

// CallStmt is a call evaluated for effect.
type CallStmt struct {
	stmtBase
	Call *CallExpr
}

func (*CallStmt) stmtNode() {}

// ForStmt is a counted loop "for i = a to b { ... }" inclusive of both
// bounds. Parallel marks a forall loop, whose iterations execute
// concurrently (the transformation target of §4.3.3).
type ForStmt struct {
	stmtBase
	Var      string
	From, To Expr
	Body     *Block
	Parallel bool
}

func (*ForStmt) stmtNode() {}

// ---------------------------------------------------------------------------
// Declarations

// Param is a function parameter.
type Param struct {
	Name string
	Type Type
}

// FuncDecl is a function or procedure definition.
type FuncDecl struct {
	pos    Pos
	Name   string
	Params []Param
	Result Type // nil for procedures
	Body   *Block
}

// Pos returns the declaration's source position.
func (f *FuncDecl) Pos() Pos { return f.pos }

// IsProcedure reports whether f returns nothing.
func (f *FuncDecl) IsProcedure() bool { return f.Result == nil }

// Program is a parsed, checked PSL program: the ADDS universe of its type
// declarations plus its functions.
type Program struct {
	Universe *adds.Universe
	Funcs    []*FuncDecl
	funcMap  map[string]*FuncDecl
}

// Func returns the named function, or nil.
func (p *Program) Func(name string) *FuncDecl {
	return p.funcMap[name]
}

// AddFunc installs a function (used by transformations that synthesize
// helper procedures). It returns an error on duplicates.
func (p *Program) AddFunc(f *FuncDecl) error {
	if _, dup := p.funcMap[f.Name]; dup {
		return fmt.Errorf("lang: function %q already defined", f.Name)
	}
	p.Funcs = append(p.Funcs, f)
	p.funcMap[f.Name] = f
	return nil
}

// Clone returns a copy of the program that deep-copies every function,
// or only the named ones, sharing the rest with p (which no one may then
// modify). Transformations clone before rewriting so the original stays
// available for comparison runs.
func (p *Program) Clone(names ...string) *Program {
	q := &Program{Universe: p.Universe, Funcs: make([]*FuncDecl, 0, len(p.Funcs)), funcMap: make(map[string]*FuncDecl, len(p.Funcs))}
	for _, f := range p.Funcs {
		if len(names) == 0 || slices.Contains(names, f.Name) {
			f = cloneFunc(f)
		}
		q.Funcs = append(q.Funcs, f)
		q.funcMap[f.Name] = f
	}
	return q
}

func cloneFunc(f *FuncDecl) *FuncDecl {
	nf := &FuncDecl{pos: f.pos, Name: f.Name, Result: f.Result}
	nf.Params = append([]Param(nil), f.Params...)
	nf.Body = CloneBlock(f.Body)
	return nf
}

// CloneBlock deep-copies a block.
func CloneBlock(b *Block) *Block {
	if b == nil {
		return nil
	}
	nb := &Block{}
	nb.pos = b.pos
	for _, s := range b.Stmts {
		nb.Stmts = append(nb.Stmts, CloneStmt(s))
	}
	return nb
}

// CloneStmt deep-copies a statement.
func CloneStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *Block:
		return CloneBlock(s)
	case *VarStmt:
		ns := &VarStmt{Name: s.Name, DeclType: s.DeclType, Init: CloneExpr(s.Init)}
		ns.pos = s.pos
		return ns
	case *AssignStmt:
		ns := &AssignStmt{LHS: CloneExpr(s.LHS), RHS: CloneExpr(s.RHS)}
		ns.pos = s.pos
		return ns
	case *WhileStmt:
		ns := &WhileStmt{Cond: CloneExpr(s.Cond), Body: CloneBlock(s.Body)}
		ns.pos = s.pos
		return ns
	case *IfStmt:
		ns := &IfStmt{Cond: CloneExpr(s.Cond), Then: CloneBlock(s.Then), Else: CloneBlock(s.Else)}
		ns.pos = s.pos
		return ns
	case *ReturnStmt:
		ns := &ReturnStmt{Value: CloneExpr(s.Value)}
		ns.pos = s.pos
		return ns
	case *CallStmt:
		ns := &CallStmt{Call: CloneExpr(s.Call).(*CallExpr)}
		ns.pos = s.pos
		return ns
	case *ForStmt:
		ns := &ForStmt{Var: s.Var, From: CloneExpr(s.From), To: CloneExpr(s.To),
			Body: CloneBlock(s.Body), Parallel: s.Parallel}
		ns.pos = s.pos
		return ns
	}
	panic(fmt.Sprintf("lang: CloneStmt: unknown statement %T", s))
}

// CloneExpr deep-copies an expression, preserving checked types.
func CloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch e := e.(type) {
	case *Ident:
		ne := &Ident{Name: e.Name}
		ne.exprBase = e.exprBase
		return ne
	case *FieldExpr:
		ne := &FieldExpr{X: CloneExpr(e.X), Field: e.Field, Index: CloneExpr(e.Index)}
		ne.exprBase = e.exprBase
		return ne
	case *CallExpr:
		ne := &CallExpr{Func: e.Func}
		ne.exprBase = e.exprBase
		for _, a := range e.Args {
			ne.Args = append(ne.Args, CloneExpr(a))
		}
		return ne
	case *NewExpr:
		ne := &NewExpr{TypeName: e.TypeName}
		ne.exprBase = e.exprBase
		return ne
	case *NullLit:
		ne := &NullLit{}
		ne.exprBase = e.exprBase
		return ne
	case *IntLit:
		ne := &IntLit{Val: e.Val}
		ne.exprBase = e.exprBase
		return ne
	case *RealLit:
		ne := &RealLit{Val: e.Val}
		ne.exprBase = e.exprBase
		return ne
	case *StrLit:
		ne := &StrLit{Val: e.Val}
		ne.exprBase = e.exprBase
		return ne
	case *BoolLit:
		ne := &BoolLit{Val: e.Val}
		ne.exprBase = e.exprBase
		return ne
	case *BinExpr:
		ne := &BinExpr{Op: e.Op, X: CloneExpr(e.X), Y: CloneExpr(e.Y)}
		ne.exprBase = e.exprBase
		return ne
	case *UnExpr:
		ne := &UnExpr{Op: e.Op, X: CloneExpr(e.X)}
		ne.exprBase = e.exprBase
		return ne
	}
	panic(fmt.Sprintf("lang: CloneExpr: unknown expression %T", e))
}

// Walk calls fn for every statement in the block, recursing into nested
// blocks, in source order. If fn returns false the walk stops.
func Walk(b *Block, fn func(Stmt) bool) bool {
	if b == nil {
		return true
	}
	for _, s := range b.Stmts {
		if !fn(s) {
			return false
		}
		switch s := s.(type) {
		case *Block:
			if !Walk(s, fn) {
				return false
			}
		case *WhileStmt:
			if !Walk(s.Body, fn) {
				return false
			}
		case *IfStmt:
			if !Walk(s.Then, fn) || !Walk(s.Else, fn) {
				return false
			}
		case *ForStmt:
			if !Walk(s.Body, fn) {
				return false
			}
		}
	}
	return true
}

// WalkExprs calls fn for every expression appearing in the statement
// (not recursing into nested statements).
func WalkExprs(s Stmt, fn func(Expr)) {
	var walkExpr func(Expr)
	walkExpr = func(e Expr) {
		if e == nil {
			return
		}
		fn(e)
		switch e := e.(type) {
		case *FieldExpr:
			walkExpr(e.X)
			walkExpr(e.Index)
		case *CallExpr:
			for _, a := range e.Args {
				walkExpr(a)
			}
		case *BinExpr:
			walkExpr(e.X)
			walkExpr(e.Y)
		case *UnExpr:
			walkExpr(e.X)
		}
	}
	switch s := s.(type) {
	case *VarStmt:
		walkExpr(s.Init)
	case *AssignStmt:
		walkExpr(s.LHS)
		walkExpr(s.RHS)
	case *WhileStmt:
		walkExpr(s.Cond)
	case *IfStmt:
		walkExpr(s.Cond)
	case *ReturnStmt:
		walkExpr(s.Value)
	case *CallStmt:
		walkExpr(s.Call)
	case *ForStmt:
		walkExpr(s.From)
		walkExpr(s.To)
	}
}
