package lang

import (
	"fmt"
	"maps"
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

// Ident is a variable reference: its name, the name's id in the
// program's table, and — once checked — the slot of the declaration it
// resolves to (an index into its function's Vars).
type Ident struct {
	exprBase
	Name string
	ID   ID
	Slot int
}

func (*Ident) exprNode() {}

// FieldExpr is a pointer field access X->Field, optionally indexed
// (X->Field[Index]) for pointer-array fields such as subtrees[i].
// After normalization X is always an *Ident. Check sets Off, the index
// of Field in its record's Pointers, or Data if its type is a scalar.
type FieldExpr struct {
	exprBase
	X       Expr
	Field   string
	FieldID ID    // Field's id in the program's table
	Off     int32 // set by Check
	Index   Expr  // nil unless the field is a pointer array
}

func (*FieldExpr) exprNode() {}

// Base returns the base identifier of a normalized field access, or nil
// if the access is not normalized.
func (f *FieldExpr) Base() *Ident {
	id, _ := f.X.(*Ident)
	return id
}

// CallExpr is a function call. Once checked, Callee is the callee's
// index in Program.Funcs plus one, and 0 for a builtin.
type CallExpr struct {
	exprBase
	Func   string
	Callee int32
	Args   []Expr
}

func (*CallExpr) exprNode() {}

// NewExpr allocates a record: new T.
type NewExpr struct {
	exprBase
	TypeName string
	Decl     *adds.Decl // T's declaration, recorded by Check
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

// StrLit is a string literal; the checker accepts one only as a print
// argument.
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
// "var OneWayList *p = head;". ID is the name's id; Slot, set by the
// checker, is the declaration's index in its function's Vars.
type VarStmt struct {
	stmtBase
	Name     string
	ID       ID
	Slot     int
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
	ID       ID  // Var's id
	Slot     int // Var's declaration slot, as VarStmt's
	From, To Expr
	Body     *Block
	Parallel bool
}

func (*ForStmt) stmtNode() {}

// ---------------------------------------------------------------------------
// Declarations

// Param is a function parameter; parameter i has slot i.
type Param struct {
	Name string
	ID   ID
	Type Type
}

// FuncDecl is a function or procedure definition.
type FuncDecl struct {
	pos    Pos
	Name   string
	Params []Param
	Result Type // nil for procedures
	Body   *Block
	// Vars names the function's declaration slots: the parameters, then
	// every var and loop variable in the order the checker met them (and
	// Normalize's temporaries after). Every variable the body mentions
	// resolves to one slot, so a name is looked up once, by Check.
	Vars []ID
}

// Pos returns the declaration's source position.
func (f *FuncDecl) Pos() Pos { return f.pos }

// IsProcedure reports whether f returns nothing.
func (f *FuncDecl) IsProcedure() bool { return f.Result == nil }

// Program is a parsed, checked PSL program: the ADDS universe of its type
// declarations plus its functions, and the table of the identifiers
// they use.
type Program struct {
	Universe *adds.Universe
	Funcs    []*FuncDecl
	funcMap  map[string]int32 // a function's index in Funcs
	names    *Names
}

// Func returns the named function, or nil.
func (p *Program) Func(name string) *FuncDecl {
	if i, ok := p.funcMap[name]; ok {
		return p.Funcs[i]
	}
	return nil
}

// AddFunc installs a function (used by transformations that synthesize
// helper procedures). It returns an error on duplicates.
func (p *Program) AddFunc(f *FuncDecl) error {
	if _, dup := p.funcMap[f.Name]; dup {
		return fmt.Errorf("lang: function %q already defined", f.Name)
	}
	p.funcMap[f.Name] = int32(len(p.Funcs))
	p.Funcs = append(p.Funcs, f)
	return nil
}

// Clone returns a copy of the program that deep-copies every function,
// or only the named ones, sharing the rest with p (which no one may then
// modify). Transformations clone before rewriting so the original stays
// available for comparison runs. The two share p's identifier table
// until one of them interns a new name (Intern). Every function keeps
// its index, so the callees a shared body's calls resolved to (Callee)
// are the clone's too.
func (p *Program) Clone(names ...string) *Program {
	p.names.shared.Store(true)
	q := &Program{Universe: p.Universe, Funcs: make([]*FuncDecl, 0, len(p.Funcs)), funcMap: maps.Clone(p.funcMap), names: p.names}
	for _, f := range p.Funcs {
		if len(names) == 0 || slices.Contains(names, f.Name) {
			f = cloneFunc(f)
		}
		q.Funcs = append(q.Funcs, f)
	}
	return q
}

func cloneFunc(f *FuncDecl) *FuncDecl {
	nf := &FuncDecl{pos: f.pos, Name: f.Name, Result: f.Result, Vars: slices.Clone(f.Vars)}
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
		ns := shallow(s)
		ns.Init = CloneExpr(s.Init)
		return ns
	case *AssignStmt:
		ns := shallow(s)
		ns.LHS, ns.RHS = CloneExpr(s.LHS), CloneExpr(s.RHS)
		return ns
	case *WhileStmt:
		ns := shallow(s)
		ns.Cond, ns.Body = CloneExpr(s.Cond), CloneBlock(s.Body)
		return ns
	case *IfStmt:
		ns := shallow(s)
		ns.Cond, ns.Then, ns.Else = CloneExpr(s.Cond), CloneBlock(s.Then), CloneBlock(s.Else)
		return ns
	case *ReturnStmt:
		ns := shallow(s)
		ns.Value = CloneExpr(s.Value)
		return ns
	case *CallStmt:
		ns := shallow(s)
		ns.Call = CloneExpr(s.Call).(*CallExpr)
		return ns
	case *ForStmt:
		ns := shallow(s)
		ns.From, ns.To, ns.Body = CloneExpr(s.From), CloneExpr(s.To), CloneBlock(s.Body)
		return ns
	}
	panic(fmt.Sprintf("lang: CloneStmt: unknown statement %T", s))
}

// shallow copies one node.
func shallow[T any](n *T) *T {
	c := *n
	return &c
}

// CloneExpr deep-copies an expression, preserving checked types.
func CloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *Ident:
		return shallow(e)
	case *FieldExpr:
		ne := shallow(e)
		ne.X, ne.Index = CloneExpr(e.X), CloneExpr(e.Index)
		return ne
	case *CallExpr:
		ne := shallow(e)
		ne.Args = nil
		for _, a := range e.Args {
			ne.Args = append(ne.Args, CloneExpr(a))
		}
		return ne
	case *NewExpr:
		return shallow(e)
	case *NullLit:
		return shallow(e)
	case *IntLit:
		return shallow(e)
	case *RealLit:
		return shallow(e)
	case *StrLit:
		return shallow(e)
	case *BoolLit:
		return shallow(e)
	case *BinExpr:
		ne := shallow(e)
		ne.X, ne.Y = CloneExpr(e.X), CloneExpr(e.Y)
		return ne
	case *UnExpr:
		ne := shallow(e)
		ne.X = CloneExpr(e.X)
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
		ok := fn(s)
		switch s := s.(type) {
		case *Block:
			ok = ok && Walk(s, fn)
		case *WhileStmt:
			ok = ok && Walk(s.Body, fn)
		case *IfStmt:
			ok = ok && Walk(s.Then, fn) && Walk(s.Else, fn)
		case *ForStmt:
			ok = ok && Walk(s.Body, fn)
		}
		if !ok {
			return false
		}
	}
	return true
}

// WalkExprs calls fn for every expression appearing in the statement
// (not recursing into nested statements).
func WalkExprs(s Stmt, fn func(Expr)) {
	switch s := s.(type) {
	case *VarStmt:
		walkExpr(s.Init, fn)
	case *AssignStmt:
		walkExpr(s.LHS, fn)
		walkExpr(s.RHS, fn)
	case *WhileStmt:
		walkExpr(s.Cond, fn)
	case *IfStmt:
		walkExpr(s.Cond, fn)
	case *ReturnStmt:
		walkExpr(s.Value, fn)
	case *CallStmt:
		walkExpr(s.Call, fn)
	case *ForStmt:
		walkExpr(s.From, fn)
		walkExpr(s.To, fn)
	}
}

func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch e := e.(type) {
	case *FieldExpr:
		walkExpr(e.X, fn)
		walkExpr(e.Index, fn)
	case *CallExpr:
		for _, a := range e.Args {
			walkExpr(a, fn)
		}
	case *BinExpr:
		walkExpr(e.X, fn)
		walkExpr(e.Y, fn)
	case *UnExpr:
		walkExpr(e.X, fn)
	}
}
