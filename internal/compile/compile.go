// Package compile lowers a checked, normalized PSL program into a
// slot-resolved IR: the front end of the fast execution engine.
//
// The tree-walking interpreter in package interp resolves everything at
// run time — every variable reference walks a stack of
// map[string]*Value scopes, every field access hashes the field name
// into the node's maps, every call looks the callee up by name. That is
// fine for an oracle, but it makes the measured R1/R2 speedups
// "speedups of a slow interpreter". This package moves all of that
// resolution to compile time:
//
//   - every function gets a flat frame of numbered variable slots; the
//     resolver assigns an index to each declaration (parameters, var
//     statements, loop variables), so a reference is a slice index and
//     forking a frame for a parallel iteration is one slice copy
//     instead of rebuilding a chain of maps;
//   - every field access carries the field's offset within its record
//     declaration (the index into adds.Decl.Data or .Pointers), so the
//     heap can be addressed positionally;
//   - every call site is pre-resolved to a builtin kind or a function
//     index.
//
// The IR is pure data over package lang's types — it carries no
// execution state and no dependency on the interpreter — and has one
// consumer: bytecode.Compile lowers it to the flat program interp's VM
// runs, after which the IR is garbage. Tests assert resolution facts
// (slot counts, offsets) on it directly.
//
// Compile expects the program to have passed lang.Check; it returns an
// error (rather than panicking) on untyped or unresolvable input so
// callers can fall back to the tree-walker.
//
// # Immutability
//
// A Program is immutable once Compile returns: neither this package
// nor its consumers may mutate it (or the lang.Program it references)
// afterwards. The bytecode lowered from it keeps the same contract,
// which is what lets one compiled program be shared, without locks, by
// every interpreter instance and worker fork executing it — the
// serving layer (internal/serve) keeps cached programs hot across many
// concurrent requests. The contract is enforced by interp's
// TestBytecodeProgramSharedAcrossGoroutines, which compiles once and
// executes the same program from 16 goroutines under the race
// detector.
package compile

import (
	"fmt"

	"repro/internal/adds"
	"repro/internal/lang"
)

// Program is a compiled program: one Func per lang.FuncDecl, in the
// same order.
type Program struct {
	// Lang is the source program (kept for type declarations and the
	// oracle interpreter).
	Lang  *lang.Program
	Funcs []*Func
	index map[string]int
}

// Func returns the named compiled function, or nil.
func (p *Program) Func(name string) *Func {
	i, ok := p.index[name]
	if !ok {
		return nil
	}
	return p.Funcs[i]
}

// FuncIndex returns the index of the named function, or -1.
func (p *Program) FuncIndex(name string) int {
	i, ok := p.index[name]
	if !ok {
		return -1
	}
	return i
}

// Func is one compiled function: a flat frame of Slots variable slots
// and a lowered body.
type Func struct {
	Name string
	// Decl is the source declaration.
	Decl *lang.FuncDecl
	// Slots is the frame size: the number of distinct variable
	// declarations (each declaration gets its own slot; slots are not
	// reused across sibling scopes, which keeps the resolver trivially
	// correct at the cost of a few unused slots per frame).
	Slots int
	// Params lists the parameter slots in declaration order (always
	// slots 0..len(Params)-1).
	Params []Param
	// Result is nil for procedures.
	Result lang.Type
	Body   []Stmt
}

// Param is one resolved parameter.
type Param struct {
	Name string
	Slot int
	Type lang.Type
}

// ---------------------------------------------------------------------------
// IR statements

// Stmt is a lowered statement.
type Stmt interface {
	stmt()
	Pos() lang.Pos
}

type stmtBase struct{ P lang.Pos }

func (s stmtBase) Pos() lang.Pos { return s.P }
func (stmtBase) stmt()           {}

// Block is a nested brace block appearing in statement position.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// VarSet declares (or, on loop re-entry, re-initializes) a slot:
// "var T x = init;". A nil Init means the type's zero value.
type VarSet struct {
	stmtBase
	Name string
	Slot int
	Type lang.Type
	Init Expr // nil = zero value of Type
}

// AssignSlot is "x = rhs;" with x resolved to a slot.
type AssignSlot struct {
	stmtBase
	Name string
	Slot int
	Type lang.Type // static type of the target (coercion destination)
	RHS  Expr
}

// StoreField is "base->field[index] = rhs;" with the field resolved to
// an offset within the record declaration.
type StoreField struct {
	stmtBase
	Base     Expr
	TypeName string // record type of base (static)
	Field    string
	Off      int  // index into decl.Pointers (IsPtr) or decl.Data
	IsPtr    bool // pointer field vs data field
	Index    Expr // nil unless the field is a pointer array
	Type     lang.Type
	RHS      Expr
}

// While is a while loop.
type While struct {
	stmtBase
	Cond Expr
	Body []Stmt
}

// If is a conditional; Else is nil when absent.
type If struct {
	stmtBase
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// Return returns from the function; Value is nil in procedures.
type Return struct {
	stmtBase
	Value Expr
}

// CallStmt is a call evaluated for effect.
type CallStmt struct {
	stmtBase
	Call *Call
}

// For is a counted loop; Parallel marks a forall.
type For struct {
	stmtBase
	VarName  string
	Slot     int
	From, To Expr
	Body     []Stmt
	Parallel bool
}

// ---------------------------------------------------------------------------
// IR expressions

// Expr is a lowered expression.
type Expr interface {
	expr()
	Pos() lang.Pos
	Type() lang.Type
}

type exprBase struct {
	P lang.Pos
	T lang.Type
}

func (e exprBase) Pos() lang.Pos   { return e.P }
func (e exprBase) Type() lang.Type { return e.T }
func (exprBase) expr()             {}

// SlotRef reads a variable slot.
type SlotRef struct {
	exprBase
	Name string
	Slot int
}

// IntLit, RealLit, StrLit, BoolLit, NullLit are literals.
type IntLit struct {
	exprBase
	Val int64
}

type RealLit struct {
	exprBase
	Val float64
}

type StrLit struct {
	exprBase
	Val string
}

type BoolLit struct {
	exprBase
	Val bool
}

type NullLit struct{ exprBase }

// New allocates a record; Decl is pre-resolved.
type New struct {
	exprBase
	TypeName string
	Decl     *adds.Decl
}

// Load is "base->field[index]" with the field resolved to an offset.
type Load struct {
	exprBase
	X        Expr
	TypeName string
	Field    string
	Off      int
	IsPtr    bool
	Index    Expr // nil unless pointer array
}

// Builtin enumerates the pre-resolved builtin functions.
type Builtin int

// Builtin kinds; NotBuiltin marks a user-function call.
const (
	NotBuiltin Builtin = iota
	BuiltinSqrt
	BuiltinAbs
	BuiltinRand
	BuiltinPrint
)

// Call is a pre-resolved call: a builtin kind, or FuncIdx into
// Program.Funcs.
type Call struct {
	exprBase
	Name    string
	Builtin Builtin
	FuncIdx int // valid when Builtin == NotBuiltin
	Args    []Expr
}

// Bin is a binary operation.
type Bin struct {
	exprBase
	Op   lang.Token
	X, Y Expr
}

// Un is a unary operation.
type Un struct {
	exprBase
	Op lang.Token
	X  Expr
}

// ---------------------------------------------------------------------------
// Compilation

// Compile lowers a checked program. All resolution errors (unknown
// names, untyped expressions) indicate the program was not checked and
// are reported, never panicked.
func Compile(p *lang.Program) (*Program, error) {
	cp := &Program{Lang: p, index: make(map[string]int, len(p.Funcs))}
	for i, f := range p.Funcs {
		cp.index[f.Name] = i
		cf := &Func{Name: f.Name, Decl: f, Result: f.Result}
		cp.Funcs = append(cp.Funcs, cf)
	}
	for i, f := range p.Funcs {
		if err := cp.compileFunc(cp.Funcs[i], f); err != nil {
			return nil, err
		}
	}
	return cp, nil
}

func (cp *Program) compileFunc(cf *Func, f *lang.FuncDecl) error {
	r := &resolver{cp: cp, fn: f}
	r.push()
	for _, prm := range f.Params {
		slot := r.declare(prm.Name)
		cf.Params = append(cf.Params, Param{Name: prm.Name, Slot: slot, Type: prm.Type})
	}
	body, err := r.block(f.Body)
	if err != nil {
		return fmt.Errorf("compile: %s: %w", f.Name, err)
	}
	cf.Body = body
	cf.Slots = r.nslots
	return nil
}

// resolver assigns slots with the same scoping rules the checker
// enforced: innermost declaration wins, each block opens a scope.
type resolver struct {
	cp     *Program
	fn     *lang.FuncDecl
	scopes []map[string]int
	nslots int
}

func (r *resolver) push() { r.scopes = append(r.scopes, map[string]int{}) }
func (r *resolver) pop()  { r.scopes = r.scopes[:len(r.scopes)-1] }

func (r *resolver) declare(name string) int {
	slot := r.nslots
	r.nslots++
	r.scopes[len(r.scopes)-1][name] = slot
	return slot
}

func (r *resolver) lookup(name string) (int, bool) {
	for i := len(r.scopes) - 1; i >= 0; i-- {
		if s, ok := r.scopes[i][name]; ok {
			return s, true
		}
	}
	return 0, false
}

func (r *resolver) block(b *lang.Block) ([]Stmt, error) {
	r.push()
	defer r.pop()
	out := make([]Stmt, 0, len(b.Stmts))
	for _, s := range b.Stmts {
		cs, err := r.stmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, cs)
	}
	return out, nil
}

func (r *resolver) stmt(s lang.Stmt) (Stmt, error) {
	switch s := s.(type) {
	case *lang.Block:
		body, err := r.block(s)
		if err != nil {
			return nil, err
		}
		return &Block{stmtBase: stmtBase{s.Pos()}, Stmts: body}, nil

	case *lang.VarStmt:
		// The initializer sees the enclosing scope, not the new slot.
		init, err := r.expr(s.Init)
		if err != nil {
			return nil, err
		}
		slot := r.declare(s.Name)
		return &VarSet{stmtBase: stmtBase{s.Pos()}, Name: s.Name, Slot: slot, Type: s.DeclType, Init: init}, nil

	case *lang.AssignStmt:
		rhs, err := r.expr(s.RHS)
		if err != nil {
			return nil, err
		}
		switch lhs := s.LHS.(type) {
		case *lang.Ident:
			slot, ok := r.lookup(lhs.Name)
			if !ok {
				return nil, fmt.Errorf("%s: unresolved variable %q", s.Pos(), lhs.Name)
			}
			return &AssignSlot{stmtBase: stmtBase{s.Pos()}, Name: lhs.Name, Slot: slot, Type: lhs.Type(), RHS: rhs}, nil
		case *lang.FieldExpr:
			base, err := r.expr(lhs.X)
			if err != nil {
				return nil, err
			}
			idx, err := r.expr(lhs.Index)
			if err != nil {
				return nil, err
			}
			typeName, off, isPtr, err := r.fieldOffset(lhs)
			if err != nil {
				return nil, err
			}
			return &StoreField{stmtBase: stmtBase{s.Pos()}, Base: base, TypeName: typeName,
				Field: lhs.Field, Off: off, IsPtr: isPtr, Index: idx, Type: lhs.Type(), RHS: rhs}, nil
		}
		return nil, fmt.Errorf("%s: bad assignment target %T", s.Pos(), s.LHS)

	case *lang.WhileStmt:
		cond, err := r.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		body, err := r.block(s.Body)
		if err != nil {
			return nil, err
		}
		return &While{stmtBase: stmtBase{s.Pos()}, Cond: cond, Body: body}, nil

	case *lang.IfStmt:
		cond, err := r.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		then, err := r.block(s.Then)
		if err != nil {
			return nil, err
		}
		var els []Stmt
		if s.Else != nil {
			els, err = r.block(s.Else)
			if err != nil {
				return nil, err
			}
			if els == nil {
				els = []Stmt{}
			}
		}
		return &If{stmtBase: stmtBase{s.Pos()}, Cond: cond, Then: then, Else: els}, nil

	case *lang.ReturnStmt:
		v, err := r.expr(s.Value)
		if err != nil {
			return nil, err
		}
		return &Return{stmtBase: stmtBase{s.Pos()}, Value: v}, nil

	case *lang.CallStmt:
		call, err := r.call(s.Call)
		if err != nil {
			return nil, err
		}
		return &CallStmt{stmtBase: stmtBase{s.Pos()}, Call: call}, nil

	case *lang.ForStmt:
		from, err := r.expr(s.From)
		if err != nil {
			return nil, err
		}
		to, err := r.expr(s.To)
		if err != nil {
			return nil, err
		}
		r.push()
		slot := r.declare(s.Var)
		body, err := r.block(s.Body)
		r.pop()
		if err != nil {
			return nil, err
		}
		return &For{stmtBase: stmtBase{s.Pos()}, VarName: s.Var, Slot: slot,
			From: from, To: to, Body: body, Parallel: s.Parallel}, nil
	}
	return nil, fmt.Errorf("%s: unknown statement %T", s.Pos(), s)
}

// fieldOffset resolves base->field against the record declaration of
// the base's static pointer type.
func (r *resolver) fieldOffset(fe *lang.FieldExpr) (typeName string, off int, isPtr bool, err error) {
	if fe.X.Type() == nil {
		return "", 0, false, fmt.Errorf("%s: untyped field base (program not checked?)", fe.Pos())
	}
	elem, ok := lang.IsPointer(fe.X.Type())
	if !ok {
		return "", 0, false, fmt.Errorf("%s: field base is not a pointer", fe.Pos())
	}
	decl := r.cp.Lang.Universe.Decl(elem)
	if decl == nil {
		return "", 0, false, fmt.Errorf("%s: unknown record type %q", fe.Pos(), elem)
	}
	for i := range decl.Pointers {
		if decl.Pointers[i].Name == fe.Field {
			return elem, i, true, nil
		}
	}
	for i := range decl.Data {
		if decl.Data[i].Name == fe.Field {
			return elem, i, false, nil
		}
	}
	return "", 0, false, fmt.Errorf("%s: type %q has no field %q", fe.Pos(), elem, fe.Field)
}

func (r *resolver) call(e *lang.CallExpr) (*Call, error) {
	args := make([]Expr, len(e.Args))
	for i, a := range e.Args {
		ca, err := r.expr(a)
		if err != nil {
			return nil, err
		}
		args[i] = ca
	}
	c := &Call{exprBase: exprBase{e.Pos(), e.Type()}, Name: e.Func, Args: args}
	switch e.Func {
	case "sqrt":
		c.Builtin = BuiltinSqrt
	case "abs":
		c.Builtin = BuiltinAbs
	case "rand":
		c.Builtin = BuiltinRand
	case "print":
		c.Builtin = BuiltinPrint
	default:
		idx := r.cp.FuncIndex(e.Func)
		if idx < 0 {
			return nil, fmt.Errorf("%s: call to unknown function %q", e.Pos(), e.Func)
		}
		c.FuncIdx = idx
	}
	return c, nil
}

func (r *resolver) expr(e lang.Expr) (Expr, error) {
	switch e := e.(type) {
	case nil:
		return nil, nil

	case *lang.Ident:
		slot, ok := r.lookup(e.Name)
		if !ok {
			return nil, fmt.Errorf("%s: unresolved variable %q", e.Pos(), e.Name)
		}
		return &SlotRef{exprBase: exprBase{e.Pos(), e.Type()}, Name: e.Name, Slot: slot}, nil

	case *lang.IntLit:
		return &IntLit{exprBase: exprBase{e.Pos(), e.Type()}, Val: e.Val}, nil
	case *lang.RealLit:
		return &RealLit{exprBase: exprBase{e.Pos(), e.Type()}, Val: e.Val}, nil
	case *lang.StrLit:
		return &StrLit{exprBase: exprBase{e.Pos(), e.Type()}, Val: e.Val}, nil
	case *lang.BoolLit:
		return &BoolLit{exprBase: exprBase{e.Pos(), e.Type()}, Val: e.Val}, nil
	case *lang.NullLit:
		return &NullLit{exprBase: exprBase{e.Pos(), e.Type()}}, nil

	case *lang.NewExpr:
		decl := r.cp.Lang.Universe.Decl(e.TypeName)
		if decl == nil {
			return nil, fmt.Errorf("%s: new of unknown type %q", e.Pos(), e.TypeName)
		}
		return &New{exprBase: exprBase{e.Pos(), e.Type()}, TypeName: e.TypeName, Decl: decl}, nil

	case *lang.FieldExpr:
		x, err := r.expr(e.X)
		if err != nil {
			return nil, err
		}
		idx, err := r.expr(e.Index)
		if err != nil {
			return nil, err
		}
		typeName, off, isPtr, err := r.fieldOffset(e)
		if err != nil {
			return nil, err
		}
		return &Load{exprBase: exprBase{e.Pos(), e.Type()}, X: x, TypeName: typeName,
			Field: e.Field, Off: off, IsPtr: isPtr, Index: idx}, nil

	case *lang.CallExpr:
		return r.call(e)

	case *lang.BinExpr:
		x, err := r.expr(e.X)
		if err != nil {
			return nil, err
		}
		y, err := r.expr(e.Y)
		if err != nil {
			return nil, err
		}
		return &Bin{exprBase: exprBase{e.Pos(), e.Type()}, Op: e.Op, X: x, Y: y}, nil

	case *lang.UnExpr:
		x, err := r.expr(e.X)
		if err != nil {
			return nil, err
		}
		return &Un{exprBase: exprBase{e.Pos(), e.Type()}, Op: e.Op, X: x}, nil
	}
	return nil, fmt.Errorf("%s: unknown expression %T", e.Pos(), e)
}
