package lang

import (
	"fmt"
)

// Builtin describes a built-in function. A nil Params slice means the
// builtin is variadic and accepts any argument types (print). A nil
// Result marks a procedure.
type Builtin struct {
	Name   string
	Params []Type
	Result Type
}

// Builtins is the table of PSL built-in functions.
//
//	sqrt(real) real   — square root
//	abs(real)  real   — absolute value
//	rand()     real   — deterministic pseudo-random in [0,1)
//	print(...)        — write arguments to the interpreter's output (a
//	                    string literal is a value only here)
var Builtins = map[string]*Builtin{
	"sqrt":  {Name: "sqrt", Params: []Type{Real}, Result: Real},
	"abs":   {Name: "abs", Params: []Type{Real}, Result: Real},
	"rand":  {Name: "rand", Params: []Type{}, Result: Real},
	"print": {Name: "print", Params: nil, Result: nil},
}

// Check type-checks the program in place, annotating every expression
// with its type and resolving every name once: each variable use to its
// declaration's slot (Ident.Slot), each field access to its offset in
// the record (FieldExpr.Off), each call to its callee (CallExpr.Callee).
// It verifies ADDS field references, assignment and call compatibility
// (with implicit int→real widening), condition types, and return
// correctness.
func Check(p *Program) error {
	return CheckFuncs(p, p.Funcs...)
}

// CheckFuncs type-checks only the listed functions (in place, like
// Check). Checking is per-function: a function's body needs only the
// declared signatures of its callees and the program's ADDS universe,
// never a callee's checked body — so re-checking just the functions a
// transformation touched is sound and leaves every other function's
// expression types (and AST identity) untouched.
func CheckFuncs(p *Program, fns ...*FuncDecl) error {
	c := &checker{prog: p, vis: make([]binding, p.names.Len())}
	for _, f := range fns {
		if Builtins[f.Name] != nil {
			return fmt.Errorf("%s: function %q shadows a builtin", f.Pos(), f.Name)
		}
		if err := c.checkFunc(f); err != nil {
			return err
		}
	}
	return nil
}

// checker resolves names through one flat table indexed by id: vis
// holds each name's innermost visible declaration, and hidden what
// each declaration shadowed, restored when its scope closes.
type checker struct {
	prog   *Program
	fn     *FuncDecl
	vis    []binding
	hidden []shadowed
	marks  []int  // len(hidden) at each open scope
	types  []Type // the current function's, by slot
	ptrs   []*Pointer
}

// pointerTo returns the one pointer type to elem this check hands out.
func (c *checker) pointerTo(elem string) *Pointer {
	for _, p := range c.ptrs {
		if p.Elem == elem {
			return p
		}
	}
	c.ptrs = append(c.ptrs, PointerTo(elem))
	return c.ptrs[len(c.ptrs)-1]
}

// binding is a visible declaration: slot+1 (0: none) and the depth of
// the scope that made it.
type binding struct{ slot, depth int32 }

type shadowed struct {
	id   ID
	prev binding
}

func (c *checker) pushScope() { c.marks = append(c.marks, len(c.hidden)) }

func (c *checker) popScope() {
	mark := c.marks[len(c.marks)-1]
	for _, h := range c.hidden[mark:] {
		c.vis[h.id] = h.prev
	}
	c.hidden, c.marks = c.hidden[:mark], c.marks[:len(c.marks)-1]
}

// declare gives the name id its next slot in the current function.
func (c *checker) declare(name string, id ID, t Type, pos Pos) (int, error) {
	prev, depth := c.vis[id], int32(len(c.marks))
	if prev.slot != 0 && prev.depth == depth {
		return 0, fmt.Errorf("%s: %q redeclared in this scope", pos, name)
	}
	slot := len(c.fn.Vars)
	c.fn.Vars, c.types = append(c.fn.Vars, id), append(c.types, t)
	c.hidden = append(c.hidden, shadowed{id, prev})
	c.vis[id] = binding{int32(slot + 1), depth}
	return slot, nil
}

func (c *checker) checkFunc(f *FuncDecl) error {
	c.fn, f.Vars, c.types = f, make([]ID, 0, 2*len(f.Params)+8), c.types[:0]
	c.pushScope()
	defer c.popScope()
	for _, prm := range f.Params {
		if err := c.validType(prm.Type, f.Pos()); err != nil {
			return err
		}
		if _, err := c.declare(prm.Name, prm.ID, prm.Type, f.Pos()); err != nil {
			return err
		}
	}
	if f.Result != nil {
		if err := c.validType(f.Result, f.Pos()); err != nil {
			return err
		}
	}
	return c.checkBlock(f.Body)
}

// validType rejects pointer types to undeclared records.
func (c *checker) validType(t Type, pos Pos) error {
	if elem, ok := IsPointer(t); ok {
		if c.prog.Universe.Decl(elem) == nil {
			return fmt.Errorf("%s: pointer to undeclared type %q", pos, elem)
		}
	}
	return nil
}

func (c *checker) checkBlock(b *Block) error {
	c.pushScope()
	defer c.popScope()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch s := s.(type) {
	case *Block:
		return c.checkBlock(s)

	case *VarStmt:
		if err := c.validType(s.DeclType, s.Pos()); err != nil {
			return err
		}
		if s.Init != nil {
			if err := c.checkExpr(s.Init); err != nil {
				return err
			}
			if err := c.assignable(s.DeclType, s.Init); err != nil {
				return fmt.Errorf("%s: cannot initialize %q: %v", s.Pos(), s.Name, err)
			}
		}
		var err error
		s.Slot, err = c.declare(s.Name, s.ID, s.DeclType, s.Pos())
		return err

	case *AssignStmt:
		if err := c.checkExpr(s.LHS); err != nil {
			return err
		}
		switch s.LHS.(type) {
		case *Ident, *FieldExpr:
		default:
			return fmt.Errorf("%s: invalid assignment target", s.Pos())
		}
		if err := c.checkExpr(s.RHS); err != nil {
			return err
		}
		if err := c.assignable(s.LHS.Type(), s.RHS); err != nil {
			return fmt.Errorf("%s: %v", s.Pos(), err)
		}
		return nil

	case *WhileStmt:
		if err := c.checkCond(s.Cond); err != nil {
			return err
		}
		return c.checkBlock(s.Body)

	case *IfStmt:
		if err := c.checkCond(s.Cond); err != nil {
			return err
		}
		if err := c.checkBlock(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.checkBlock(s.Else)
		}
		return nil

	case *ReturnStmt:
		if c.fn.Result == nil {
			if s.Value != nil {
				return fmt.Errorf("%s: procedure %q cannot return a value", s.Pos(), c.fn.Name)
			}
			return nil
		}
		if s.Value == nil {
			return fmt.Errorf("%s: function %q must return a value", s.Pos(), c.fn.Name)
		}
		if err := c.checkExpr(s.Value); err != nil {
			return err
		}
		if err := c.assignable(c.fn.Result, s.Value); err != nil {
			return fmt.Errorf("%s: bad return: %v", s.Pos(), err)
		}
		return nil

	case *CallStmt:
		return c.checkCall(s.Call)

	case *ForStmt:
		if err := c.checkExpr(s.From); err != nil {
			return err
		}
		if err := c.checkExpr(s.To); err != nil {
			return err
		}
		if !TypeEq(s.From.Type(), Int) || !TypeEq(s.To.Type(), Int) {
			return fmt.Errorf("%s: for-loop bounds must be int", s.Pos())
		}
		c.pushScope()
		defer c.popScope()
		var err error
		if s.Slot, err = c.declare(s.Var, s.ID, Int, s.Pos()); err != nil {
			return err
		}
		return c.checkBlock(s.Body)
	}
	return fmt.Errorf("%s: unknown statement %T", s.Pos(), s)
}

func (c *checker) checkCond(e Expr) error {
	if err := c.checkExpr(e); err != nil {
		return err
	}
	if !TypeEq(e.Type(), Bool) {
		return fmt.Errorf("%s: condition must be bool, got %s", e.Pos(), e.Type())
	}
	return nil
}

// assignable checks that value can be assigned to a target of type dst,
// applying implicit int→real widening and giving NULL the destination
// pointer type.
func (c *checker) assignable(dst Type, value Expr) error {
	if null, ok := value.(*NullLit); ok {
		if _, isPtr := IsPointer(dst); !isPtr {
			return fmt.Errorf("NULL requires a pointer target, have %s", dst)
		}
		null.SetType(dst)
		return nil
	}
	src := value.Type()
	if TypeEq(dst, src) {
		return nil
	}
	if TypeEq(dst, Real) && TypeEq(src, Int) {
		return nil // implicit widening
	}
	return fmt.Errorf("cannot assign %s to %s", src, dst)
}

func (c *checker) checkExpr(e Expr) error {
	switch e := e.(type) {
	case *Ident:
		b := c.vis[e.ID]
		if b.slot == 0 {
			return fmt.Errorf("%s: undeclared variable %q", e.Pos(), e.Name)
		}
		e.Slot = int(b.slot - 1)
		e.SetType(c.types[e.Slot])
		return nil

	case *FieldExpr:
		if err := c.checkExpr(e.X); err != nil {
			return err
		}
		elem, ok := IsPointer(e.X.Type())
		if !ok {
			return fmt.Errorf("%s: -> requires a pointer, have %s", e.Pos(), e.X.Type())
		}
		decl := c.prog.Universe.Decl(elem)
		if decl == nil {
			return fmt.Errorf("%s: unknown record type %q", e.Pos(), elem)
		}
		if off := decl.PointerIndex(e.Field); off >= 0 {
			pf := &decl.Pointers[off]
			if pf.Count > 1 && e.Index == nil {
				return fmt.Errorf("%s: field %s.%s is a pointer array; an index is required", e.Pos(), elem, e.Field)
			}
			if pf.Count == 1 && e.Index != nil {
				return fmt.Errorf("%s: field %s.%s is not an array", e.Pos(), elem, e.Field)
			}
			if e.Index != nil {
				if err := c.checkExpr(e.Index); err != nil {
					return err
				}
				if !TypeEq(e.Index.Type(), Int) {
					return fmt.Errorf("%s: array index must be int", e.Pos())
				}
			}
			e.Off = int32(off)
			e.SetType(c.pointerTo(pf.Type))
			return nil
		}
		if off := decl.DataIndex(e.Field); off >= 0 {
			if e.Index != nil {
				return fmt.Errorf("%s: data field %s.%s is not an array", e.Pos(), elem, e.Field)
			}
			t, err := scalarTypeOf(decl.Data[off].Type)
			if err != nil {
				return fmt.Errorf("%s: field %s.%s: %v", e.Pos(), elem, e.Field, err)
			}
			e.Off = int32(off)
			e.SetType(t)
			return nil
		}
		return fmt.Errorf("%s: type %q has no field %q", e.Pos(), elem, e.Field)

	case *CallExpr:
		// Only a call statement may drop a call's result, so a call
		// that has none is not an expression: not a print argument,
		// not an operand.
		if err := c.checkCall(e); err != nil {
			return err
		}
		if e.Type() == nil {
			return fmt.Errorf("%s: procedure %s has no value", e.Pos(), e.Func)
		}
		return nil

	case *NewExpr:
		if e.Decl = c.prog.Universe.Decl(e.TypeName); e.Decl == nil {
			return fmt.Errorf("%s: new of undeclared type %q", e.Pos(), e.TypeName)
		}
		e.SetType(c.pointerTo(e.TypeName))
		return nil

	case *NullLit:
		// Type assigned from context (assignable / comparison); leave nil
		// here, verified where used.
		return nil

	case *IntLit:
		e.SetType(Int)
		return nil
	case *RealLit:
		e.SetType(Real)
		return nil
	case *StrLit:
		return fmt.Errorf("%s: a string literal may appear only as an argument of print", e.Pos())
	case *BoolLit:
		e.SetType(Bool)
		return nil

	case *BinExpr:
		return c.checkBin(e)

	case *UnExpr:
		if err := c.checkExpr(e.X); err != nil {
			return err
		}
		switch e.Op {
		case MINUS:
			if !TypeEq(e.X.Type(), Int) && !TypeEq(e.X.Type(), Real) {
				return fmt.Errorf("%s: unary - requires int or real", e.Pos())
			}
			e.SetType(e.X.Type())
		case NOT:
			if !TypeEq(e.X.Type(), Bool) {
				return fmt.Errorf("%s: ! requires bool", e.Pos())
			}
			e.SetType(Bool)
		default:
			return fmt.Errorf("%s: unknown unary operator %s", e.Pos(), e.Op)
		}
		return nil
	}
	return fmt.Errorf("%s: unknown expression %T", e.Pos(), e)
}

func (c *checker) checkCall(e *CallExpr) error {
	for _, a := range e.Args {
		if s, ok := a.(*StrLit); ok && e.Func == "print" {
			s.SetType(String)
			continue
		}
		if err := c.checkExpr(a); err != nil {
			return err
		}
	}
	if b, ok := Builtins[e.Func]; ok {
		if b.Params != nil {
			if len(e.Args) != len(b.Params) {
				return fmt.Errorf("%s: %s expects %d arguments, got %d", e.Pos(), b.Name, len(b.Params), len(e.Args))
			}
			for i, a := range e.Args {
				if err := c.assignable(b.Params[i], a); err != nil {
					return fmt.Errorf("%s: argument %d of %s: %v", e.Pos(), i+1, b.Name, err)
				}
			}
		} else {
			// Variadic builtin (print): NULL arguments are displayed as
			// pointers of unknown type.
			for _, a := range e.Args {
				if n, ok := a.(*NullLit); ok {
					n.SetType(PointerTo(""))
				}
			}
		}
		e.SetType(b.Result)
		return nil
	}
	i, ok := c.prog.funcMap[e.Func]
	if !ok {
		return fmt.Errorf("%s: call to undefined function %q", e.Pos(), e.Func)
	}
	f := c.prog.Funcs[i]
	if len(e.Args) != len(f.Params) {
		return fmt.Errorf("%s: %s expects %d arguments, got %d", e.Pos(), f.Name, len(f.Params), len(e.Args))
	}
	for i, a := range e.Args {
		if err := c.assignable(f.Params[i].Type, a); err != nil {
			return fmt.Errorf("%s: argument %d of %s: %v", e.Pos(), i+1, f.Name, err)
		}
	}
	e.Callee = i + 1
	e.SetType(f.Result)
	return nil
}

func (c *checker) checkBin(e *BinExpr) error {
	if err := c.checkExpr(e.X); err != nil {
		return err
	}
	if err := c.checkExpr(e.Y); err != nil {
		return err
	}
	xt, yt := e.X.Type(), e.Y.Type()

	switch e.Op {
	case AND, OR:
		if !TypeEq(xt, Bool) || !TypeEq(yt, Bool) {
			return fmt.Errorf("%s: %s requires bool operands", e.Pos(), e.Op)
		}
		e.SetType(Bool)
		return nil

	case EQ, NEQ:
		// Pointer comparison, including NULL on either side.
		xNull, yNull := isNull(e.X), isNull(e.Y)
		switch {
		case xNull && yNull:
			e.X.(*NullLit).SetType(PointerTo(""))
			e.Y.(*NullLit).SetType(PointerTo(""))
		case xNull:
			if _, ok := IsPointer(yt); !ok {
				return fmt.Errorf("%s: NULL compared against non-pointer %s", e.Pos(), yt)
			}
			e.X.(*NullLit).SetType(yt)
		case yNull:
			if _, ok := IsPointer(xt); !ok {
				return fmt.Errorf("%s: NULL compared against non-pointer %s", e.Pos(), xt)
			}
			e.Y.(*NullLit).SetType(xt)
		default:
			if !comparable2(xt, yt) {
				return fmt.Errorf("%s: cannot compare %s and %s", e.Pos(), xt, yt)
			}
		}
		e.SetType(Bool)
		return nil

	case LT, LE, GT, GE:
		if !numeric(xt) || !numeric(yt) {
			return fmt.Errorf("%s: %s requires numeric operands", e.Pos(), e.Op)
		}
		e.SetType(Bool)
		return nil

	case PLUS, MINUS, STAR, SLASH:
		if !numeric(xt) || !numeric(yt) {
			return fmt.Errorf("%s: %s requires numeric operands", e.Pos(), e.Op)
		}
		if TypeEq(xt, Real) || TypeEq(yt, Real) {
			e.SetType(Real)
		} else {
			e.SetType(Int)
		}
		return nil

	case PERCENT:
		if !TypeEq(xt, Int) || !TypeEq(yt, Int) {
			return fmt.Errorf("%s: %% requires int operands", e.Pos())
		}
		e.SetType(Int)
		return nil
	}
	return fmt.Errorf("%s: unknown binary operator %s", e.Pos(), e.Op)
}

func isNull(e Expr) bool {
	_, ok := e.(*NullLit)
	return ok
}

func numeric(t Type) bool { return TypeEq(t, Int) || TypeEq(t, Real) }

// comparable2 reports whether == / != is defined between the two types:
// identical scalars, numeric pairs, or identical pointer types.
func comparable2(a, b Type) bool {
	if numeric(a) && numeric(b) {
		return true
	}
	return TypeEq(a, b)
}

func scalarTypeOf(name string) (Type, error) {
	switch name {
	case "int":
		return Int, nil
	case "real":
		return Real, nil
	case "bool":
		return Bool, nil
	}
	return nil, fmt.Errorf("unknown scalar type %q", name)
}
