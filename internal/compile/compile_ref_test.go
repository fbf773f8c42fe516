package compile_test

// The reference resolver: the slot-resolved IR the bytecode lowering was
// built from before it walked the checked AST itself, kept here as an
// oracle for the tables that replaced it. TestTablesMatchReference holds
// every frame size, field offset and callee index the lowering reads
// from compile.Program to what this resolver computes on its own: the
// offsets by a scan of the record declaration, the callees from its own
// function index.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adds"
	"repro/internal/bytecode"
	"repro/internal/compile"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/parexec"
	"repro/internal/transform"
)

// refProgram is a resolved program: one refFunc per lang.FuncDecl, in
// the same order, and every field access resolved.
type refProgram struct {
	Lang   *lang.Program
	Funcs  []*refFunc
	index  map[string]int
	fields []fieldFact
}

// refFunc is one resolved function: a flat frame of Slots variable
// slots and a lowered body.
type refFunc struct {
	Name   string
	Decl   *lang.FuncDecl
	Slots  int
	Params []refParam
	Result lang.Type
	Body   []Stmt
	calls  []callFact // user calls in evaluation order
}

// refParam is one resolved parameter.
type refParam struct {
	Name string
	Slot int
	Type lang.Type
}

// fieldFact is one resolved field access.
type fieldFact struct {
	fe     *lang.FieldExpr
	record string
	off    int
	isPtr  bool
}

// callFact is one resolved user call.
type callFact struct {
	e   *lang.CallExpr
	idx int
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

// refCompile lowers a checked program to the IR.
func refCompile(p *lang.Program) (*refProgram, error) {
	cp := &refProgram{Lang: p, index: make(map[string]int, len(p.Funcs))}
	for i, f := range p.Funcs {
		cp.index[f.Name] = i
		cp.Funcs = append(cp.Funcs, &refFunc{Name: f.Name, Decl: f, Result: f.Result})
	}
	for i, f := range p.Funcs {
		if err := cp.compileFunc(cp.Funcs[i], f); err != nil {
			return nil, err
		}
	}
	return cp, nil
}

func (cp *refProgram) compileFunc(cf *refFunc, f *lang.FuncDecl) error {
	r := &resolver{cp: cp, cf: cf, fn: f}
	for i, prm := range f.Params {
		cf.Params = append(cf.Params, refParam{Name: prm.Name, Slot: i, Type: prm.Type})
	}
	body, err := r.block(f.Body)
	if err != nil {
		return fmt.Errorf("compile: %s: %w", f.Name, err)
	}
	cf.Body = body
	cf.Slots = len(f.Vars)
	return nil
}

// resolver lowers one function, reading the slots lang.Check resolved.
type resolver struct {
	cp *refProgram
	cf *refFunc
	fn *lang.FuncDecl
}

// slot returns the checked slot of a use of a variable, if the use
// still names the declaration the checker resolved it to.
func (r *resolver) slot(id *lang.Ident) (int, error) {
	if id.Slot >= len(r.fn.Vars) || r.fn.Vars[id.Slot] != id.ID || r.cp.Lang.Names().Text(id.ID) != id.Name {
		return 0, fmt.Errorf("%s: unresolved variable %q", id.Pos(), id.Name)
	}
	return id.Slot, nil
}

func (r *resolver) block(b *lang.Block) ([]Stmt, error) {
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
		init, err := r.expr(s.Init)
		if err != nil {
			return nil, err
		}
		return &VarSet{stmtBase: stmtBase{s.Pos()}, Name: s.Name, Slot: s.Slot, Type: s.DeclType, Init: init}, nil

	case *lang.AssignStmt:
		rhs, err := r.expr(s.RHS)
		if err != nil {
			return nil, err
		}
		switch lhs := s.LHS.(type) {
		case *lang.Ident:
			slot, err := r.slot(lhs)
			if err != nil {
				return nil, err
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
		body, err := r.block(s.Body)
		if err != nil {
			return nil, err
		}
		return &For{stmtBase: stmtBase{s.Pos()}, VarName: s.Var, Slot: s.Slot,
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
			r.cp.fields = append(r.cp.fields, fieldFact{fe, elem, i, true})
			return elem, i, true, nil
		}
	}
	for i := range decl.Data {
		if decl.Data[i].Name == fe.Field {
			r.cp.fields = append(r.cp.fields, fieldFact{fe, elem, i, false})
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
		idx, ok := r.cp.index[e.Func]
		if !ok {
			return nil, fmt.Errorf("%s: call to unknown function %q", e.Pos(), e.Func)
		}
		c.FuncIdx = idx
		r.cf.calls = append(r.cf.calls, callFact{e, idx})
	}
	return c, nil
}

func (r *resolver) expr(e lang.Expr) (Expr, error) {
	switch e := e.(type) {
	case nil:
		return nil, nil

	case *lang.Ident:
		slot, err := r.slot(e)
		if err != nil {
			return nil, err
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

// ---------------------------------------------------------------------------
// The comparison

// refPrograms lists the programs the reference checks: the corpus, the
// paper's programs, the planner's cost workload and two hundred
// generated programs.
func refPrograms(t *testing.T) [][2]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.psl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata: %v (%d files)", err, len(files))
	}
	var out [][2]string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]string{filepath.Base(f), string(src)})
	}
	out = append(out,
		[2]string{"BarnesHutPSL", nbody.BarnesHutPSL},
		[2]string{"VecForcePSL", nbody.VecForcePSL},
		[2]string{"PolyNormalizePSL", parexec.PolyNormalizePSL},
		[2]string{"ManyLoopProgramPSL(10,5)", transform.ManyLoopProgramPSL(10, 5)})
	for seed := int64(1); seed <= 200; seed++ {
		out = append(out, [2]string{fmt.Sprintf("GenLoopProgramPSL(%d)", seed), transform.GenLoopProgramPSL(seed)})
	}
	return out
}

// mismatches compares cp's tables, and the call sites of the code
// lowered against them, with the reference's resolution of the same
// program, and lists every disagreement.
func mismatches(ref *refProgram, cp *compile.Program) []string {
	var out []string
	if len(cp.Funcs) != len(ref.Funcs) {
		return []string{fmt.Sprintf("%d functions, reference %d", len(cp.Funcs), len(ref.Funcs))}
	}
	for _, fact := range ref.fields {
		got, ok := cp.Field(fact.record, fact.fe.FieldID)
		if !ok || got.Off != fact.off || got.IsPtr != fact.isPtr {
			out = append(out, fmt.Sprintf("%s: %s->%s = %+v (resolved %v), reference off %d isPtr %v",
				fact.fe.Pos(), fact.record, fact.fe.Field, got, ok, fact.off, fact.isPtr))
		}
	}
	bp, err := bytecode.Compile(cp)
	if err != nil {
		return append(out, fmt.Sprintf("lowering: %v", err))
	}
	for i, rf := range ref.Funcs {
		if got := cp.Funcs[i].Slots; got != rf.Slots {
			out = append(out, fmt.Sprintf("%s: %d slots, reference %d", rf.Name, got, rf.Slots))
		}
		sites := bp.Funcs[i].Calls
		if len(sites) != len(rf.calls) {
			out = append(out, fmt.Sprintf("%s: %d call sites, reference %d", rf.Name, len(sites), len(rf.calls)))
			continue
		}
		for j, c := range rf.calls {
			if got := cp.FuncIndex(c.e.Func); got != c.idx || int(sites[j].FuncIdx) != c.idx {
				out = append(out, fmt.Sprintf("%s: call of %s resolves to %d, lowered to %d, reference %d",
					c.e.Pos(), c.e.Func, got, sites[j].FuncIdx, c.idx))
			}
		}
	}
	return out
}

// TestTablesMatchReference holds compile's tables to the reference
// resolver over every program, unplanned and planned at width 32.
func TestTablesMatchReference(t *testing.T) {
	var accesses, calls int
	for _, p := range refPrograms(t) {
		prog, err := lang.Parse(p[1])
		if err != nil {
			t.Fatalf("%s: %v", p[0], err)
		}
		progs := [][2]any{{p[0], prog}}
		if plan, err := transform.AutoParallelize(prog, 32); err == nil {
			progs = append(progs, [2]any{p[0] + " planned", plan.Program})
		}
		for _, q := range progs {
			name, prog := q[0].(string), q[1].(*lang.Program)
			ref, err := refCompile(prog)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			cp, err := compile.Compile(prog)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if bad := mismatches(ref, cp); len(bad) > 0 {
				t.Fatalf("%s: the tables disagree with the reference:\n%s", name, strings.Join(bad, "\n"))
			}
			accesses += len(ref.fields)
			for _, f := range ref.Funcs {
				calls += len(f.calls)
			}
		}
	}
	t.Logf("%d field accesses and %d calls agree", accesses, calls)
}

// TestReferenceCatchesSwappedFields is the reference's mutation check:
// with two fields of one record swapped in the offset table, the
// comparison fails.
func TestReferenceCatchesSwappedFields(t *testing.T) {
	prog := lang.MustParse(`
type R [X] { int data, aux; R *next is uniquely forward along X; };
procedure f(R *p) {
  p->aux = p->data + 1;
}
`)
	ref, err := refCompile(prog)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := compile.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if bad := mismatches(ref, cp); len(bad) > 0 {
		t.Fatalf("the unmutated tables disagree:\n%s", strings.Join(bad, "\n"))
	}
	data, _ := prog.Names().Lookup("data")
	aux, _ := prog.Names().Lookup("aux")
	compile.SwapFields(cp, "R", data, aux)
	bad := mismatches(ref, cp)
	if len(bad) == 0 {
		t.Fatal("the reference accepted tables with data and aux swapped")
	}
	t.Logf("caught: %s", bad[0])
}
