// The compiled engine: executes the slot-resolved IR built by
// internal/compile as a tree of pre-bound Go closures.
//
// Where the tree-walker (interp.go) resolves names at every step —
// map-chain scope lookups per variable, field-name hashing per heap
// access, function lookup per call, an interface type switch per AST
// node — the compiled engine does all of that once, at build time:
// variables are frame-slice indices, fields are record offsets
// (Node.vals / Node.parr), calls are direct *compiledFunc references,
// and forking a frame for a parallel iteration is a single slice copy
// instead of the walker's frame.snapshot map rebuild.
//
// The two engines are semantically interchangeable by construction:
// every closure below charges the same CostModel amounts at the same
// dynamic operations and counts the same statements as the walker, so
// results, printed output, allocation ids, and — critically — the
// Simulated mode's cycle accounting (including simulatedForall's
// per-iteration rewind) are bit-identical. The engine equivalence
// suite and FuzzCompileVsWalk enforce this; the walker stays around
// precisely to be that oracle.
//
// The one intentional accounting difference is *step batching*: the
// walker bumps the shared atomic step counter per statement, while the
// compiled engine batches stepFlushChunk statements per flush so that
// parallel workers do not contend on one cache line every statement.
// Totals are identical at every quiescent point (Call return, forall
// iteration end); only the instant at which a MaxSteps overrun is
// detected moves by up to one chunk.
package interp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/compile"
	"repro/internal/lang"
)

// cExpr evaluates one compiled expression on a frame.
type cExpr func(ip *Interp, fr []Value) (Value, error)

// cStmt executes one compiled statement on a frame.
type cStmt func(ip *Interp, fr []Value) (ctrl, Value, error)

// compiledFunc is one function's closure code.
type compiledFunc struct {
	name   string
	slots  int
	params []compile.Param
	result lang.Type
	body   []cStmt
}

// compiledProg is a program's closure code, shared by every Interp
// (and fork) running the same *lang.Program. Closures capture exactly
// what they need of the compile.Program IR, so the IR is garbage once
// codegen finishes.
type compiledProg struct {
	funcs  []*compiledFunc
	byName map[string]*compiledFunc
}

// ---------------------------------------------------------------------------
// Compiled programs

// compileBuilds counts front-end builds — compile IR plus bytecode, one
// per CompileProgram call. Observability for the serving layer's
// contract that a cache-hit request does zero compile work:
// internal/serve's tests assert the count stays flat across hot
// requests. closureBuilds counts the lazy closure-tree builds.
var compileBuilds, closureBuilds atomic.Int64

// CompileCount reports how many front-end builds (compile IR +
// bytecode) have run, process-wide: one per CompileProgram call, and so
// one per New on a non-walk engine. A lazy closure build does not move
// it.
func CompileCount() int64 { return compileBuilds.Load() }

// ClosureBuildCount reports how many closure trees have been built,
// process-wide: one per CompiledProgram that has ever run on
// EngineCompiled.
func ClosureBuildCount() int64 { return closureBuilds.Load() }

// CompiledProgram is one program's executable code: the compile IR and
// the bytecode — what the default engine runs — built by
// CompileProgram, and the closure tree, built from the retained IR on
// the handle's first compiled-engine interpreter, once, after which the
// IR is dropped. Nothing in this package caches code: whoever runs a
// program more than once holds its handle (core.Compilation does, and
// internal/serve's program cache stores one per entry, so a cache hit
// can never recompile). Safe for concurrent use, like everything it
// references.
type CompiledProgram struct {
	prog *lang.Program
	// err is the front end's (compile.Compile) failure; it fails every
	// engine but the walker.
	err   error
	bc    *bytecode.Program
	bcErr error

	closureOnce sync.Once
	ir          *compile.Program // nil once the closures are built
	code        *compiledProg
}

// CompileProgram builds the code for prog — lower it once
// (compile.Compile) and build the bytecode from the IR now, closures if
// and when the compiled engine first runs it — and returns the handle.
// Err reports a front-end failure.
func CompileProgram(prog *lang.Program) *CompiledProgram {
	compileBuilds.Add(1)
	ir, err := compile.Compile(prog)
	if err != nil {
		return &CompiledProgram{prog: prog, err: err, bcErr: err}
	}
	bc, bcErr := bytecode.Compile(ir)
	return &CompiledProgram{prog: prog, ir: ir, bc: bc, bcErr: bcErr}
}

// Err reports why compilation failed (nil on success).
func (cp *CompiledProgram) Err() error { return cp.err }

// Program returns the source program the handle was built from.
func (cp *CompiledProgram) Program() *lang.Program { return cp.prog }

// Bytecode returns the lowered program, or why the front end or the
// lowering failed. The planner reads the kernel classifier's verdict on
// every forall from it.
func (cp *CompiledProgram) Bytecode() (*bytecode.Program, error) { return cp.bc, cp.bcErr }

// closures returns the closure engine's code, building it on first
// use. Safe for concurrent callers: exactly one builds, the rest wait.
func (cp *CompiledProgram) closures() *compiledProg {
	cp.closureOnce.Do(func() {
		if cp.ir == nil { // the front end failed; err says why
			return
		}
		closureBuilds.Add(1)
		cc := &compiledProg{byName: make(map[string]*compiledFunc, len(cp.ir.Funcs))}
		for _, f := range cp.ir.Funcs {
			cf := &compiledFunc{name: f.Name, slots: f.Slots, params: f.Params, result: f.Result}
			cc.funcs = append(cc.funcs, cf)
			cc.byName[f.Name] = cf
		}
		g := &codegen{cc: cc}
		for i, f := range cp.ir.Funcs {
			cc.funcs[i].body = g.seq(f.Body)
		}
		cp.code, cp.ir = cc, nil
	})
	return cp.code
}

// NewCompiled creates an interpreter over a compiled program: the
// configured engine's code is bound from the handle, and only the
// closure engine asks for the closure tree, so only it can trigger the
// handle's lazy closure build. The walk engine ignores the code and
// walks the AST.
func NewCompiled(cp *CompiledProgram, cfg Config) *Interp {
	ip := newInterp(cp.prog, cfg)
	switch cfg.Engine {
	case EngineCompiled:
		ip.code, ip.compileErr = cp.closures(), cp.err
	case EngineBytecode, EngineKernel:
		ip.bc, ip.bcErr = cp.bc, cp.bcErr
	}
	return ip
}

// RunCompiled is Run over a compiled program.
func RunCompiled(cp *CompiledProgram, cfg Config, fn string, args ...Value) (Value, Stats, error) {
	ip := NewCompiled(cp, cfg)
	v, err := ip.Call(fn, args...)
	return v, ip.Stats(), err
}

// ---------------------------------------------------------------------------
// Execution

// callCompiled is the external entry (Interp.Call): bind arguments
// into a fresh frame and run.
func (ip *Interp) callCompiled(cf *compiledFunc, args []Value) (Value, error) {
	fr := ip.getFrame(cf.slots)
	for i, prm := range cf.params {
		fr[prm.Slot] = coerce(args[i], prm.Type)
	}
	return ip.callFrame(cf, fr)
}

// callFrame mirrors callFunc over an already-bound frame, returning
// the frame to the pool when the call completes. The recursion guard
// uses the Interp's live call depth (each Interp runs one call chain
// at a time; parallel iterations run on forks with their own depth).
func (ip *Interp) callFrame(cf *compiledFunc, fr []Value) (Value, error) {
	if ip.cdepth > ip.maxDepth {
		ip.putFrame(fr)
		return Value{}, fmt.Errorf("interp: recursion depth exceeded in %s", cf.name)
	}
	ip.charge(ip.cfg.Costs.CallOver)
	ip.cdepth++
	c, rv, err := runSeq(ip, fr, cf.body)
	ip.cdepth--
	ip.putFrame(fr)
	if err != nil {
		return Value{}, err
	}
	if c == ctrlReturn {
		if cf.result != nil {
			return coerce(rv, cf.result), nil
		}
		return Value{}, nil
	}
	if cf.result != nil {
		return Value{}, fmt.Errorf("interp: function %s fell off the end without returning", cf.name)
	}
	return Value{}, nil
}

// runSeq executes a statement sequence (a block body) on a frame.
func runSeq(ip *Interp, fr []Value, body []cStmt) (ctrl, Value, error) {
	for _, st := range body {
		c, rv, err := st(ip, fr)
		if err != nil {
			return ctrlNext, Value{}, err
		}
		if c == ctrlReturn {
			return c, rv, nil
		}
	}
	return ctrlNext, Value{}, nil
}

// ---------------------------------------------------------------------------
// Codegen

type codegen struct {
	cc *compiledProg
}

func (g *codegen) seq(stmts []compile.Stmt) []cStmt {
	out := make([]cStmt, len(stmts))
	for i, s := range stmts {
		out[i] = g.stmt(s)
	}
	return out
}

func (g *codegen) stmt(s compile.Stmt) cStmt {
	pos := s.Pos()
	switch s := s.(type) {
	case *compile.Block:
		body := g.seq(s.Stmts)
		return func(ip *Interp, fr []Value) (ctrl, Value, error) {
			if err := ip.stepC(pos); err != nil {
				return ctrlNext, Value{}, err
			}
			return runSeq(ip, fr, body)
		}

	case *compile.VarSet:
		slot := s.Slot
		typ := s.Type
		zero := zeroValue(typ)
		if s.Init == nil {
			return func(ip *Interp, fr []Value) (ctrl, Value, error) {
				if err := ip.stepC(pos); err != nil {
					return ctrlNext, Value{}, err
				}
				ip.charge(ip.cfg.Costs.VarAccess)
				fr[slot] = zero
				return ctrlNext, Value{}, nil
			}
		}
		init := g.expr(s.Init)
		return func(ip *Interp, fr []Value) (ctrl, Value, error) {
			if err := ip.stepC(pos); err != nil {
				return ctrlNext, Value{}, err
			}
			iv, err := init(ip, fr)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			ip.charge(ip.cfg.Costs.VarAccess)
			fr[slot] = coerce(iv, typ)
			return ctrlNext, Value{}, nil
		}

	case *compile.AssignSlot:
		slot := s.Slot
		typ := s.Type
		rhs := g.expr(s.RHS)
		return func(ip *Interp, fr []Value) (ctrl, Value, error) {
			if err := ip.stepC(pos); err != nil {
				return ctrlNext, Value{}, err
			}
			rv, err := rhs(ip, fr)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			ip.charge(ip.cfg.Costs.VarAccess)
			fr[slot] = coerce(rv, typ)
			return ctrlNext, Value{}, nil
		}

	case *compile.StoreField:
		return g.storeField(s)

	case *compile.While:
		cond := g.expr(s.Cond)
		body := g.seq(s.Body)
		return func(ip *Interp, fr []Value) (ctrl, Value, error) {
			if err := ip.stepC(pos); err != nil {
				return ctrlNext, Value{}, err
			}
			for {
				cv, err := cond(ip, fr)
				if err != nil {
					return ctrlNext, Value{}, err
				}
				ip.charge(ip.cfg.Costs.Branch)
				if !cv.B {
					return ctrlNext, Value{}, nil
				}
				c, rv, err := runSeq(ip, fr, body)
				if err != nil {
					return ctrlNext, Value{}, err
				}
				if c == ctrlReturn {
					return c, rv, nil
				}
				if err := ip.stepC(pos); err != nil {
					return ctrlNext, Value{}, err
				}
			}
		}

	case *compile.If:
		cond := g.expr(s.Cond)
		then := g.seq(s.Then)
		var els []cStmt
		hasElse := s.Else != nil
		if hasElse {
			els = g.seq(s.Else)
		}
		return func(ip *Interp, fr []Value) (ctrl, Value, error) {
			if err := ip.stepC(pos); err != nil {
				return ctrlNext, Value{}, err
			}
			cv, err := cond(ip, fr)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			ip.charge(ip.cfg.Costs.Branch)
			if cv.B {
				return runSeq(ip, fr, then)
			}
			if hasElse {
				return runSeq(ip, fr, els)
			}
			return ctrlNext, Value{}, nil
		}

	case *compile.Return:
		if s.Value == nil {
			return func(ip *Interp, fr []Value) (ctrl, Value, error) {
				if err := ip.stepC(pos); err != nil {
					return ctrlNext, Value{}, err
				}
				return ctrlReturn, Value{}, nil
			}
		}
		val := g.expr(s.Value)
		return func(ip *Interp, fr []Value) (ctrl, Value, error) {
			if err := ip.stepC(pos); err != nil {
				return ctrlNext, Value{}, err
			}
			v, err := val(ip, fr)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			return ctrlReturn, v, nil
		}

	case *compile.CallStmt:
		call := g.expr(s.Call)
		return func(ip *Interp, fr []Value) (ctrl, Value, error) {
			if err := ip.stepC(pos); err != nil {
				return ctrlNext, Value{}, err
			}
			_, err := call(ip, fr)
			return ctrlNext, Value{}, err
		}

	case *compile.For:
		return g.forStmt(s)
	}
	panic(fmt.Sprintf("interp: codegen: unknown statement %T", s))
}

func (g *codegen) storeField(s *compile.StoreField) cStmt {
	pos := s.Pos()
	rhs := g.expr(s.RHS)
	base := g.expr(s.Base)
	off := s.Off
	field := s.Field
	typ := s.Type
	if s.IsPtr {
		var index cExpr
		if s.Index != nil {
			index = g.expr(s.Index)
		}
		return func(ip *Interp, fr []Value) (ctrl, Value, error) {
			if err := ip.stepC(pos); err != nil {
				return ctrlNext, Value{}, err
			}
			rv, err := rhs(ip, fr)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			bv, err := base(ip, fr)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			if bv.N == nil {
				return ctrlNext, Value{}, fmt.Errorf("%s: interp: store through NULL pointer", pos)
			}
			ip.charge(ip.cfg.Costs.FieldStore)
			node := bv.N
			idx := 0
			if index != nil {
				iv, err := index(ip, fr)
				if err != nil {
					return ctrlNext, Value{}, err
				}
				idx = int(iv.I)
			}
			arr := node.parr[off]
			if idx < 0 || idx >= len(arr) {
				return ctrlNext, Value{}, fmt.Errorf("%s: interp: index %d out of range for %s.%s[%d]", pos, idx, node.Type, field, len(arr))
			}
			old := arr[idx]
			arr[idx] = rv.N
			if ip.cfg.ShapeChecks {
				return ctrlNext, Value{}, ip.checkStore(pos, node, field, old, rv.N)
			}
			return ctrlNext, Value{}, nil
		}
	}
	// Data store with a variable base (the normalized common case):
	// fold the base slot read into the store closure.
	if sr, ok := s.Base.(*compile.SlotRef); ok {
		slot := sr.Slot
		return func(ip *Interp, fr []Value) (ctrl, Value, error) {
			if err := ip.stepC(pos); err != nil {
				return ctrlNext, Value{}, err
			}
			rv, err := rhs(ip, fr)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			ip.charge(ip.cfg.Costs.VarAccess)
			n := fr[slot].N
			if n == nil {
				return ctrlNext, Value{}, fmt.Errorf("%s: interp: store through NULL pointer", pos)
			}
			ip.charge(ip.cfg.Costs.FieldStore)
			n.vals[off] = coerce(rv, typ)
			return ctrlNext, Value{}, nil
		}
	}
	return func(ip *Interp, fr []Value) (ctrl, Value, error) {
		if err := ip.stepC(pos); err != nil {
			return ctrlNext, Value{}, err
		}
		rv, err := rhs(ip, fr)
		if err != nil {
			return ctrlNext, Value{}, err
		}
		bv, err := base(ip, fr)
		if err != nil {
			return ctrlNext, Value{}, err
		}
		if bv.N == nil {
			return ctrlNext, Value{}, fmt.Errorf("%s: interp: store through NULL pointer", pos)
		}
		ip.charge(ip.cfg.Costs.FieldStore)
		bv.N.vals[off] = coerce(rv, typ)
		return ctrlNext, Value{}, nil
	}
}

func (g *codegen) forStmt(s *compile.For) cStmt {
	pos := s.Pos()
	from := g.expr(s.From)
	to := g.expr(s.To)
	body := g.seq(s.Body)
	slot := s.Slot

	if !s.Parallel {
		return func(ip *Interp, fr []Value) (ctrl, Value, error) {
			if err := ip.stepC(pos); err != nil {
				return ctrlNext, Value{}, err
			}
			fromV, err := from(ip, fr)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			toV, err := to(ip, fr)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			stepCost := ip.cfg.Costs.Branch + ip.cfg.Costs.IntOp
			for k := fromV.I; k <= toV.I; k++ {
				fr[slot] = IntVal(k)
				c, rv, err := runSeq(ip, fr, body)
				if err != nil {
					return ctrlNext, Value{}, err
				}
				if c == ctrlReturn {
					return c, rv, nil
				}
				ip.charge(stepCost)
				// One step per trip, mirroring the walker's guard.
				if err := ip.stepC(pos); err != nil {
					return ctrlNext, Value{}, err
				}
			}
			return ctrlNext, Value{}, nil
		}
	}

	return func(ip *Interp, fr []Value) (ctrl, Value, error) {
		if err := ip.stepC(pos); err != nil {
			return ctrlNext, Value{}, err
		}
		fromV, err := from(ip, fr)
		if err != nil {
			return ctrlNext, Value{}, err
		}
		toV, err := to(ip, fr)
		if err != nil {
			return ctrlNext, Value{}, err
		}
		lo, hi := fromV.I, toV.I
		if ok, err := ip.forallTrips(pos, lo, hi); !ok {
			return ctrlNext, Value{}, err
		}
		if ip.cfg.Mode == Simulated {
			return ctrlNext, Value{}, ip.simForall(lo, hi, pos, func(k int64) (ctrl, error) {
				fr[slot] = IntVal(k)
				c, _, err := runSeq(ip, fr, body)
				return c, err
			})
		}

		// The forall executes inside the enclosing function's call, so
		// iterations must see the same remaining recursion budget the
		// walker gives them (it threads the enclosing depth into every
		// iteration); workers seed their live depth from it.
		depth := ip.cdepth
		// The slot frame makes the per-iteration fork one slice copy.
		return ctrlNext, Value{}, ip.realForall(pos, lo, hi, func(w *Interp, k int64) (ctrl, error) {
			nf := make([]Value, len(fr))
			copy(nf, fr)
			nf[slot] = IntVal(k)
			w.cdepth = depth
			c, _, err := runSeq(w, nf, body)
			return c, err
		})
	}
}

// ---------------------------------------------------------------------------
// Expressions

func (g *codegen) expr(e compile.Expr) cExpr {
	pos := e.Pos()
	switch e := e.(type) {
	case *compile.SlotRef:
		slot := e.Slot
		return func(ip *Interp, fr []Value) (Value, error) {
			ip.charge(ip.cfg.Costs.VarAccess)
			return fr[slot], nil
		}

	case *compile.IntLit:
		v := IntVal(e.Val)
		return func(*Interp, []Value) (Value, error) { return v, nil }
	case *compile.RealLit:
		v := RealVal(e.Val)
		return func(*Interp, []Value) (Value, error) { return v, nil }
	case *compile.StrLit:
		v := StrVal(e.Val)
		return func(*Interp, []Value) (Value, error) { return v, nil }
	case *compile.BoolLit:
		v := BoolVal(e.Val)
		return func(*Interp, []Value) (Value, error) { return v, nil }
	case *compile.NullLit:
		return func(*Interp, []Value) (Value, error) { return NullVal(), nil }

	case *compile.New:
		decl := e.Decl
		typeName := e.TypeName
		return func(ip *Interp, fr []Value) (Value, error) {
			return ip.allocNode(decl, typeName)
		}

	case *compile.Load:
		return g.load(e)

	case *compile.Call:
		return g.callExpr(e)

	case *compile.Bin:
		return g.bin(e)

	case *compile.Un:
		x := g.expr(e.X)
		switch e.Op {
		case lang.MINUS:
			return func(ip *Interp, fr []Value) (Value, error) {
				v, err := x(ip, fr)
				if err != nil {
					return Value{}, err
				}
				if v.Kind == KindInt {
					ip.charge(ip.cfg.Costs.IntOp)
					return IntVal(-v.I), nil
				}
				ip.charge(ip.cfg.Costs.RealOp)
				return RealVal(-v.F), nil
			}
		case lang.NOT:
			return func(ip *Interp, fr []Value) (Value, error) {
				v, err := x(ip, fr)
				if err != nil {
					return Value{}, err
				}
				ip.charge(ip.cfg.Costs.IntOp)
				return BoolVal(!v.B), nil
			}
		}
		panic(fmt.Sprintf("%s: interp: codegen: unknown unary op %s", pos, e.Op))
	}
	panic(fmt.Sprintf("%s: interp: codegen: unknown expression %T", pos, e))
}

func (g *codegen) load(e *compile.Load) cExpr {
	pos := e.Pos()
	off := e.Off
	field := e.Field

	// Normalization guarantees field bases are plain variables; fold
	// the base's slot read into the access closure (one closure call
	// per p->f instead of two; the VarAccess charge stays).
	if sr, ok := e.X.(*compile.SlotRef); ok {
		slot := sr.Slot
		if e.IsPtr && e.Index == nil {
			return func(ip *Interp, fr []Value) (Value, error) {
				ip.charge(ip.cfg.Costs.VarAccess)
				n := fr[slot].N
				if n == nil {
					if !ip.cfg.StrictNull {
						return NullVal(), nil
					}
					return Value{}, fmt.Errorf("%s: interp: field %s read through NULL pointer", pos, field)
				}
				ip.charge(ip.cfg.Costs.FieldLoad)
				arr := n.parr[off]
				if len(arr) == 0 {
					return Value{}, fmt.Errorf("%s: interp: index 0 out of range for %s.%s[0]", pos, n.Type, field)
				}
				return PtrVal(arr[0]), nil
			}
		}
		if !e.IsPtr {
			return func(ip *Interp, fr []Value) (Value, error) {
				ip.charge(ip.cfg.Costs.VarAccess)
				n := fr[slot].N
				if n == nil {
					return Value{}, fmt.Errorf("%s: interp: field %s read through NULL pointer", pos, field)
				}
				ip.charge(ip.cfg.Costs.FieldLoad)
				return n.vals[off], nil
			}
		}
	}

	x := g.expr(e.X)
	if e.IsPtr {
		var index cExpr
		if e.Index != nil {
			index = g.expr(e.Index)
		}
		return func(ip *Interp, fr []Value) (Value, error) {
			bv, err := x(ip, fr)
			if err != nil {
				return Value{}, err
			}
			if bv.N == nil {
				if !ip.cfg.StrictNull {
					// Speculative traversability (§3.2).
					return NullVal(), nil
				}
				return Value{}, fmt.Errorf("%s: interp: field %s read through NULL pointer", pos, field)
			}
			ip.charge(ip.cfg.Costs.FieldLoad)
			node := bv.N
			idx := 0
			if index != nil {
				iv, err := index(ip, fr)
				if err != nil {
					return Value{}, err
				}
				idx = int(iv.I)
			}
			arr := node.parr[off]
			if idx < 0 || idx >= len(arr) {
				return Value{}, fmt.Errorf("%s: interp: index %d out of range for %s.%s[%d]", pos, idx, node.Type, field, len(arr))
			}
			return PtrVal(arr[idx]), nil
		}
	}
	return func(ip *Interp, fr []Value) (Value, error) {
		bv, err := x(ip, fr)
		if err != nil {
			return Value{}, err
		}
		if bv.N == nil {
			return Value{}, fmt.Errorf("%s: interp: field %s read through NULL pointer", pos, field)
		}
		ip.charge(ip.cfg.Costs.FieldLoad)
		return bv.N.vals[off], nil
	}
}

func (g *codegen) callExpr(e *compile.Call) cExpr {
	argFns := make([]cExpr, len(e.Args))
	for i, a := range e.Args {
		argFns[i] = g.expr(a)
	}
	evalArgs := func(ip *Interp, fr []Value) ([]Value, error) {
		args := make([]Value, len(argFns))
		for i, af := range argFns {
			v, err := af(ip, fr)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return args, nil
	}
	switch e.Builtin {
	case compile.BuiltinSqrt:
		arg := argFns[0]
		return func(ip *Interp, fr []Value) (Value, error) {
			v, err := arg(ip, fr)
			if err != nil {
				return Value{}, err
			}
			ip.charge(ip.cfg.Costs.Sqrt)
			return RealVal(math.Sqrt(v.AsReal())), nil
		}
	case compile.BuiltinAbs:
		arg := argFns[0]
		return func(ip *Interp, fr []Value) (Value, error) {
			v, err := arg(ip, fr)
			if err != nil {
				return Value{}, err
			}
			ip.charge(ip.cfg.Costs.RealOp)
			return RealVal(math.Abs(v.AsReal())), nil
		}
	case compile.BuiltinRand:
		return func(ip *Interp, fr []Value) (Value, error) {
			ip.charge(ip.cfg.Costs.RealOp)
			return RealVal(ip.rand()), nil
		}
	case compile.BuiltinPrint:
		pos := e.Pos()
		return func(ip *Interp, fr []Value) (Value, error) {
			args, err := evalArgs(ip, fr)
			if err != nil {
				return Value{}, err
			}
			return Value{}, ip.printLine(pos, args)
		}
	}
	// User call: evaluate arguments straight into the callee's frame
	// (same evaluation order and charges as the walker's evalCall; the
	// intermediate args slice just never materializes).
	cc := g.cc
	idx := e.FuncIdx
	return func(ip *Interp, fr []Value) (Value, error) {
		cf := cc.funcs[idx]
		nf := ip.getFrame(cf.slots)
		for i, af := range argFns {
			v, err := af(ip, fr)
			if err != nil {
				ip.putFrame(nf)
				return Value{}, err
			}
			prm := &cf.params[i]
			nf[prm.Slot] = coerce(v, prm.Type)
		}
		return ip.callFrame(cf, nf)
	}
}

func (g *codegen) bin(e *compile.Bin) cExpr {
	pos := e.Pos()
	op := e.Op
	x := g.expr(e.X)

	// Short-circuit logic first (Y must not evaluate when X decides).
	if op == lang.AND || op == lang.OR {
		y := g.expr(e.Y)
		isAnd := op == lang.AND
		return func(ip *Interp, fr []Value) (Value, error) {
			xv, err := x(ip, fr)
			if err != nil {
				return Value{}, err
			}
			ip.charge(ip.cfg.Costs.IntOp)
			if isAnd && !xv.B {
				return BoolVal(false), nil
			}
			if !isAnd && xv.B {
				return BoolVal(true), nil
			}
			return y(ip, fr)
		}
	}

	// Every other operator is specialized from the *static* operand
	// types. This is sound because coercion keeps runtime kinds equal
	// to static types everywhere a value is produced (declares,
	// assigns, field stores, parameter binding, returns), so the
	// walker's runtime dispatch lands on exactly the branch chosen
	// here — same result, same cost charge. FuzzCompileVsWalk and the
	// engine equivalence suite hold this invariant down.
	y := g.expr(e.Y)
	xPtr := isPtrType(e.X.Type())
	yPtr := isPtrType(e.Y.Type())
	real2 := isRealType(e.X.Type()) || isRealType(e.Y.Type())
	bool2 := isBoolType(e.X.Type()) && isBoolType(e.Y.Type())
	str2 := isStringType(e.X.Type()) && isStringType(e.Y.Type())
	switch {
	case str2:
		eq := op == lang.EQ
		return func(ip *Interp, fr []Value) (Value, error) {
			xv, err := x(ip, fr)
			if err != nil {
				return Value{}, err
			}
			yv, err := y(ip, fr)
			if err != nil {
				return Value{}, err
			}
			ip.charge(ip.cfg.Costs.IntOp)
			return BoolVal((xv.S == yv.S) == eq), nil
		}
	case xPtr || yPtr:
		eq := op == lang.EQ
		return func(ip *Interp, fr []Value) (Value, error) {
			xv, err := x(ip, fr)
			if err != nil {
				return Value{}, err
			}
			yv, err := y(ip, fr)
			if err != nil {
				return Value{}, err
			}
			ip.charge(ip.cfg.Costs.IntOp)
			return BoolVal((xv.N == yv.N) == eq), nil
		}
	case real2:
		return g.realBin(op, x, y)
	case bool2:
		eq := op == lang.EQ
		return func(ip *Interp, fr []Value) (Value, error) {
			xv, err := x(ip, fr)
			if err != nil {
				return Value{}, err
			}
			yv, err := y(ip, fr)
			if err != nil {
				return Value{}, err
			}
			ip.charge(ip.cfg.Costs.IntOp)
			return BoolVal((xv.B == yv.B) == eq), nil
		}
	default:
		return g.intBin(op, x, y, pos)
	}
}

// realBin emits one closure per real operator (mixed int/real
// operands widen through AsReal, as in the walker).
func (g *codegen) realBin(op lang.Token, x, y cExpr) cExpr {
	eval := func(ip *Interp, fr []Value) (float64, float64, error) {
		xv, err := x(ip, fr)
		if err != nil {
			return 0, 0, err
		}
		yv, err := y(ip, fr)
		if err != nil {
			return 0, 0, err
		}
		ip.charge(ip.cfg.Costs.RealOp)
		return xv.AsReal(), yv.AsReal(), nil
	}
	switch op {
	case lang.PLUS:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return RealVal(a + b), err
		}
	case lang.MINUS:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return RealVal(a - b), err
		}
	case lang.STAR:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return RealVal(a * b), err
		}
	case lang.SLASH:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return RealVal(a / b), err
		}
	case lang.EQ:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return BoolVal(a == b), err
		}
	case lang.NEQ:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return BoolVal(a != b), err
		}
	case lang.LT:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return BoolVal(a < b), err
		}
	case lang.LE:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return BoolVal(a <= b), err
		}
	case lang.GT:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return BoolVal(a > b), err
		}
	case lang.GE:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return BoolVal(a >= b), err
		}
	}
	panic(fmt.Sprintf("interp: codegen: bad real op %s", op))
}

// intBin emits one closure per integer operator.
func (g *codegen) intBin(op lang.Token, x, y cExpr, pos lang.Pos) cExpr {
	eval := func(ip *Interp, fr []Value) (int64, int64, error) {
		xv, err := x(ip, fr)
		if err != nil {
			return 0, 0, err
		}
		yv, err := y(ip, fr)
		if err != nil {
			return 0, 0, err
		}
		ip.charge(ip.cfg.Costs.IntOp)
		return xv.I, yv.I, nil
	}
	switch op {
	case lang.PLUS:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return IntVal(a + b), err
		}
	case lang.MINUS:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return IntVal(a - b), err
		}
	case lang.STAR:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return IntVal(a * b), err
		}
	case lang.SLASH:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			if err != nil {
				return Value{}, err
			}
			if b == 0 {
				return Value{}, fmt.Errorf("%s: interp: integer division by zero", pos)
			}
			return IntVal(a / b), nil
		}
	case lang.PERCENT:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			if err != nil {
				return Value{}, err
			}
			if b == 0 {
				return Value{}, fmt.Errorf("%s: interp: integer modulo by zero", pos)
			}
			return IntVal(a % b), nil
		}
	case lang.EQ:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return BoolVal(a == b), err
		}
	case lang.NEQ:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return BoolVal(a != b), err
		}
	case lang.LT:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return BoolVal(a < b), err
		}
	case lang.LE:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return BoolVal(a <= b), err
		}
	case lang.GT:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return BoolVal(a > b), err
		}
	case lang.GE:
		return func(ip *Interp, fr []Value) (Value, error) {
			a, b, err := eval(ip, fr)
			return BoolVal(a >= b), err
		}
	}
	panic(fmt.Sprintf("interp: codegen: bad int op %s", op))
}

func isPtrType(t lang.Type) bool {
	_, ok := t.(*lang.Pointer)
	return ok
}

func isRealType(t lang.Type) bool {
	s, ok := t.(*lang.Scalar)
	return ok && s.Kind == lang.KindReal
}

func isBoolType(t lang.Type) bool {
	s, ok := t.(*lang.Scalar)
	return ok && s.Kind == lang.KindBool
}

func isStringType(t lang.Type) bool {
	s, ok := t.(*lang.Scalar)
	return ok && s.Kind == lang.KindString
}
