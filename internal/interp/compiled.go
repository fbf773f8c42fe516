// The program handle: one program's executable code, built once and
// shared by every interpreter that runs it.
package interp

import (
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/compile"
	"repro/internal/lang"
)

// compileBuilds counts front-end builds — the tables and the one walk
// that lowers the AST to bytecode, one per CompileProgram call.
// Observability for the serving layer's contract that a cache-hit
// request does zero compile work: internal/serve's tests assert the
// count stays flat across hot requests.
var compileBuilds atomic.Int64

// CompileCount reports how many front-end builds (compile's tables plus
// the bytecode lowering) have run, process-wide: one per CompileProgram
// call, and so one per New that runs on the VM (not the walk engine,
// not Simulated).
func CompileCount() int64 { return compileBuilds.Load() }

// CompiledProgram is one program's executable code: the bytecode the
// kernel and bytecode engines run, lowered by CompileProgram straight
// from the checked AST. Nothing in this package caches code: whoever
// runs a program more than once holds its handle (core.Compilation
// does, and internal/serve's program cache stores one per entry, so a
// cache hit can never recompile). Safe for concurrent use, like
// everything it references.
type CompiledProgram struct {
	prog *lang.Program
	bc   *bytecode.Program
	// err is why the code could not be built; it fails every engine but
	// the walker.
	err error
}

// CompileProgram builds the code for prog — its resolution tables
// (compile.Compile), then one walk of its AST to bytecode — and returns
// the handle. Err reports either step's failure.
func CompileProgram(prog *lang.Program) *CompiledProgram {
	compileBuilds.Add(1)
	cp := &CompiledProgram{prog: prog}
	tables, err := compile.Compile(prog)
	if err == nil {
		cp.bc, err = bytecode.Compile(tables)
	}
	cp.err = err
	return cp
}

// Err reports why compilation failed (nil on success).
func (cp *CompiledProgram) Err() error { return cp.err }

// Program returns the source program the handle was built from.
func (cp *CompiledProgram) Program() *lang.Program { return cp.prog }

// Bytecode returns the lowered program, or why it could not be built.
// The planner reads the kernel classifier's verdict on every forall
// from it.
func (cp *CompiledProgram) Bytecode() (*bytecode.Program, error) { return cp.bc, cp.err }

// NewCompiled creates an interpreter over a compiled program. A run on
// the walker (the walk engine, or Simulated mode) ignores the code and
// walks the AST.
func NewCompiled(cp *CompiledProgram, cfg Config) *Interp {
	ip := newInterp(cp.prog, cfg)
	if ip.cfg.Engine != EngineWalk {
		ip.attach(cp)
	}
	return ip
}

// attach hands the VM its code.
func (ip *Interp) attach(cp *CompiledProgram) { ip.bc, ip.bcErr = cp.bc, cp.err }

// RunCompiled is Run over a compiled program.
func RunCompiled(cp *CompiledProgram, cfg Config, fn string, args ...Value) (Value, Stats, error) {
	ip := NewCompiled(cp, cfg)
	v, err := ip.Call(fn, args...)
	return v, ip.Stats(), err
}
