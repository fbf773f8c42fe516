// The program handle: one program's executable code, built once and
// shared by every interpreter that runs it.
package interp

import (
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/compile"
	"repro/internal/lang"
)

// compileBuilds counts front-end builds — compile IR plus bytecode, one
// per CompileProgram call. Observability for the serving layer's
// contract that a cache-hit request does zero compile work:
// internal/serve's tests assert the count stays flat across hot
// requests.
var compileBuilds atomic.Int64

// CompileCount reports how many front-end builds (compile IR +
// bytecode) have run, process-wide: one per CompileProgram call, and so
// one per New that runs on the VM (not the walk engine, not Simulated).
func CompileCount() int64 { return compileBuilds.Load() }

// CompiledProgram is one program's executable code: the bytecode the
// kernel and bytecode engines run, lowered by CompileProgram from a
// compile IR that is garbage as soon as the lowering returns. Nothing
// in this package caches code: whoever runs a program more than once
// holds its handle (core.Compilation does, and internal/serve's program
// cache stores one per entry, so a cache hit can never recompile). Safe
// for concurrent use, like everything it references.
type CompiledProgram struct {
	prog *lang.Program
	// err is the front end's (compile.Compile) failure; it fails every
	// engine but the walker.
	err   error
	bc    *bytecode.Program
	bcErr error
}

// CompileProgram builds the code for prog — lower it once
// (compile.Compile), build the bytecode from the IR — and returns the
// handle. Err reports a front-end failure.
func CompileProgram(prog *lang.Program) *CompiledProgram {
	compileBuilds.Add(1)
	ir, err := compile.Compile(prog)
	if err != nil {
		return &CompiledProgram{prog: prog, err: err, bcErr: err}
	}
	bc, bcErr := bytecode.Compile(ir)
	return &CompiledProgram{prog: prog, bc: bc, bcErr: bcErr}
}

// Err reports why compilation failed (nil on success).
func (cp *CompiledProgram) Err() error { return cp.err }

// Program returns the source program the handle was built from.
func (cp *CompiledProgram) Program() *lang.Program { return cp.prog }

// Bytecode returns the lowered program, or why the front end or the
// lowering failed. The planner reads the kernel classifier's verdict on
// every forall from it.
func (cp *CompiledProgram) Bytecode() (*bytecode.Program, error) { return cp.bc, cp.bcErr }

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
func (ip *Interp) attach(cp *CompiledProgram) { ip.bc, ip.bcErr = cp.bc, cp.bcErr }

// RunCompiled is Run over a compiled program.
func RunCompiled(cp *CompiledProgram, cfg Config, fn string, args ...Value) (Value, Stats, error) {
	ip := NewCompiled(cp, cfg)
	v, err := ip.Call(fn, args...)
	return v, ip.Stats(), err
}
