// Package compile is the front door of the fast execution engine: it
// accepts a checked, normalized PSL program for bytecode.Compile.
//
// lang.Check resolves every name once and records it on the AST: each
// variable use and declaration its slot in a flat per-function frame
// (Ident.Slot, FuncDecl.Vars), each field access its offset in its
// record declaration (FieldExpr.Off), each call its callee's index in
// Program.Funcs (CallExpr.Callee). The tree-walking interpreter and the
// lowering read those annotations; there is no table and no
// intermediate tree between the AST and the bytecode.
//
// Compile returns an error (rather than panicking) on unchecked input,
// and the lowering does on a use it cannot resolve, so callers can fall
// back to the tree-walker. A Program, and the lang.Program it holds,
// is immutable once Compile returns, which is what lets one compiled
// program be shared, without locks, by every interpreter and worker
// fork executing it (interp's TestBytecodeProgramSharedAcrossGoroutines
// runs one from 16 goroutines under the race detector).
package compile

import (
	"fmt"

	"repro/internal/lang"
)

// Program is a checked program's frame list: its functions, in order,
// each function's frame being the slots its Vars name.
type Program struct {
	// Lang is the source program, which the lowering walks.
	Lang  *lang.Program
	Funcs []*lang.FuncDecl
}

// Compile checks that every function of p was checked: a function whose
// parameters do not hold their slots was not, and is reported, never
// panicked.
func Compile(p *lang.Program) (*Program, error) {
	for _, f := range p.Funcs {
		for j, prm := range f.Params {
			if j >= len(f.Vars) || f.Vars[j] != prm.ID {
				return nil, fmt.Errorf("compile: %s: parameter %s holds no slot (program not checked?)", f.Name, prm.Name)
			}
		}
	}
	return &Program{Lang: p, Funcs: p.Funcs}, nil
}
