// Package compile holds the tables the bytecode lowering resolves a
// checked, normalized PSL program against: the front end of the fast
// execution engine.
//
// The tree-walking interpreter in package interp resolves everything at
// run time — every variable reference walks a stack of
// map[string]*Value scopes, every field access hashes the field name
// into the node's maps, every call looks the callee up by name. That is
// fine for an oracle, but it makes the measured R1/R2 speedups
// "speedups of a slow interpreter". The lowering moves all of that
// resolution to compile time, each fact looked up once:
//
//   - every function gets a flat frame of numbered variable slots, the
//     ones lang.Check gave each declaration (parameters, var
//     statements, loop variables) and each use, so a reference is a
//     slice index and forking a frame for a parallel iteration is one
//     slice copy instead of rebuilding a chain of maps;
//   - every field access resolves, through the program's field table
//     (Field), to the field's offset within its record declaration (the
//     index into adds.Decl.Data or .Pointers), so the heap can be
//     addressed positionally;
//   - every call site resolves to a builtin or, through the function
//     index (FuncIndex), to a function's position in Funcs.
//
// There is no intermediate tree: bytecode.Compile walks the checked AST
// once, reading slots off it and offsets and callees from these
// tables, and emits the flat program interp's VM runs.
//
// Compile expects the program to have passed lang.Check; it returns an
// error (rather than panicking) on unchecked input, and the lowering
// does on a use it cannot resolve, so callers can fall back to the
// tree-walker.
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

	"repro/internal/lang"
)

// Program is a checked program's resolution tables: one Func per
// lang.FuncDecl, in the same order, the function index and the field
// table.
type Program struct {
	// Lang is the source program, which the lowering walks.
	Lang  *lang.Program
	Funcs []*Func
	index map[string]int
	// fields maps a record type to its fields, indexed by the field
	// name's id in Lang's identifier table.
	fields map[string][]Field
}

// Func is one function's frame: its declaration and the number of
// variable slots the checker gave it.
type Func struct {
	Decl *lang.FuncDecl
	// Slots is the frame size: the number of distinct variable
	// declarations (each declaration gets its own slot, len(Decl.Vars);
	// slots are not reused across sibling scopes, which costs a few
	// unused slots per frame). The parameters are slots
	// 0..len(Decl.Params)-1.
	Slots int
}

// Field is a record field's place in the heap: its offset within the
// record's Pointers (IsPtr) or Data.
type Field struct {
	Off   int
	IsPtr bool
	ok    bool
}

// Compile builds the tables of a checked program. A function whose
// parameters do not hold their slots was not checked, and is reported,
// never panicked.
func Compile(p *lang.Program) (*Program, error) {
	cp := &Program{Lang: p, Funcs: make([]*Func, len(p.Funcs)), index: make(map[string]int, len(p.Funcs))}
	frames := make([]Func, len(p.Funcs))
	for i, f := range p.Funcs {
		for j, prm := range f.Params {
			if j >= len(f.Vars) || f.Vars[j] != prm.ID {
				return nil, fmt.Errorf("compile: %s: parameter %s holds no slot (program not checked?)", f.Name, prm.Name)
			}
		}
		frames[i] = Func{Decl: f, Slots: len(f.Vars)}
		cp.Funcs[i] = &frames[i]
		cp.index[f.Name] = i
	}
	names := p.Names()
	cp.fields = make(map[string][]Field, p.Universe.Len())
	for _, rec := range p.Universe.Types() {
		decl := p.Universe.Decl(rec)
		var fields []Field
		put := func(name string, f Field) {
			// A field the program never names has no id, and no access
			// to resolve.
			if id, ok := names.Lookup(name); ok {
				if int(id) >= len(fields) {
					fields = append(fields, make([]Field, int(id)+1-len(fields))...)
				}
				fields[id] = f
			}
		}
		for i := range decl.Pointers {
			put(decl.Pointers[i].Name, Field{Off: i, IsPtr: true, ok: true})
		}
		for i := range decl.Data {
			put(decl.Data[i].Name, Field{Off: i, ok: true})
		}
		cp.fields[rec] = fields
	}
	return cp, nil
}

// FuncIndex returns the index of the named function, or -1.
func (p *Program) FuncIndex(name string) int {
	i, ok := p.index[name]
	if !ok {
		return -1
	}
	return i
}

// Field resolves the field whose name has id in Lang's identifier table
// on the named record type.
func (p *Program) Field(record string, id lang.ID) (Field, bool) {
	fields := p.fields[record]
	if int(id) >= len(fields) || !fields[id].ok {
		return Field{}, false
	}
	return fields[id], true
}
