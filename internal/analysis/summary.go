package analysis

import (
	"repro/internal/adds"
	"repro/internal/lang"
)

// callEffects is the syntactic, transitively-closed effect summary the
// call rule consumes: which pointer fields a function (or anything it
// calls) may store to.
type callEffects struct {
	// storesFields holds pointer field names the function may overwrite,
	// directly or through callees.
	storesFields map[string]bool
	// returnsPointer reports whether the function returns a pointer.
	returnsPointer bool
}

// mergeCalleeStores folds every callee's store set into its callers,
// reporting whether anything grew (one step of the transitive closure;
// recursion converges because the field universe is finite).
func mergeCalleeStores(out map[string]*callEffects, calls map[string]map[string]bool) bool {
	changed := false
	for caller, callees := range calls {
		ce := out[caller]
		for callee := range callees {
			sub, ok := out[callee]
			if !ok {
				continue
			}
			for f := range sub.storesFields {
				if !ce.storesFields[f] {
					ce.storesFields[f] = true
					changed = true
				}
			}
		}
	}
	return changed
}

// computeCallEffects builds effect summaries for every function: each
// function's own stores, iterated through the call graph until stable.
func computeCallEffects(prog *lang.Program) map[string]*callEffects {
	out := make(map[string]*callEffects, len(prog.Funcs))
	calls := make(map[string]map[string]bool, len(prog.Funcs))
	for _, f := range prog.Funcs {
		eff := &callEffects{storesFields: map[string]bool{}}
		_, eff.returnsPointer = lang.IsPointer(f.Result)
		callees := map[string]bool{}
		lang.Walk(f.Body, func(s lang.Stmt) bool {
			if as, ok := s.(*lang.AssignStmt); ok {
				if fe, ok := as.LHS.(*lang.FieldExpr); ok {
					if _, isPtr := lang.IsPointer(fe.Type()); isPtr {
						eff.storesFields[fe.Field] = true
					}
				}
			}
			lang.WalkExprs(s, func(e lang.Expr) {
				if call, ok := e.(*lang.CallExpr); ok {
					if lang.Builtins[call.Func] == nil {
						callees[call.Func] = true
					}
				}
			})
			return true
		})
		out[f.Name], calls[f.Name] = eff, callees
	}
	for mergeCalleeStores(out, calls) {
	}
	return out
}

// StoresPointerFields exposes, for other packages, whether fn may write
// any pointer field, and which.
func (r *Result) StoresPointerFields(fn string) []string {
	eff := r.Program.effects[fn]
	if eff == nil {
		return nil
	}
	var out []string
	for f := range eff.storesFields {
		out = append(out, f)
	}
	return out
}

// forwardAlongOneDim reports whether all the named fields are
// unambiguously declared with one common (non-Unknown) direction along
// one common dimension, so paths over them are acyclic and compose into
// acyclic paths. Both forward-only and backward-only traversals
// qualify (the paper's two-way list: next-only or prev-only never
// revisits).
func (a *Analyzer) forwardAlongOneDim(fields []string) bool {
	dim := ""
	dir := adds.Unknown
	for _, f := range fields {
		fi := a.fields[f]
		if fi == nil || fi.Ambiguous || fi.Dir == adds.Unknown {
			return false
		}
		if dim == "" {
			dim, dir = fi.Dim, fi.Dir
		} else if fi.Dim != dim || fi.Dir != dir {
			return false
		}
	}
	return dim != ""
}
