package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/lang"
	"repro/internal/pathmatrix"
)

// String renders the state as the differential tests compare states:
// its matrix, its active violation keys and its provenance facts,
// sorted.
func (s *State) String() string {
	prov := make([]string, 0, len(s.Prov))
	for h, p := range s.Prov {
		src := ""
		if p.Src != noHandle {
			src = s.PM.Name(p.Src)
		}
		prov = append(prov, fmt.Sprintf("%s:%s<-%s", s.PM.Name(h), p.Dim, src))
	}
	sort.Strings(prov)
	return fmt.Sprintf("%s\nviolations %v\nprov %s", s.PM, s.ViolationKeys(), strings.Join(prov, " "))
}

// handle returns the live handle the matrix prints as name ("p'" for a
// primed one), or -1.
func (s *State) handle(name string) int {
	for h := 0; h < s.PM.Len(); h++ {
		if s.PM.Live(h) && s.PM.Name(h) == name {
			return h
		}
	}
	return -1
}

// get returns the entry between the handles printed as r and c (zero
// when either is not live).
func (s *State) get(r, c string) pathmatrix.Entry {
	hr, hc := s.handle(r), s.handle(c)
	if hr < 0 || hc < 0 {
		return pathmatrix.Entry{}
	}
	return s.PM.Get(hr, hc)
}

// advances is InductionStrictlyAdvances for the variable named v.
func (fr *FuncResult) advances(loop lang.Stmt, v string) bool {
	for slot, h := range fr.handles.of {
		if h != noHandle && fr.handles.names[h] == v {
			return fr.InductionStrictlyAdvances(loop, slot)
		}
	}
	return false
}

// The interprocedural mechanism AnalyzeAll had before it walked the
// effect summaries' component order, kept as the oracle the new order
// is checked against (analysis_diff_test.go): every function in
// declaration order, round after round, until no exit violation set
// changes; and the string-keyed closure of "pointer fields a function
// may store" the call rule used to read. The call rule's outcome
// depends only on that field set, so the oracle pairs refAnalyzeAll
// (run with today's call rule) with a check that computeCallEffects and
// the effect summaries name the same fields for every function.

// refAnalyzeAll is the round-robin AnalyzeAll, moved here verbatim
// (less the process-wide run counter), recording every statement's
// states as the analysis runs — the eager record the replays behind
// FuncResult.Before and After are held to. Every call reads its
// callee's exit violations as they are at that moment.
func (a *Analyzer) refAnalyzeAll() (*Result, error) {
	// Iterate to a fixed point of exit-violation summaries: a callee
	// that ends with an active violation poisons its callers.
	for round := 0; round < len(a.prog.Funcs)+2; round++ {
		changed := false
		for i := range a.prog.Funcs {
			prev := a.exitViols[i]
			fr, _, err := a.analyzeFunc(i, true, nil)
			if err != nil {
				return nil, err
			}
			a.results[fr.Name] = fr
			now := fr.Exit.Violations
			if !sameViolationKeys(prev, now) {
				changed = true
			}
			a.exitViols[i] = now
		}
		if !changed {
			break
		}
	}
	res := &Result{Program: a, Funcs: a.results}
	return res, nil
}

// callEffects is the syntactic, transitively-closed effect summary the
// call rule consumes: which pointer fields a function (or anything it
// calls) may store to.
type callEffects struct {
	// storesFields holds pointer field names the function may overwrite,
	// directly or through callees.
	storesFields map[string]bool
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

// RefAnalyzeAll and StoredFields hand the oracle to the differential
// test, which lives in package analysis_test so that it may import the
// packages whose programs it reads (they import this one).
func RefAnalyzeAll(prog *lang.Program) (*Result, error) { return New(prog).refAnalyzeAll() }

// StoredFields returns the closure computeCallEffects gives fn.
func StoredFields(prog *lang.Program, fn string) map[string]bool {
	return computeCallEffects(prog)[fn].storesFields
}

// Analyses reports how often AnalyzeAll analyzed fn.
func (a *Analyzer) Analyses(fn string) int {
	for i, f := range a.prog.Funcs {
		if f.Name == fn {
			return a.analyses[i]
		}
	}
	return 0
}
