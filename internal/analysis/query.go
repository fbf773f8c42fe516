package analysis

import (
	"fmt"

	"repro/internal/adds"
	"repro/internal/lang"
	"repro/internal/pathmatrix"
)

// Before returns the state just before statement s, or nil if s was not
// reached. Only a while loop's is recorded; another statement's comes
// from one replay of the analysis (safe to query concurrently).
func (fr *FuncResult) Before(s lang.Stmt) *State {
	if _, ok := s.(*lang.WhileStmt); ok {
		return fr.loopBefore[s]
	}
	return fr.recorded().before[s]
}

// After returns the state just after statement s, or nil; as Before.
func (fr *FuncResult) After(s lang.Stmt) *State {
	return fr.recorded().after[s]
}

// InductionStrictlyAdvances reports whether, at the loop body's exit
// (before the back edge), for the variable v in slot slot (its
// lang.Ident.Slot), the previous-iteration handle v' is provably
// not an alias of v and lies a definite ≥1-step path above it along a
// single acyclic forward dimension. By induction over iterations the
// paths compose along the acyclic dimension, so all iterations' values
// of v are pairwise distinct — the fact that licenses parallel
// processing of the loop's nodes (§3.3.2, §4.3.2).
func (fr *FuncResult) InductionStrictlyAdvances(loop lang.Stmt, slot int) bool {
	st := fr.LoopBodyExit[loop]
	h, prime := fr.handles.of[slot], fr.handles.prime[slot]
	if st == nil || h == noHandle || prime == noHandle || !st.PM.Live(h) || !st.PM.Live(prime) {
		return false
	}
	e := st.PM.Get(prime, h)
	if e.Alias != pathmatrix.NoAlias {
		return false
	}
	for _, d := range e.Descs {
		if d.Star {
			continue // a ≥0 path does not prove advancement
		}
		if fr.an.forwardAlongOneDim(d.Fields) {
			return true
		}
	}
	return false
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

// FindLoop locates the n-th while loop (0-based, source order) in fn.
func FindLoop(fn *lang.FuncDecl, n int) (*lang.WhileStmt, error) {
	var found *lang.WhileStmt
	count := 0
	lang.Walk(fn.Body, func(s lang.Stmt) bool {
		if w, ok := s.(*lang.WhileStmt); ok {
			if count == n {
				found = w
				return false
			}
			count++
		}
		return true
	})
	if found == nil {
		return nil, fmt.Errorf("analysis: function %s has no while loop #%d", fn.Name, n)
	}
	return found, nil
}

// FindAssign locates the first assignment in fn whose formatted text
// equals text (whitespace-insensitive match on the canonical printer
// output, e.g. "p = p->next;").
func FindAssign(fn *lang.FuncDecl, text string) (*lang.AssignStmt, error) {
	var found *lang.AssignStmt
	lang.Walk(fn.Body, func(s lang.Stmt) bool {
		if as, ok := s.(*lang.AssignStmt); ok {
			if lang.FormatExpr(as.LHS)+" = "+lang.FormatExpr(as.RHS)+";" == text {
				found = as
				return false
			}
		}
		return true
	})
	if found == nil {
		return nil, fmt.Errorf("analysis: function %s has no assignment %q", fn.Name, text)
	}
	return found, nil
}
