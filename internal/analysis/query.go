package analysis

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/pathmatrix"
)

// MatrixBefore returns the path matrix just before stmt, or nil if the
// statement was not reached.
func (fr *FuncResult) MatrixBefore(s lang.Stmt) *pathmatrix.Matrix {
	if st, ok := fr.Before[s]; ok {
		return st.PM
	}
	return nil
}

// MatrixAfter returns the path matrix just after stmt, or nil.
func (fr *FuncResult) MatrixAfter(s lang.Stmt) *pathmatrix.Matrix {
	if st, ok := fr.After[s]; ok {
		return st.PM
	}
	return nil
}

// MayAliasAt reports whether handles a and b may alias in the state
// before stmt. Unreached statements and unknown handles answer true
// (conservative).
func (fr *FuncResult) MayAliasAt(s lang.Stmt, a, b string) bool {
	st, ok := fr.Before[s]
	if !ok {
		return true
	}
	if !st.PM.HasHandle(a) || !st.PM.HasHandle(b) {
		return true
	}
	return st.PM.Get(a, b).Alias != pathmatrix.NoAlias
}

// InductionStrictlyAdvances reports whether, at the loop body's exit
// (before the back edge), the previous-iteration handle v' is provably
// not an alias of v and lies a definite ≥1-step path above it along a
// single acyclic forward dimension. By induction over iterations the
// paths compose along the acyclic dimension, so all iterations' values
// of v are pairwise distinct — the fact that licenses parallel
// processing of the loop's nodes (§3.3.2, §4.3.2).
func (fr *FuncResult) InductionStrictlyAdvances(loop lang.Stmt, v string) bool {
	st := fr.LoopBodyExit[loop]
	if st == nil {
		return false
	}
	prime := v + PrimeSuffix
	if !st.PM.HasHandle(v) || !st.PM.HasHandle(prime) {
		return false
	}
	e := st.PM.Get(prime, v)
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
