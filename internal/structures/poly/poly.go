// Package poly implements the paper's §3.1.1 sparse polynomial
// application: a polynomial such as 451x³¹ + 10x¹³ + 4 stored as a
// one-way linked list of (coefficient, exponent) nodes in decreasing
// exponent order.
package poly

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/structures/list"
)

// Term is one polynomial term.
type Term struct {
	Coef int64
	Exp  int
}

// Poly is a sparse polynomial over int64 coefficients. Terms are kept
// in strictly decreasing exponent order with no zero coefficients.
type Poly struct {
	terms *list.List[Term]
}

// New builds a polynomial from terms (any order; duplicates combine).
func New(terms ...Term) *Poly {
	p := &Poly{terms: list.New[Term]()}
	for _, t := range terms {
		p.addTerm(t)
	}
	return p
}

// Zero returns the zero polynomial.
func Zero() *Poly { return New() }

// addTerm merges one term into the ordered list.
func (p *Poly) addTerm(t Term) {
	if t.Coef == 0 {
		return
	}
	head := p.terms.Head()
	if head == nil || t.Exp > head.Data.Exp {
		p.terms.Prepend(t)
		return
	}
	var prev *list.Node[Term]
	for n := head; n != nil; n = n.Next {
		if n.Data.Exp == t.Exp {
			n.Data.Coef += t.Coef
			if n.Data.Coef == 0 {
				exp := t.Exp
				p.terms.Remove(func(x Term) bool { return x.Exp == exp })
			}
			return
		}
		if n.Data.Exp < t.Exp {
			break
		}
		prev = n
	}
	if prev == nil {
		p.terms.Prepend(t)
	} else {
		p.terms.InsertAfter(prev, t)
	}
}

// Terms returns the terms in decreasing exponent order.
func (p *Poly) Terms() []Term { return p.terms.Slice() }

// Len returns the number of nonzero terms.
func (p *Poly) Len() int { return p.terms.Len() }

// IsZero reports whether p has no terms.
func (p *Poly) IsZero() bool { return p.terms.Len() == 0 }

// String renders "451x^31 + 10x^13 + 4".
func (p *Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	var parts []string
	for _, t := range p.Terms() {
		switch {
		case t.Exp == 0:
			parts = append(parts, fmt.Sprintf("%d", t.Coef))
		case t.Exp == 1:
			parts = append(parts, fmt.Sprintf("%dx", t.Coef))
		default:
			parts = append(parts, fmt.Sprintf("%dx^%d", t.Coef, t.Exp))
		}
	}
	return strings.Join(parts, " + ")
}

// ScaleParallel multiplies every coefficient by c in place over the
// strip-mined traversal (§4.3.3) of the loop the paper analyzes in
// §3.3.2: the node processing is what parallelizes, as the analysis
// proves.
func (p *Poly) ScaleParallel(pes int, c int64) {
	if c == 0 {
		p.terms = list.New[Term]()
		return
	}
	p.terms.ParallelEach(pes, func(n *list.Node[Term]) {
		n.Data.Coef *= c
	})
}

// Add returns p + q.
func (p *Poly) Add(q *Poly) *Poly {
	out := Zero()
	a, b := p.terms.Head(), q.terms.Head()
	for a != nil || b != nil {
		switch {
		case b == nil || (a != nil && a.Data.Exp > b.Data.Exp):
			out.terms.Append(a.Data)
			a = a.Next
		case a == nil || b.Data.Exp > a.Data.Exp:
			out.terms.Append(b.Data)
			b = b.Next
		default:
			if c := a.Data.Coef + b.Data.Coef; c != 0 {
				out.terms.Append(Term{Coef: c, Exp: a.Data.Exp})
			}
			a, b = a.Next, b.Next
		}
	}
	return out
}

// Mul returns p * q.
func (p *Poly) Mul(q *Poly) *Poly {
	out := Zero()
	for a := p.terms.Head(); a != nil; a = a.Next {
		for b := q.terms.Head(); b != nil; b = b.Next {
			out.addTerm(Term{Coef: a.Data.Coef * b.Data.Coef, Exp: a.Data.Exp + b.Data.Exp})
		}
	}
	return out
}

// Derivative returns dp/dx.
func (p *Poly) Derivative() *Poly {
	out := Zero()
	for _, t := range p.Terms() {
		if t.Exp > 0 {
			out.terms.Append(Term{Coef: t.Coef * int64(t.Exp), Exp: t.Exp - 1})
		}
	}
	return out
}

// Eval evaluates p at x.
func (p *Poly) Eval(x float64) float64 {
	var sum float64
	for _, t := range p.Terms() {
		sum += float64(t.Coef) * math.Pow(x, float64(t.Exp))
	}
	return sum
}

// Verify checks the representation invariants: strictly decreasing
// exponents, no zero coefficients, acyclic unique list.
func (p *Poly) Verify() error {
	if err := p.terms.VerifyAcyclic(); err != nil {
		return err
	}
	if err := p.terms.VerifyUnique(); err != nil {
		return err
	}
	prev := math.MaxInt
	for _, t := range p.Terms() {
		if t.Coef == 0 {
			return fmt.Errorf("poly: zero coefficient at exponent %d", t.Exp)
		}
		if t.Exp >= prev {
			return fmt.Errorf("poly: exponents not strictly decreasing at %d", t.Exp)
		}
		prev = t.Exp
	}
	return nil
}
