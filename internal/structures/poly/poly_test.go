package poly

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/structures/list"
)

func equal(p, q *Poly) bool { return slices.Equal(p.Terms(), q.Terms()) }

// Scale multiplies every coefficient by c in place, serially: the
// oracle ScaleParallel is held to.
func (p *Poly) Scale(c int64) {
	if c == 0 {
		p.terms = list.New[Term]()
		return
	}
	for n := p.terms.Head(); n != nil; n = n.Next {
		n.Data.Coef *= c
	}
}

// degree is p's largest exponent; p must be nonzero.
func degree(p *Poly) int { return p.Terms()[0].Exp }

func TestPaperExample(t *testing.T) {
	// 451x^31 + 10x^13 + 4 (§3.1.1).
	p := New(Term{4, 0}, Term{451, 31}, Term{10, 13})
	if got := p.String(); got != "451x^31 + 10x^13 + 4" {
		t.Errorf("string = %q", got)
	}
	if degree(p) != 31 || p.Len() != 3 {
		t.Errorf("degree=%d len=%d", degree(p), p.Len())
	}
	if err := p.Verify(); err != nil {
		t.Error(err)
	}
}

func TestScale(t *testing.T) {
	p := New(Term{451, 31}, Term{10, 13}, Term{4, 0})
	p.Scale(3)
	want := New(Term{1353, 31}, Term{30, 13}, Term{12, 0})
	if !equal(p, want) {
		t.Errorf("scaled = %s", p)
	}
	p.Scale(0)
	if !p.IsZero() {
		t.Errorf("scale by 0 = %s", p)
	}
}

func TestScaleParallelMatchesScale(t *testing.T) {
	mk := func() *Poly {
		p := Zero()
		for i := 0; i < 200; i++ {
			p.addTerm(Term{Coef: int64(i + 1), Exp: i})
		}
		return p
	}
	want := mk()
	want.Scale(7)
	for _, pes := range []int{1, 2, 4, 7} {
		got := mk()
		got.ScaleParallel(pes, 7)
		if !equal(got, want) {
			t.Errorf("pes=%d mismatch", pes)
		}
	}
	z := mk()
	z.ScaleParallel(4, 0)
	if !z.IsZero() {
		t.Error("parallel scale by zero")
	}
}

func TestAdd(t *testing.T) {
	p := New(Term{1, 2}, Term{3, 0})
	q := New(Term{2, 2}, Term{5, 1})
	sum := p.Add(q)
	want := New(Term{3, 2}, Term{5, 1}, Term{3, 0})
	if !equal(sum, want) {
		t.Errorf("sum = %s", sum)
	}
	// Cancellation drops terms.
	r := New(Term{-3, 2})
	if got := sum.Add(r); got.Len() != 2 || degree(got) != 1 {
		t.Errorf("cancelled = %s", got)
	}
	if err := sum.Verify(); err != nil {
		t.Error(err)
	}
	if !Zero().Add(Zero()).IsZero() {
		t.Error("0 + 0")
	}
}

func TestMul(t *testing.T) {
	// (x + 1)(x - 1) = x² - 1
	p := New(Term{1, 1}, Term{1, 0})
	q := New(Term{1, 1}, Term{-1, 0})
	got := p.Mul(q)
	want := New(Term{1, 2}, Term{-1, 0})
	if !equal(got, want) {
		t.Errorf("(x+1)(x-1) = %s", got)
	}
	if !p.Mul(Zero()).IsZero() {
		t.Error("p * 0")
	}
	if err := got.Verify(); err != nil {
		t.Error(err)
	}
}

func TestDerivative(t *testing.T) {
	p := New(Term{451, 31}, Term{10, 13}, Term{4, 0})
	d := p.Derivative()
	want := New(Term{451 * 31, 30}, Term{130, 12})
	if !equal(d, want) {
		t.Errorf("d/dx = %s", d)
	}
	if !Zero().Derivative().IsZero() {
		t.Error("d0/dx")
	}
}

func TestEval(t *testing.T) {
	p := New(Term{2, 2}, Term{-3, 1}, Term{1, 0}) // 2x² - 3x + 1
	if got := p.Eval(2); math.Abs(got-3) > 1e-12 {
		t.Errorf("p(2) = %g", got)
	}
	if got := Zero().Eval(5); got != 0 {
		t.Errorf("0(5) = %g", got)
	}
}

func TestAddTermMergesAndOrders(t *testing.T) {
	p := New(Term{1, 5}, Term{1, 1}, Term{1, 3}, Term{1, 5})
	if p.Len() != 3 {
		t.Errorf("len = %d (duplicate exponents must merge)", p.Len())
	}
	terms := p.Terms()
	if terms[0].Exp != 5 || terms[0].Coef != 2 {
		t.Errorf("terms = %v", terms)
	}
	if err := p.Verify(); err != nil {
		t.Error(err)
	}
	// Merge to zero removes the node.
	p.addTerm(Term{-2, 5})
	if degree(p) != 3 {
		t.Errorf("after cancel: %s", p)
	}
}

func TestStringForms(t *testing.T) {
	if got := Zero().String(); got != "0" {
		t.Errorf("zero = %q", got)
	}
	if got := New(Term{5, 1}).String(); got != "5x" {
		t.Errorf("linear = %q", got)
	}
	if got := New(Term{-2, 0}).String(); got != "-2" {
		t.Errorf("const = %q", got)
	}
}

// TestQuickEvalLinearity: (p + q)(x) == p(x) + q(x).
func TestQuickEvalLinearity(t *testing.T) {
	mk := func(coefs []int8) *Poly {
		p := Zero()
		for i, c := range coefs {
			if i >= 8 {
				break
			}
			p.addTerm(Term{Coef: int64(c), Exp: i})
		}
		return p
	}
	f := func(a, b []int8) bool {
		p, q := mk(a), mk(b)
		x := 1.25
		lhs := p.Add(q).Eval(x)
		rhs := p.Eval(x) + q.Eval(x)
		return math.Abs(lhs-rhs) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickMulDegree: deg(p·q) = deg(p) + deg(q) for nonzero p, q with
// no leading-coefficient cancellation (int64 products of int8 leading
// coefficients cannot vanish).
func TestQuickMulDegree(t *testing.T) {
	mk := func(coefs []int8) *Poly {
		p := Zero()
		for i, c := range coefs {
			if i >= 6 {
				break
			}
			p.addTerm(Term{Coef: int64(c), Exp: i})
		}
		return p
	}
	f := func(a, b []int8) bool {
		p, q := mk(a), mk(b)
		if p.IsZero() || q.IsZero() {
			return p.Mul(q).IsZero()
		}
		return degree(p.Mul(q)) == degree(p)+degree(q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickVerifyInvariant: every constructed polynomial satisfies its
// representation invariants.
func TestQuickVerifyInvariant(t *testing.T) {
	f := func(coefs []int8, exps []uint8) bool {
		p := Zero()
		for i := range coefs {
			if i >= len(exps) || i > 20 {
				break
			}
			p.addTerm(Term{Coef: int64(coefs[i]), Exp: int(exps[i] % 32)})
		}
		return p.Verify() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
