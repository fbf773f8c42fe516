package bignum

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestPaperExample(t *testing.T) {
	// The paper stores 3,298,991 as 991 → 298 → 3 (three digits per
	// node, least significant first).
	b := New(3298991)
	if b.Limbs() != 3 {
		t.Errorf("limbs = %d, want 3", b.Limbs())
	}
	if b.String() != "3298991" {
		t.Errorf("string = %q", b.String())
	}
}

func TestParseAndString(t *testing.T) {
	cases := []string{"0", "7", "999", "1000", "123456789012345678901234567890"}
	for _, s := range cases {
		b, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if b.String() != s {
			t.Errorf("round trip %q -> %q", s, b.String())
		}
	}
	if _, err := Parse("12a4"); err == nil {
		t.Error("bad digit accepted")
	}
	if MustParse("0000123").String() != "123" {
		t.Error("leading zeros not trimmed")
	}
	if MustParse("").String() != "0" {
		t.Error("empty is zero")
	}
}

func TestArithmeticBasics(t *testing.T) {
	a, b := New(999999), New(1)
	if got := a.Add(b).String(); got != "1000000" {
		t.Errorf("add = %s", got)
	}
	if got := New(123456).Mul(New(789012)).String(); got != "97408265472" {
		t.Errorf("mul = %s", got)
	}
	if got := New(999).MulSmall(999).String(); got != "998001" {
		t.Errorf("mulsmall = %s", got)
	}
	if New(5).Cmp(New(7)) != -1 || New(7).Cmp(New(5)) != 1 || New(5).Cmp(New(5)) != 0 {
		t.Error("cmp broken")
	}
	if New(1000).Cmp(New(999)) != 1 {
		t.Error("cmp across limb counts broken")
	}
}

func TestZeroHandling(t *testing.T) {
	z := New(0)
	if !z.IsZero() || z.String() != "0" || z.Limbs() != 0 {
		t.Errorf("zero: %v %q %d", z.IsZero(), z.String(), z.Limbs())
	}
	if !z.Mul(New(123)).IsZero() {
		t.Error("0 * x")
	}
	if !New(123).MulSmall(0).IsZero() {
		t.Error("x * 0")
	}
	if got := z.Add(New(5)).String(); got != "5" {
		t.Errorf("0 + 5 = %s", got)
	}
}

func TestFibAndFactorial(t *testing.T) {
	if got := Fib(10).String(); got != "55" {
		t.Errorf("fib(10) = %s", got)
	}
	// fib(100) from a reliable table.
	if got := Fib(100).String(); got != "354224848179261915075" {
		t.Errorf("fib(100) = %s", got)
	}
	if got := Factorial(10).String(); got != "3628800" {
		t.Errorf("10! = %s", got)
	}
	if got := Factorial(25).String(); got != "15511210043330985984000000" {
		t.Errorf("25! = %s", got)
	}
}

// Property tests against math/big.

func TestQuickAddMatchesBig(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := New(int64(a)), New(int64(b))
		want := new(big.Int).Add(big.NewInt(int64(a)), big.NewInt(int64(b)))
		return x.Add(y).String() == want.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulMatchesBig(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := New(int64(a)), New(int64(b))
		want := new(big.Int).Mul(big.NewInt(int64(a)), big.NewInt(int64(b)))
		return x.Mul(y).String() == want.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCmpAntisymmetric(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := New(int64(a)), New(int64(b))
		return x.Cmp(y) == -y.Cmp(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLargeChainAgainstBig(t *testing.T) {
	// A longer deterministic mixed workload cross-checked limb by limb.
	x := New(1)
	bx := big.NewInt(1)
	for k := 1; k <= 60; k++ {
		x = x.MulSmall(k).Add(New(int64(k * k)))
		bx.Mul(bx, big.NewInt(int64(k)))
		bx.Add(bx, big.NewInt(int64(k*k)))
		if x.String() != bx.String() {
			t.Fatalf("diverged at k=%d: %s vs %s", k, x, bx)
		}
	}
}
