// Package bignum implements the paper's §3.1.1 bignum application: an
// arbitrary-precision unsigned integer stored as a one-way linked list
// of fixed-width digit groups, least significant group first ("the
// integer is stored in reverse order for ease of manipulation" — the
// paper's 3,298,991 example stores 991 → 298 → 3).
package bignum

import (
	"fmt"
	"strings"

	"repro/internal/structures/list"
)

// Base is the per-node digit group: three decimal digits, as in the
// paper's figure.
const Base = 1000

// Int is an arbitrary-precision unsigned integer. The zero value is 0.
type Int struct {
	// limbs holds groups of three decimal digits, least significant
	// first. An empty list represents zero. No trailing zero limbs.
	limbs *list.List[int]
}

// New returns the bignum for a non-negative int64.
func New(v int64) *Int {
	if v < 0 {
		panic("bignum: negative value")
	}
	b := &Int{limbs: list.New[int]()}
	for v > 0 {
		b.limbs.Append(int(v % Base))
		v /= Base
	}
	return b
}

// Parse reads a decimal string of arbitrary length.
func Parse(s string) (*Int, error) {
	s = strings.TrimLeft(s, "0")
	b := &Int{limbs: list.New[int]()}
	if s == "" {
		return b, nil
	}
	for i := len(s); i > 0; i -= 3 {
		lo := i - 3
		if lo < 0 {
			lo = 0
		}
		var limb int
		for _, c := range s[lo:i] {
			if c < '0' || c > '9' {
				return nil, fmt.Errorf("bignum: bad digit %q", c)
			}
			limb = limb*10 + int(c-'0')
		}
		b.limbs.Append(limb)
	}
	return b, nil
}

// MustParse is Parse that panics on error.
func MustParse(s string) *Int {
	b, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return b
}

// IsZero reports whether b == 0.
func (b *Int) IsZero() bool { return b.limbs == nil || b.limbs.Len() == 0 }

// Limbs returns the number of digit-group nodes.
func (b *Int) Limbs() int {
	if b.limbs == nil {
		return 0
	}
	return b.limbs.Len()
}

// String renders the decimal representation.
func (b *Int) String() string {
	if b.IsZero() {
		return "0"
	}
	limbs := b.limbs.Slice()
	var sb strings.Builder
	for i := len(limbs) - 1; i >= 0; i-- {
		if i == len(limbs)-1 {
			fmt.Fprintf(&sb, "%d", limbs[i])
		} else {
			fmt.Fprintf(&sb, "%03d", limbs[i])
		}
	}
	return sb.String()
}

// trim drops trailing zero limbs (most significant zeros).
func trim(limbs []int) []int {
	for len(limbs) > 0 && limbs[len(limbs)-1] == 0 {
		limbs = limbs[:len(limbs)-1]
	}
	return limbs
}

func fromLimbs(limbs []int) *Int {
	return &Int{limbs: list.New(trim(limbs)...)}
}

// Add returns b + c.
func (b *Int) Add(c *Int) *Int {
	p, q := head(b), head(c)
	var out []int
	carry := 0
	for p != nil || q != nil || carry > 0 {
		sum := carry
		if p != nil {
			sum += p.Data
			p = p.Next
		}
		if q != nil {
			sum += q.Data
			q = q.Next
		}
		out = append(out, sum%Base)
		carry = sum / Base
	}
	return fromLimbs(out)
}

// Mul returns b * c (schoolbook over the limb lists).
func (b *Int) Mul(c *Int) *Int {
	if b.IsZero() || c.IsZero() {
		return New(0)
	}
	bl, cl := b.limbs.Slice(), c.limbs.Slice()
	out := make([]int, len(bl)+len(cl))
	for i, x := range bl {
		carry := 0
		for j, y := range cl {
			t := out[i+j] + x*y + carry
			out[i+j] = t % Base
			carry = t / Base
		}
		out[i+len(cl)] += carry
	}
	return fromLimbs(out)
}

// MulSmall returns b * k for a small non-negative factor — the paper's
// "multiply each coefficient by a constant" shape, a single traversal.
func (b *Int) MulSmall(k int) *Int {
	if k < 0 {
		panic("bignum: negative factor")
	}
	if k == 0 || b.IsZero() {
		return New(0)
	}
	var out []int
	carry := 0
	for p := head(b); p != nil; p = p.Next {
		t := p.Data*k + carry
		out = append(out, t%Base)
		carry = t / Base
	}
	for carry > 0 {
		out = append(out, carry%Base)
		carry /= Base
	}
	return fromLimbs(out)
}

// Cmp returns -1, 0, or 1 as b < c, b == c, b > c.
func (b *Int) Cmp(c *Int) int {
	bl, cl := b.Limbs(), c.Limbs()
	if bl != cl {
		if bl < cl {
			return -1
		}
		return 1
	}
	bs, cs := sliceOf(b), sliceOf(c)
	for i := bl - 1; i >= 0; i-- {
		if bs[i] != cs[i] {
			if bs[i] < cs[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Fib returns the n-th Fibonacci number — a workload that grows lists
// node by node, exercising the structure the way the paper motivates.
func Fib(n int) *Int {
	a, b := New(0), New(1)
	for i := 0; i < n; i++ {
		a, b = b, a.Add(b)
	}
	return a
}

// Factorial returns n!.
func Factorial(n int) *Int {
	out := New(1)
	for k := 2; k <= n; k++ {
		out = out.MulSmall(k)
	}
	return out
}

func head(b *Int) *list.Node[int] {
	if b.limbs == nil {
		return nil
	}
	return b.limbs.Head()
}

func sliceOf(b *Int) []int {
	if b.limbs == nil {
		return nil
	}
	return b.limbs.Slice()
}
