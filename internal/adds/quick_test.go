package adds_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	. "repro/internal/adds"
)

// randomDecl builds a structurally valid random declaration.
func randomDecl(r *rand.Rand) *Decl {
	nDims := r.Intn(3) + 1
	d := &Decl{Name: fmt.Sprintf("T%d", r.Intn(1000))}
	for i := 0; i < nDims; i++ {
		d.Dims = append(d.Dims, fmt.Sprintf("d%d", i))
	}
	// Random independence pairs among distinct dims.
	for i := 0; i < nDims; i++ {
		for j := i + 1; j < nDims; j++ {
			if r.Intn(3) == 0 {
				d.Indep = append(d.Indep, [2]string{d.Dims[i], d.Dims[j]})
			}
		}
	}
	nData := r.Intn(3)
	for i := 0; i < nData; i++ {
		d.Data = append(d.Data, DataField{
			Name: fmt.Sprintf("v%d", i),
			Type: []string{"int", "real", "bool"}[r.Intn(3)],
		})
	}
	nPtr := r.Intn(4) + 1
	for i := 0; i < nPtr; i++ {
		dir := Direction(r.Intn(3))
		f := PointerField{
			Name:  fmt.Sprintf("f%d", i),
			Type:  d.Name,
			Count: 1 + r.Intn(4),
			Dim:   d.Dims[r.Intn(nDims)],
			Dir:   dir,
		}
		if dir == Unknown {
			// The surface syntax has no way to put an unannotated
			// field on a named dimension; such fields always live on
			// the default dimension.
			f.Dim = DefaultDimension
			if !d.HasDim(DefaultDimension) {
				d.Dims = append(d.Dims, DefaultDimension)
			}
		} else if r.Intn(2) == 0 {
			f.Unique = true
		}
		d.Pointers = append(d.Pointers, f)
	}
	return d
}

type declGen struct{ D *Decl }

func (declGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(declGen{D: randomDecl(r)})
}

// TestQuickDeclRoundTrip: String() output re-parses to an equivalent
// declaration for arbitrary valid declarations.
func TestQuickDeclRoundTrip(t *testing.T) {
	f := func(g declGen) bool {
		if err := g.D.Validate(); err != nil {
			return false
		}
		text := g.D.String()
		d2, err := parseDecl(text)
		if err != nil {
			t.Logf("re-parse failed for:\n%s\n%v", text, err)
			return false
		}
		return d2.String() == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickAcyclicConsistency: Acyclic over a single field agrees with
// the field's declared direction.
func TestQuickAcyclicConsistency(t *testing.T) {
	f := func(g declGen) bool {
		for _, pf := range g.D.Pointers {
			if g.D.Acyclic(pf.Name) != (pf.Dir != Unknown) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickIndependenceSymmetric: Independent is symmetric and
// irreflexive for arbitrary declarations.
func TestQuickIndependenceSymmetric(t *testing.T) {
	f := func(g declGen) bool {
		for _, a := range g.D.Dims {
			if g.D.Independent(a, a) {
				return false
			}
			for _, b := range g.D.Dims {
				if g.D.Independent(a, b) != g.D.Independent(b, a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickUniverseRoundTrip: multiple declarations survive a
// parse-print-parse cycle through a universe.
func TestQuickUniverseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(3) + 1
		src := ""
		seen := map[string]bool{}
		for i := 0; i < n; i++ {
			d := randomDecl(r)
			d.Name = fmt.Sprintf("U%d", i)
			for j := range d.Pointers {
				d.Pointers[j].Type = d.Name
			}
			if seen[d.Name] {
				continue
			}
			seen[d.Name] = true
			src += d.String() + "\n"
		}
		u, err := parse(src)
		if err != nil {
			t.Logf("parse failed:\n%s\n%v", src, err)
			return false
		}
		return u.Len() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
