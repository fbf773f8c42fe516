package pathmatrix

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestAliasJoin(t *testing.T) {
	cases := []struct{ a, b, want Alias }{
		{NoAlias, NoAlias, NoAlias},
		{DefiniteAlias, DefiniteAlias, DefiniteAlias},
		{NoAlias, DefiniteAlias, PossibleAlias},
		{DefiniteAlias, NoAlias, PossibleAlias},
		{PossibleAlias, NoAlias, PossibleAlias},
		{PossibleAlias, DefiniteAlias, PossibleAlias},
		{PossibleAlias, PossibleAlias, PossibleAlias},
	}
	for _, c := range cases {
		if got := JoinAlias(c.a, c.b); got != c.want {
			t.Errorf("JoinAlias(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDescString(t *testing.T) {
	if got := (Desc{Fields: []string{"next"}, Exact: true, EdgeID: 1}).String(); got != "next" {
		t.Errorf("exact = %q", got)
	}
	if got := PlusDesc("next").String(); got != "next+" {
		t.Errorf("plus = %q", got)
	}
	if got := PlusDesc("b", "a").String(); got != "(a.b)+" {
		t.Errorf("multi = %q", got)
	}
	if got := PlusDesc("a", "a").String(); got != "a+" {
		t.Errorf("dedup = %q", got)
	}
}

func TestEntryAddRemove(t *testing.T) {
	var e Entry
	e.AddDesc(Desc{Fields: []string{"next"}, Exact: true, EdgeID: 7})
	e.AddDesc(PlusDesc("next"))
	e.AddDesc(PlusDesc("next")) // duplicate ignored
	if len(e.Descs) != 2 {
		t.Fatalf("descs = %v", e.Descs)
	}
	if id, ok := e.HasExact("next"); !ok || id != 7 {
		t.Errorf("HasExact = %d,%v", id, ok)
	}
	// Re-adding an exact with a new edge ID replaces the old edge.
	e.AddDesc(Desc{Fields: []string{"next"}, Exact: true, EdgeID: 9})
	if id, _ := e.HasExact("next"); id != 9 {
		t.Errorf("edge replace: id = %d, want 9", id)
	}
	removed := e.remove(func(d Desc) bool { return d.Exact && d.Fields[0] == "next" })
	if !reflect.DeepEqual(removed, []int{9}) {
		t.Errorf("removed = %v", removed)
	}
	if _, ok := e.HasExact("next"); ok {
		t.Error("exact not removed")
	}
	if !e.HasPath() {
		t.Error("plus path should remain")
	}
}

func TestRemovePathsUsing(t *testing.T) {
	var e Entry
	e.AddDesc(Desc{Fields: []string{"left"}, Exact: true, EdgeID: 3})
	e.AddDesc(PlusDesc("left", "right"))
	e.AddDesc(PlusDesc("next"))
	removed := e.RemovePathsUsing("left")
	if !reflect.DeepEqual(removed, []int{3}) {
		t.Errorf("removed = %v", removed)
	}
	if len(e.Descs) != 1 || e.Descs[0].String() != "next+" {
		t.Errorf("descs = %v", e.Descs)
	}
}

func TestEntryString(t *testing.T) {
	var e Entry
	if e.String() != "" {
		t.Errorf("zero entry prints %q", e.String())
	}
	e.Alias = PossibleAlias
	e.AddDesc(PlusDesc("next"))
	if e.String() != "=?,next+" {
		t.Errorf("entry = %q", e.String())
	}
	e2 := Entry{Alias: DefiniteAlias}
	if e2.String() != "=" {
		t.Errorf("def = %q", e2.String())
	}
}

func TestJoinEntrySemantics(t *testing.T) {
	// Same edge identity stays exact.
	a := Entry{Alias: NoAlias}
	a.AddDesc(Desc{Fields: []string{"next"}, Exact: true, EdgeID: 5})
	b := Entry{Alias: NoAlias}
	b.AddDesc(Desc{Fields: []string{"next"}, Exact: true, EdgeID: 5})
	j := JoinEntry(a, b)
	if _, ok := j.HasExact("next"); !ok {
		t.Error("same edge must stay exact across join")
	}
	// Different identities weaken to plus.
	c := Entry{Alias: NoAlias}
	c.AddDesc(Desc{Fields: []string{"next"}, Exact: true, EdgeID: 6})
	j2 := JoinEntry(a, c)
	if _, ok := j2.HasExact("next"); ok {
		t.Error("different edges must weaken")
	}
	if !j2.HasPath() {
		t.Error("weakened join must keep a plus path")
	}
	// Paths survive only when present on both sides.
	d := Entry{Alias: NoAlias}
	j3 := JoinEntry(a, d)
	if j3.HasPath() {
		t.Error("one-sided path must not survive join")
	}
	// Alias weakening.
	if JoinEntry(Entry{Alias: DefiniteAlias}, Entry{}).Alias != PossibleAlias {
		t.Error("definite vs no must weaken to possible")
	}
}

func TestMatrixBasics(t *testing.T) {
	const head, p = 0, 1
	m := liveMatrix("head", "p")
	if got := m.Get(head, head).Alias; got != DefiniteAlias {
		t.Errorf("diagonal = %v", got)
	}
	if !EqualEntry(m.Get(head, p), Entry{}) {
		t.Error("off-diagonal should start zero")
	}
	m.Update(head, p, func(e *Entry) { e.AddDesc(PlusDesc("next")) })
	if !m.Get(head, p).HasPath() {
		t.Error("update lost")
	}
	m.Kill(p)
	if m.Get(head, p).HasPath() {
		t.Error("kill must clear relationships")
	}
	if m.Get(p, p).Alias != DefiniteAlias {
		t.Error("kill must keep self alias")
	}
	if !m.Live(p) {
		t.Error("kill must keep the handle")
	}
	m.Drop(p)
	if m.Live(p) {
		t.Error("handle not dropped")
	}
	if m.Len() != 2 || !EqualEntry(m.Get(p, p), Entry{}) {
		t.Errorf("a dropped handle keeps its index and a zero row: %d handles, p/p %v", m.Len(), m.Get(p, p))
	}
}

// TestDeclareAndDrop: dropping a handle zeroes its row and column and
// leaves every other entry where it was; declaring it again starts it
// afresh, with its self-alias only.
func TestDeclareAndDrop(t *testing.T) {
	const a, b, c = 0, 1, 2
	m := liveMatrix("a", "b", "c")
	m.Update(a, c, func(e *Entry) { e.Alias = PossibleAlias })
	m.Update(c, b, func(e *Entry) { e.AddDesc(PlusDesc("f")) })
	m.Update(b, a, func(e *Entry) { e.AddDesc(PlusDesc("g")) })
	m.Drop(b)
	if got := m.Get(a, c).Alias; got != PossibleAlias {
		t.Errorf("a-c lost after drop: %v", got)
	}
	if !EqualEntry(m.Get(c, b), Entry{}) || !EqualEntry(m.Get(b, a), Entry{}) {
		t.Error("b's row and column should be zero")
	}
	if got := m.String(); strings.Contains(got, "b") {
		t.Errorf("a dropped handle prints:\n%s", got)
	}
	m.Declare(b)
	if m.Get(b, b).Alias != DefiniteAlias || !EqualEntry(m.Get(c, b), Entry{}) {
		t.Error("a declared handle has its self-alias and nothing else")
	}
	m.Update(b, a, func(e *Entry) { e.Alias = DefiniteAlias })
	m.Declare(b)
	if !EqualEntry(m.Get(b, a), Entry{}) {
		t.Error("declaring a live handle drops its relationships")
	}
}

func TestSetDeadHandlePanics(t *testing.T) {
	m := New([]string{"a", "b"})
	m.Declare(0)
	defer func() {
		if recover() == nil {
			t.Error("Set on a dead handle must panic")
		}
	}()
	m.Set(0, 1, Entry{Alias: PossibleAlias})
}

func TestCopyRelationships(t *testing.T) {
	const head, p, q = 0, 1, 2
	m := liveMatrix("head", "p", "q")
	m.Update(head, q, func(e *Entry) { e.AddDesc(PlusDesc("next")) })
	m.Kill(p)
	m.CopyRelationships(p, head)
	if m.Get(p, q).String() != "next+" {
		t.Errorf("p-q = %q", m.Get(p, q))
	}
	if m.Get(p, head).Alias != DefiniteAlias || m.Get(head, p).Alias != DefiniteAlias {
		t.Error("copy must set mutual definite alias")
	}
}

func TestAliases(t *testing.T) {
	const a, b, c = 0, 1, 2
	m := liveMatrix("a", "b", "c")
	m.Update(a, b, func(e *Entry) { e.Alias = DefiniteAlias })
	m.Update(a, c, func(e *Entry) { e.Alias = PossibleAlias })
	if got := m.Aliases(a, false); !reflect.DeepEqual(got, []int{b}) {
		t.Errorf("definite aliases = %v", got)
	}
	if got := m.Aliases(a, true); !reflect.DeepEqual(got, []int{b, c}) {
		t.Errorf("all aliases = %v", got)
	}
}

func TestMatrixJoinHandleUnion(t *testing.T) {
	const p, q = 0, 1
	a := liveMatrix("p", "q")
	a.Update(p, q, func(e *Entry) { e.Alias = DefiniteAlias })
	b := a.Clone()
	b.Drop(q)
	j := Join(a, b)
	if !j.Live(q) {
		t.Fatal("join must union the live sets")
	}
	// q was live only in a, so its entries carry over unweakened.
	if j.Get(p, q).Alias != DefiniteAlias {
		t.Errorf("p-q = %v", j.Get(p, q))
	}
	// Shared entries weaken.
	j2 := Join(a, liveMatrix("p", "q"))
	if j2.Get(p, q).Alias != PossibleAlias {
		t.Errorf("shared weaken: %v", j2.Get(p, q))
	}
}

func TestEqualAndClone(t *testing.T) {
	const x, y = 0, 1
	a := liveMatrix("x", "y")
	a.Update(x, y, func(e *Entry) { e.AddDesc(Desc{Fields: []string{"f"}, Exact: true, EdgeID: 1}) })
	b := a.Clone()
	if !Equal(a, b) {
		t.Error("clone must equal original")
	}
	b.Update(x, y, func(e *Entry) { e.Alias = PossibleAlias })
	if Equal(a, b) {
		t.Error("mutated clone must differ")
	}
	c := a.Clone()
	c.Drop(y)
	if Equal(a, c) {
		t.Error("different live sets must differ")
	}
}

func TestStringFormat(t *testing.T) {
	const head, p, pPrime = 0, 1, 2
	m := liveMatrix("head", "p", "p'")
	m.Update(head, p, func(e *Entry) { e.AddDesc(PlusDesc("next")) })
	m.Update(pPrime, p, func(e *Entry) { e.AddDesc(Desc{Fields: []string{"next"}, Exact: true, EdgeID: 1}) })
	s := m.String()
	for _, want := range []string{"head", "p'", "next+", "next", "="} {
		if !strings.Contains(s, want) {
			t.Errorf("matrix string missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("expected header + 3 rows, got %d lines:\n%s", len(lines), s)
	}
}

// ---------------------------------------------------------------------------
// Property tests

func randomEntry(r *rand.Rand) Entry {
	e := Entry{Alias: Alias(r.Intn(3))}
	fields := []string{"next", "left", "right", "subtrees"}
	for i, n := 0, r.Intn(3); i < n; i++ {
		f := fields[r.Intn(len(fields))]
		if r.Intn(2) == 0 {
			e.AddDesc(Desc{Fields: []string{f}, Exact: true, EdgeID: r.Intn(4) + 1})
		} else {
			e.AddDesc(PlusDesc(f))
		}
	}
	return e
}

// entryGen makes Entry usable with testing/quick.
type entryGen struct{ E Entry }

func (entryGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(entryGen{E: randomEntry(r)})
}

func TestQuickJoinCommutative(t *testing.T) {
	f := func(a, b entryGen) bool {
		return EqualEntry(JoinEntry(a.E, b.E), JoinEntry(b.E, a.E))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinIdempotent(t *testing.T) {
	f := func(a entryGen) bool {
		return EqualEntry(JoinEntry(a.E, a.E), a.E)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinMonotoneAliases(t *testing.T) {
	// The alias component of a join is never stronger (more definite)
	// than PossibleAlias when the inputs disagree, and a NoAlias result
	// implies both inputs were NoAlias: the non-alias guarantee is never
	// manufactured.
	f := func(a, b entryGen) bool {
		j := JoinEntry(a.E, b.E)
		if j.Alias == NoAlias && (a.E.Alias != NoAlias || b.E.Alias != NoAlias) {
			return false
		}
		if j.Alias == DefiniteAlias && (a.E.Alias != DefiniteAlias || b.E.Alias != DefiniteAlias) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinPathsShrink(t *testing.T) {
	// Every descriptor in the join must be justified on both sides: by a
	// descriptor over the same fields, or — for star descriptors — by a
	// definite alias (a zero-length path). Definite paths are never
	// invented.
	f := func(a, b entryGen) bool {
		j := JoinEntry(a.E, b.E)
		justified := func(e Entry, d Desc) bool {
			if d.Star && e.Alias == DefiniteAlias {
				return true
			}
			for _, x := range e.Descs {
				if sameFields(x, d) {
					return true
				}
			}
			return false
		}
		for _, d := range j.Descs {
			if !justified(a.E, d) || !justified(b.E, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinConvergence(t *testing.T) {
	// Repeated joining against a fixed sequence of entries converges:
	// join(acc, x) applied twice with the same x is stable. This is the
	// property the loop fixed point relies on.
	f := func(a, b entryGen) bool {
		once := JoinEntry(a.E, b.E)
		twice := JoinEntry(once, b.E)
		thrice := JoinEntry(twice, b.E)
		return EqualEntry(twice, thrice)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMatrixJoinCommutative(t *testing.T) {
	f := func(a, b, c, d entryGen) bool {
		const p, q = 0, 1
		m1 := liveMatrix("p", "q")
		m1.Set(p, q, a.E)
		m1.Set(q, p, b.E)
		m2 := liveMatrix("p", "q")
		m2.Set(p, q, c.E)
		m2.Set(q, p, d.E)
		return Equal(Join(m1, m2), Join(m2, m1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
