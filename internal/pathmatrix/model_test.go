package pathmatrix

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// model is the reference the dense Matrix is fuzzed against: string
// handles, each at a fixed index (its place in names), a live set, and
// a map from handle pair to entry, absent meaning zero. It shares no
// storage with anything — every entry going in or out is deep-copied —
// so a Matrix that lets two owners see one slice diverges from it.
type model struct {
	names []string
	live  map[string]bool
	cells map[[2]string]Entry
}

func newModel(names []string) *model {
	return &model{names: names, live: map[string]bool{}, cells: map[[2]string]Entry{}}
}

func deepEntry(e Entry) Entry {
	out := Entry{Alias: e.Alias}
	for _, d := range e.Descs {
		d.Fields = append([]string(nil), d.Fields...)
		out.Descs = append(out.Descs, d)
	}
	return out
}

// handles lists the live handles in index order.
func (m *model) handles() []string {
	var out []string
	for _, h := range m.names {
		if m.live[h] {
			out = append(out, h)
		}
	}
	return out
}

func (m *model) get(r, s string) Entry { return deepEntry(m.cells[[2]string{r, s}]) }

func (m *model) set(r, s string, e Entry) {
	if EqualEntry(e, Entry{}) {
		delete(m.cells, [2]string{r, s})
		return
	}
	m.cells[[2]string{r, s}] = deepEntry(e)
}

func (m *model) dropPairs(h string) {
	for k := range m.cells {
		if k[0] == h || k[1] == h {
			delete(m.cells, k)
		}
	}
}

func (m *model) declare(h string) {
	m.live[h] = true
	m.kill(h)
}

func (m *model) drop(h string) {
	m.dropPairs(h)
	delete(m.live, h)
}

func (m *model) kill(h string) {
	if !m.live[h] {
		return
	}
	m.dropPairs(h)
	m.set(h, h, Entry{Alias: DefiniteAlias})
}

func (m *model) copyRelationships(dst, src string) {
	for _, h := range m.handles() {
		if h == dst || h == src {
			continue
		}
		m.set(dst, h, m.get(src, h))
		m.set(h, dst, m.get(h, src))
	}
	m.set(dst, src, Entry{Alias: DefiniteAlias})
	m.set(src, dst, Entry{Alias: DefiniteAlias})
	m.set(dst, dst, Entry{Alias: DefiniteAlias})
}

func (m *model) clone() *model {
	out := newModel(m.names)
	for h := range m.live {
		out.live[h] = true
	}
	for k, e := range m.cells {
		out.cells[k] = deepEntry(e)
	}
	return out
}

func joinModel(a, b *model) *model {
	out := newModel(a.names)
	for _, h := range a.names {
		out.live[h] = a.live[h] || b.live[h]
		if !out.live[h] {
			delete(out.live, h)
		}
	}
	for _, r := range out.handles() {
		for _, s := range out.handles() {
			inA := a.live[r] && a.live[s]
			inB := b.live[r] && b.live[s]
			var e Entry
			switch {
			case inA && inB:
				e = JoinEntry(a.get(r, s), b.get(r, s))
			case inA:
				e = a.get(r, s)
			case inB:
				e = b.get(r, s)
			}
			out.set(r, s, e)
		}
	}
	return out
}

func equalModel(a, b *model) bool {
	if !reflect.DeepEqual(a.handles(), b.handles()) {
		return false
	}
	for _, r := range a.handles() {
		for _, s := range a.handles() {
			if !EqualEntry(a.get(r, s), b.get(r, s)) {
				return false
			}
		}
	}
	return true
}

func (m *model) aliases(r string, includePossible bool) []string {
	var out []string
	for _, h := range m.handles() {
		if h == r {
			continue
		}
		if a := m.get(r, h).Alias; a == DefiniteAlias || (includePossible && a == PossibleAlias) {
			out = append(out, h)
		}
	}
	return out
}

// String renders the model the way the paper prints matrices, written
// independently of Matrix.String.
func (m *model) String() string {
	hs := m.handles()
	width := func(col int) int {
		w := 0
		if col > 0 {
			w = len(hs[col-1])
		}
		for _, r := range hs {
			cell := r
			if col > 0 {
				cell = m.get(r, hs[col-1]).String()
			}
			if len(cell) > w {
				w = len(cell)
			}
		}
		return w
	}
	var b strings.Builder
	row := func(first string, cell func(s string) string) {
		b.WriteString(first + strings.Repeat(" ", width(0)-len(first)))
		for j, s := range hs {
			c := cell(s)
			b.WriteString(" | " + c + strings.Repeat(" ", width(j+1)-len(c)))
		}
		b.WriteString("\n")
	}
	row("", func(s string) string { return s })
	for _, r := range hs {
		r := r
		row(r, func(s string) string { return m.get(r, s).String() })
	}
	return b.String()
}

// names renders handles as the matrix names them.
func names(m *Matrix, hs []int) []string {
	var out []string
	for _, h := range hs {
		out = append(out, m.Name(h))
	}
	return out
}

// agree fails the test unless the matrix and the model answer every
// query the same way.
func agree(t *testing.T, step string, m *Matrix, ref *model) {
	t.Helper()
	for r, rn := range ref.names {
		if m.Name(r) != rn || m.Live(r) != ref.live[rn] {
			t.Fatalf("%s: handle %d is %q live %v, model %q live %v", step, r, m.Name(r), m.Live(r), rn, ref.live[rn])
		}
		for s, sn := range ref.names {
			got, want := m.Get(r, s), ref.get(rn, sn)
			if !EqualEntry(got, want) || got.String() != want.String() {
				t.Fatalf("%s: Get(%s,%s) = %q, model %q", step, rn, sn, got, want)
			}
		}
		for _, poss := range []bool{false, true} {
			if got, want := names(m, m.Aliases(r, poss)), ref.aliases(rn, poss); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Aliases(%s,%v) = %v, model %v", step, rn, poss, got, want)
			}
		}
	}
	if got, want := m.String(), ref.String(); got != want {
		t.Fatalf("%s: String\n%s\nmodel\n%s", step, got, want)
	}
}

var (
	fuzzHandles = []string{"a", "b", "head", "p", "p'"}
	fuzzFields  = []string{"next", "left", "right", "down"}
	fuzzIndexes = []string{"", "i", "#1", "?"}
)

// fuzzProgram interprets data as a sequence of operations on two
// matrices (so Clone, Join and Equal have something to work on), each
// mirrored on a model, and checks agreement after every step.
func fuzzProgram(t *testing.T, data []byte) {
	pos := 0
	next := func(n int) int {
		if pos >= len(data) {
			return 0
		}
		b := int(data[pos])
		pos++
		return b % n
	}
	desc := func() Desc {
		f, g := fuzzFields[next(4)], fuzzFields[next(4)]
		switch next(4) {
		case 0:
			return ExactIndexedDesc(f, fuzzIndexes[next(4)], next(6)+1)
		case 1:
			return PlusDesc(f)
		case 2:
			return PlusDesc(f, g)
		default:
			d := PlusDesc(f, g)
			d.Star = true
			return d
		}
	}
	entry := func() Entry {
		e := Entry{Alias: Alias(next(3))}
		for n := next(3); n > 0; n-- {
			e.AddDesc(desc())
		}
		return e
	}
	mutator := func() func(*Entry) {
		f, d, idx, a := fuzzFields[next(4)], desc(), fuzzIndexes[next(4)], Alias(next(3))
		switch next(6) {
		case 0:
			return func(e *Entry) { e.AddDesc(d) }
		case 1:
			return func(e *Entry) { e.remove(func(d Desc) bool { return d.Exact && d.Fields[0] == f }) }
		case 2:
			return func(e *Entry) { e.RemovePathsUsing(f) }
		case 3:
			return func(e *Entry) { e.RemoveExactsIndexedBy(idx) }
		case 4:
			return func(e *Entry) { e.RemoveNonExactUsing(f) }
		default:
			return func(e *Entry) { e.Alias = a }
		}
	}

	ms := [2]*Matrix{New(fuzzHandles), New(fuzzHandles)}
	refs := [2]*model{newModel(fuzzHandles), newModel(fuzzHandles)}
	for step := 0; pos < len(data) && step < 400; step++ {
		x := next(2)
		m, ref := ms[x], refs[x]
		h, g := next(len(fuzzHandles)), next(len(fuzzHandles))
		hn, gn := fuzzHandles[h], fuzzHandles[g]
		op := next(9)
		switch op {
		case 0, 1:
			m.Declare(h)
			ref.declare(hn)
		case 2:
			m.Drop(h)
			ref.drop(hn)
		case 3:
			m.Kill(h)
			ref.kill(hn)
		case 4:
			if ref.live[hn] && ref.live[gn] {
				e := entry()
				m.Set(h, g, e)
				ref.set(hn, gn, e)
			}
		case 5:
			if ref.live[hn] && ref.live[gn] {
				fn := mutator()
				m.Update(h, g, fn)
				e := ref.get(hn, gn)
				fn(&e)
				ref.set(hn, gn, e)
			}
		case 6:
			if ref.live[hn] && ref.live[gn] {
				m.CopyRelationships(h, g)
				ref.copyRelationships(hn, gn)
			}
		case 7:
			ms[x], refs[x] = ms[1-x].Clone(), refs[1-x].clone()
		case 8:
			ms[x], refs[x] = Join(ms[0], ms[1]), joinModel(refs[0], refs[1])
		}
		for k := range ms {
			agree(t, "step "+string(rune('0'+op)), ms[k], refs[k])
		}
		if got, want := Equal(ms[0], ms[1]), equalModel(refs[0], refs[1]); got != want {
			t.Fatalf("Equal = %v, model %v\n%s\n%s", got, want, ms[0], ms[1])
		}
	}
}

// FuzzMatrixVsModel drives random operation sequences through the dense
// Matrix and the map model side by side.
func FuzzMatrixVsModel(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		seed := make([]byte, 64+rng.Intn(512))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(fuzzProgram)
}

// liveMatrix returns a matrix over names with every handle live.
func liveMatrix(names ...string) *Matrix {
	m := New(names)
	for h := range names {
		m.Declare(h)
	}
	return m
}

// The handles of richMatrix, and fresh, which is not live in it.
const (
	rHead = iota
	rP
	rPPrime
	rQ
	rFresh
)

// richMatrix builds a matrix whose cells carry every descriptor kind.
func richMatrix() *Matrix {
	m := liveMatrix("head", "p", "p'", "q", "fresh")
	m.Drop(rFresh)
	m.Set(rHead, rP, Entry{Alias: PossibleAlias, Descs: []Desc{Desc{Fields: []string{"next"}, Exact: true, EdgeID: 1}, PlusDesc("next")}})
	m.Set(rPPrime, rP, Entry{Descs: []Desc{ExactIndexedDesc("down", "i", 2), {Fields: []string{"down", "left"}, Star: true}}})
	m.Set(rQ, rP, Entry{Alias: DefiniteAlias})
	m.Set(rP, rQ, Entry{Alias: DefiniteAlias, Descs: []Desc{PlusDesc("left", "right")}})
	return m
}

// contents deep-copies everything observable about a matrix.
func contents(m *Matrix) map[string]interface{} {
	out := map[string]interface{}{"text": m.String()}
	for r := 0; r < m.Len(); r++ {
		out[m.Name(r)] = m.Live(r)
		for s := 0; s < m.Len(); s++ {
			out[m.Name(r)+"→"+m.Name(s)] = deepEntry(m.Get(r, s))
		}
	}
	return out
}

// TestCloneIsolation: whatever is done to a clone — through the matrix
// or through entries read out of it — the source stays deeply equal to
// a copy taken beforehand, while other goroutines keep reading it (the
// planner's parallel dependence tests read shared snapshots; run under
// -race, a write into shared storage is reported as a race).
func TestCloneIsolation(t *testing.T) {
	m := richMatrix()
	want := contents(m)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = contents(m)
				_ = Equal(m, m.Clone())
				_ = Join(m, m).Aliases(rP, true)
			}
		}()
	}

	entryMutators := []func(*Entry){
		func(e *Entry) { e.AddDesc(Desc{Fields: []string{"next"}, Exact: true, EdgeID: 9}) },
		func(e *Entry) { e.AddDesc(PlusDesc("down")) },
		func(e *Entry) { e.AddDesc(Desc{Fields: []string{"next"}, Star: true}) },
		func(e *Entry) { e.remove(func(d Desc) bool { return d.Exact && d.Fields[0] == "next" }) },
		func(e *Entry) { e.remove(func(d Desc) bool { return d.Exact && d.Fields[0] == "down" }) },
		func(e *Entry) { e.RemovePathsUsing("left") },
		func(e *Entry) { e.RemoveExactsIndexedBy("i") },
		func(e *Entry) { e.RemoveNonExactUsing("next") },
		func(e *Entry) { e.Alias = NoAlias },
	}
	for round := 0; round < 50; round++ {
		for _, fn := range entryMutators {
			c := m.Clone()
			for r := 0; r < c.Len(); r++ {
				for s := 0; s < c.Len(); s++ {
					e := c.Get(r, s) // an entry read out of the clone
					fn(&e)
					if c.Live(r) && c.Live(s) {
						c.Update(r, s, fn)
					}
				}
			}
			c.UpdateAll(func(_, _ int, e *Entry) { fn(e) })
		}
		c := m.Clone()
		c.Set(rHead, rP, Entry{})
		c.Kill(rP)
		c.CopyRelationships(rP, rHead)
		c.Declare(rFresh)
		c.Drop(rQ)
		j := Join(m, c)
		j.Kill(rHead)
		j.Drop(rP)
	}
	close(stop)
	readers.Wait()
	if got := contents(m); !reflect.DeepEqual(got, want) {
		t.Errorf("source changed under its clones:\n got %v\nwant %v", got, want)
	}
}

// TestCloneCost pins the point of the dense layout: cloning a matrix is
// the struct and the cell slice, whatever the cells hold.
func TestCloneCost(t *testing.T) {
	m := richMatrix()
	var sink *Matrix
	if allocs := testing.AllocsPerRun(100, func() { sink = m.Clone() }); allocs > 2 {
		t.Errorf("Matrix.Clone allocates %.0f objects, want at most 2", allocs)
	}
	_ = sink
}
