package pathmatrix

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// model is the reference the dense Matrix is fuzzed against: handles in
// insertion order and a map from handle pair to entry, absent meaning
// zero. It shares no storage with anything — every entry going in or
// out is deep-copied — so a Matrix that lets two owners see one slice
// diverges from it.
type model struct {
	handles []string
	cells   map[[2]string]Entry
}

func newModel() *model { return &model{cells: map[[2]string]Entry{}} }

func deepEntry(e Entry) Entry {
	out := Entry{Alias: e.Alias}
	for _, d := range e.Descs {
		d.Fields = append([]string(nil), d.Fields...)
		out.Descs = append(out.Descs, d)
	}
	return out
}

func (m *model) has(h string) bool {
	for _, x := range m.handles {
		if x == h {
			return true
		}
	}
	return false
}

func (m *model) get(r, s string) Entry { return deepEntry(m.cells[[2]string{r, s}]) }

func (m *model) set(r, s string, e Entry) {
	if e.IsZero() {
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

func (m *model) addHandle(h string) {
	if m.has(h) {
		return
	}
	m.handles = append(m.handles, h)
	m.set(h, h, Entry{Alias: DefiniteAlias})
}

func (m *model) removeHandle(h string) {
	if !m.has(h) {
		return
	}
	m.dropPairs(h)
	var keep []string
	for _, x := range m.handles {
		if x != h {
			keep = append(keep, x)
		}
	}
	m.handles = keep
}

func (m *model) kill(h string) {
	if !m.has(h) {
		return
	}
	m.dropPairs(h)
	m.set(h, h, Entry{Alias: DefiniteAlias})
}

func (m *model) copyRelationships(dst, src string) {
	for _, h := range m.handles {
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
	out := newModel()
	out.handles = append([]string(nil), m.handles...)
	for k, e := range m.cells {
		out.cells[k] = deepEntry(e)
	}
	return out
}

func joinModel(a, b *model) *model {
	out := newModel()
	for _, h := range a.handles {
		out.addHandle(h)
	}
	for _, h := range b.handles {
		out.addHandle(h)
	}
	for _, r := range out.handles {
		for _, s := range out.handles {
			inA := a.has(r) && a.has(s)
			inB := b.has(r) && b.has(s)
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
	if len(a.handles) != len(b.handles) {
		return false
	}
	for _, h := range a.handles {
		if !b.has(h) {
			return false
		}
	}
	for _, r := range a.handles {
		for _, s := range a.handles {
			if !EqualEntry(a.get(r, s), b.get(r, s)) {
				return false
			}
		}
	}
	return true
}

func (m *model) aliases(r string, includePossible bool) []string {
	var out []string
	for _, h := range m.handles {
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
	width := func(col int) int {
		w := 0
		if col > 0 {
			w = len(m.handles[col-1])
		}
		for _, r := range m.handles {
			cell := r
			if col > 0 {
				cell = m.get(r, m.handles[col-1]).String()
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
		for j, s := range m.handles {
			c := cell(s)
			b.WriteString(" | " + c + strings.Repeat(" ", width(j+1)-len(c)))
		}
		b.WriteString("\n")
	}
	row("", func(s string) string { return s })
	for _, r := range m.handles {
		r := r
		row(r, func(s string) string { return m.get(r, s).String() })
	}
	return b.String()
}

// agree fails the test unless the matrix and the model answer every
// query the same way.
func agree(t *testing.T, step string, m *Matrix, ref *model) {
	t.Helper()
	if got := m.Handles(); !reflect.DeepEqual(append([]string(nil), got...), append([]string(nil), ref.handles...)) {
		t.Fatalf("%s: handles %v, model %v", step, got, ref.handles)
	}
	names := append([]string{"<untracked>"}, ref.handles...)
	for _, r := range names {
		if m.HasHandle(r) != ref.has(r) {
			t.Fatalf("%s: HasHandle(%s) = %v", step, r, m.HasHandle(r))
		}
		for _, s := range names {
			got, want := m.Get(r, s), ref.get(r, s)
			if !EqualEntry(got, want) || got.String() != want.String() {
				t.Fatalf("%s: Get(%s,%s) = %q, model %q", step, r, s, got, want)
			}
		}
		for _, poss := range []bool{false, true} {
			if got, want := m.Aliases(r, poss), ref.aliases(r, poss); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Aliases(%s,%v) = %v, model %v", step, r, poss, got, want)
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
			return StarDesc(f, g)
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
			return func(e *Entry) { e.RemoveExact(f) }
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

	ms := [2]*Matrix{New(), New()}
	refs := [2]*model{newModel(), newModel()}
	for step := 0; pos < len(data) && step < 400; step++ {
		x := next(2)
		m, ref := ms[x], refs[x]
		h, g := fuzzHandles[next(5)], fuzzHandles[next(5)]
		op := next(9)
		switch op {
		case 0, 1:
			m.AddHandle(h)
			ref.addHandle(h)
		case 2:
			m.RemoveHandle(h)
			ref.removeHandle(h)
		case 3:
			m.Kill(h)
			ref.kill(h)
		case 4:
			if ref.has(h) && ref.has(g) {
				e := entry()
				m.Set(h, g, e)
				ref.set(h, g, e)
			}
		case 5:
			if ref.has(h) && ref.has(g) {
				fn := mutator()
				m.Update(h, g, fn)
				e := ref.get(h, g)
				fn(&e)
				ref.set(h, g, e)
			}
		case 6:
			if ref.has(h) && ref.has(g) {
				m.CopyRelationships(h, g)
				ref.copyRelationships(h, g)
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

// richMatrix builds a matrix whose cells carry every descriptor kind.
func richMatrix() *Matrix {
	m := New("head", "p", "p'", "q")
	m.Set("head", "p", Entry{Alias: PossibleAlias, Descs: []Desc{ExactDesc("next", 1), PlusDesc("next")}})
	m.Set("p'", "p", Entry{Descs: []Desc{ExactIndexedDesc("down", "i", 2), StarDesc("down", "left")}})
	m.Set("q", "p", Entry{Alias: DefiniteAlias})
	m.Set("p", "q", Entry{Alias: DefiniteAlias, Descs: []Desc{PlusDesc("left", "right")}})
	return m
}

// contents deep-copies everything observable about a matrix.
func contents(m *Matrix) map[string]interface{} {
	out := map[string]interface{}{"handles": append([]string(nil), m.Handles()...), "text": m.String()}
	for _, r := range m.Handles() {
		for _, s := range m.Handles() {
			out[r+"→"+s] = deepEntry(m.Get(r, s))
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
				_ = Join(m, m).Aliases("p", true)
			}
		}()
	}

	entryMutators := []func(*Entry){
		func(e *Entry) { e.AddDesc(ExactDesc("next", 9)) },
		func(e *Entry) { e.AddDesc(PlusDesc("down")) },
		func(e *Entry) { e.AddDesc(StarDesc("next")) },
		func(e *Entry) { e.RemoveExact("next") },
		func(e *Entry) { e.RemoveExact("down") },
		func(e *Entry) { e.RemovePathsUsing("left") },
		func(e *Entry) { e.RemoveExactsIndexedBy("i") },
		func(e *Entry) { e.RemoveNonExactUsing("next") },
		func(e *Entry) { e.Alias = NoAlias },
	}
	for round := 0; round < 50; round++ {
		for _, fn := range entryMutators {
			c := m.Clone()
			for _, r := range c.Handles() {
				for _, s := range c.Handles() {
					e := c.Get(r, s) // an entry read out of the clone
					fn(&e)
					c.Update(r, s, fn)
				}
			}
			c.UpdateAll(func(_, _ string, e *Entry) { fn(e) })
		}
		c := m.Clone()
		c.Set("head", "p", Entry{})
		c.Kill("p")
		c.CopyRelationships("p", "head")
		c.AddHandle("fresh")
		c.RemoveHandle("q")
		j := Join(m, c)
		j.Kill("head")
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
