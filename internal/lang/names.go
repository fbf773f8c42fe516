package lang

import (
	"hash/maphash"
	"slices"
	"sync/atomic"
)

// ID is an identifier's index in its program's Names table. The zero
// ID is the empty name: no identifier the lexer or a pass produces has
// it, so a node carrying it was built without a table.
type ID int32

// Names is a program's identifier table: the keywords, at ids 1..K in
// token order, then every other identifier the program mentions, each
// once, in the order first met. Ids index it directly, so a stage that
// holds ids never hashes a name again; text comes back only to print.
//
// The table only grows: the lexer fills it, and after parsing only
// Program.Intern appends — Normalize and transform, for the names they
// create. A
// program and its Clone share one table until either interns a name the
// table lacks; that one copies it first, so a clone never writes the
// table its source — possibly cached and read from several goroutines —
// is read through.
type Names struct {
	text []string
	// slots is an open-addressed hash table of the ids after 0, a power
	// of two long and at most half full (0 marks an empty slot).
	slots []ID
	// shared marks a table a clone also reads: Intern copies it first.
	shared atomic.Bool
}

var hashSeed = maphash.MakeSeed()

// keywordNames is the table every program starts from.
var keywordNames = func() *Names {
	n := &Names{text: []string{""}, slots: make([]ID, 64)}
	for t := keywords + 1; t <= BOOLKW; t++ {
		n.intern(t.String())
	}
	return n
}()

func (n *Names) clone() *Names {
	return &Names{text: slices.Clone(n.text), slots: slices.Clone(n.slots)}
}

// slot returns where s is, or would go, in the table, and its id (0 if
// absent).
func (n *Names) slot(s string) (int, ID) {
	mask := len(n.slots) - 1
	i := int(maphash.String(hashSeed, s)) & mask
	for n.slots[i] != 0 && n.text[n.slots[i]] != s {
		i = (i + 1) & mask
	}
	return i, n.slots[i]
}

// intern returns s's id, adding s if it is absent.
func (n *Names) intern(s string) ID {
	i, id := n.slot(s)
	if id != 0 {
		return id
	}
	if 2*len(n.text) >= len(n.slots) {
		old := n.slots
		n.slots = make([]ID, 2*len(old))
		for _, id := range old {
			if id != 0 {
				j, _ := n.slot(n.text[id])
				n.slots[j] = id
			}
		}
		i, _ = n.slot(s)
	}
	n.slots[i] = ID(len(n.text))
	n.text = append(n.text, s)
	return n.slots[i]
}

// Text returns the identifier id stands for.
func (n *Names) Text(id ID) string { return n.text[id] }

// Lookup returns s's id, if s is in the table.
func (n *Names) Lookup(s string) (ID, bool) {
	_, id := n.slot(s)
	return id, id != 0
}

// Len is the number of ids the table has given out, the empty name
// included: every id is below it.
func (n *Names) Len() int { return len(n.text) }

// Names returns the program's identifier table, for reading.
func (p *Program) Names() *Names { return p.names }

// Intern returns s's id in p's table, appending s if it is new, to a
// copy if p shares the table with a clone (or its source).
func (p *Program) Intern(s string) ID {
	if id, ok := p.names.Lookup(s); ok {
		return id
	}
	if p.names.shared.Load() {
		p.names = p.names.clone()
	}
	return p.names.intern(s)
}
