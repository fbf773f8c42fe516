package lang

import (
	"fmt"
	"sync"
	"testing"
)

// TestKeywordIDs: the lexer tells a keyword from an identifier by its id
// alone, so every keyword must sit at its token's place in the table.
func TestKeywordIDs(t *testing.T) {
	for tok := keywords + 1; tok <= BOOLKW; tok++ {
		id, ok := keywordNames.Lookup(tok.String())
		if !ok || keywords+Token(id) != tok {
			t.Errorf("keyword %s has id %d (%t)", tok, id, ok)
		}
	}
	lex, err := LexAll("while whilst _t1 while")
	if err != nil {
		t.Fatal(err)
	}
	if lex[0].Tok != WHILE || lex[1].Tok != IDENT || lex[2].Tok != IDENT || lex[3].Tok != WHILE || lex[1].ID == lex[2].ID {
		t.Errorf("lexemes %v", lex)
	}
}

// TestCloneInternIsolation: clones of one program, taken and extended
// from several goroutines at once while others read the source's table,
// each intern into a table of their own; the source's never grows.
// Under -race a write to the shared table is reported.
func TestCloneInternIsolation(t *testing.T) {
	p := MustParse(polySrc)
	names := p.Names()
	n := names.Len()
	head, _ := names.Lookup("head")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := p.Clone()
			if id := q.Intern("head"); id != head {
				t.Errorf("clone %d: head is %d, source says %d", g, id, head)
			}
			fresh := fmt.Sprintf("_fresh%d", g)
			id := q.Intern(fresh)
			if q.Names().Text(id) != fresh || q.Names() == names {
				t.Errorf("clone %d: %s interned as %d into the source's table", g, fresh, id)
			}
			if got := names.Text(head); got != "head" {
				t.Errorf("source's head reads %q", got)
			}
		}(g)
	}
	wg.Wait()
	if names.Len() != n || p.Names() != names {
		t.Errorf("source table grew from %d to %d names", n, names.Len())
	}
	if _, ok := names.Lookup("_fresh0"); ok {
		t.Error("a clone's name reached the source's table")
	}
}
