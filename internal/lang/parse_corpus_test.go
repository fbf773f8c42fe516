package lang_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/parexec"
	"repro/internal/transform"
)

// shadowedCondSrc hoists a chained while condition (q->next->next loads
// q->next into a temporary) whose body redeclares q: the re-evaluation
// at the end of each iteration must read the q the condition reads, not
// the body's int. Before Normalize gave such a body a block of its own,
// the re-evaluation read the int, and a second check rejected it.
const shadowedCondSrc = `
type L [X] { int v; L *next is uniquely forward along X; };
function int hops(int n) {
  var L *head = NULL;
  var int i = 0;
  while i < n {
    var L *t = new L;
    t->next = head;
    head = t;
    i = i + 1;
  }
  var L *q = head;
  var int hops = 0;
  while q->next->next != NULL {
    q = q->next;
    var int q = 1;
    hops = hops + q;
  }
  return hops;
}`

// TestParseMatchesReference holds Parse — lexemes pulled on demand, one
// type check — to the reference pipeline in parse_ref_test.go (the
// whole source lexed first, a second check after normalization): the
// same printed program, the same type on every expression and the same
// error text, over the corpus, both program generators and sources
// whose first error is a lexing error behind a syntax or declaration
// error.
func TestParseMatchesReference(t *testing.T) {
	in := map[string]string{
		"barnes-hut":       nbody.BarnesHutPSL,
		"barnes-hut-force": nbody.BarnesHutForcePSL,
		"vec-force":        nbody.VecForcePSL,
		"poly-normalize":   parexec.PolyNormalizePSL,
		"many-loop-10x5":   transform.ManyLoopProgramPSL(10, 5),
		"shadowed-cond":    shadowedCondSrc,
		"lex-after-syntax": "procedure f() { x = ; } $",
		"lex-after-dup":    "procedure f() { } procedure f() { } /* open",
		"lex-after-type":   `procedure f() { var int i = true; } "unterminated`,
		"syntax-only":      "procedure f() { 3 = 4; }",
		"check-only":       "procedure f() { g(); }",
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.psl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		in[filepath.Base(f)] = string(src)
	}
	for seed := int64(1); seed <= 200; seed++ {
		in[fmt.Sprintf("generated-%d", seed)] = transform.GenLoopProgramPSL(seed)
	}
	for name, src := range in {
		if d := lang.ParseDiff(src); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
}

// TestParseAllocations pins what parsing Barnes–Hut costs the
// allocator. It took 2 727 objects with the whole source lexed into a
// lexeme slice, a string per one-byte token, a one-statement slice per
// normalized statement and a second check; about 1 550 with each stage
// keeping its own string-keyed scopes; it takes about 1 225 with one
// identifier table the lexer fills, names the checker resolves once,
// statement and argument lists built at their exact size, and statement
// lists Normalize rebuilds only where it hoists.
func TestParseAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := lang.Parse(nbody.BarnesHutPSL); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Parse(BarnesHutPSL): %.0f allocations", allocs)
	if allocs > 1286 {
		t.Errorf("parsing Barnes–Hut allocates %.0f objects, want at most 1286", allocs)
	}
}

// TestShadowedConditionReadsItsOwnVariable: normalizing a hoisted while
// condition whose body redeclares a name the condition reads puts the
// body in a block of its own, so the re-evaluation at the end of each
// iteration reads the condition's variable. On a four-node list the
// loop stops two hops from the head, at the next-to-last node.
func TestShadowedConditionReadsItsOwnVariable(t *testing.T) {
	prog, err := lang.Parse(shadowedCondSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []interp.Engine{interp.EngineWalk, interp.EngineBytecode} {
		v, _, err := interp.Run(prog, interp.Config{Engine: eng}, "hops", interp.IntVal(4))
		if err != nil || v.I != 2 {
			t.Errorf("engine %v: hops(4) = %v, %v; want 2", eng, v, err)
		}
	}
}
