package lang_test

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/transform"
)

// chainSrc is a program whose main assigns one chain, stmt, in its
// body, one level deep.
func chainSrc(stmt string) string {
	return `type L [X] { int v; L *next is uniquely forward along X; };
function int main() {
  var L *p = new L;
  p->next = p;
  var int s = 0;
  var bool b = false;
  var L *q = NULL;
` + stmt + `;
  if b { s = s + 1; }
  if q == p { s = s + 2; }
  return s;
}`
}

// TestChainDepthLimit: a flat chain builds a tree as deep as it is
// long, so each of its links — a binary operator at every precedence
// level, && and || included; a field access past the chain's first; a
// prefix operator — is one level, counted with the nesting around it.
// At exactly lang.MaxNesting levels a program parses, checks, plans and
// runs alike on the walker, the VM and the kernel engine; one link more
// fails to parse, at that link. A relational chain does not check, as a
// comparison's bool has no order, so it is held to the parser alone.
func TestChainDepthLimit(t *testing.T) {
	n := lang.MaxNesting - 1 // main's body is the first level
	for _, c := range []struct {
		name, open string
		build      func(links int) string
		nesting    bool // counted as nesting, the prefix operators' word
		checks     bool
		plans      bool
	}{
		{"||", "||", func(k int) string { return "  b = false" + strings.Repeat(" || true", k) }, false, true, true},
		{"&&", "&&", func(k int) string { return "  b = true" + strings.Repeat(" && true", k) }, false, true, true},
		{"==", "==", func(k int) string { return "  b = true" + strings.Repeat(" == true", k) }, false, true, true},
		{"<", "<", func(k int) string { return "  b = 1" + strings.Repeat(" < 1", k) }, false, false, false},
		{"+", "+", func(k int) string { return "  s = 1" + strings.Repeat(" + 1", k) }, false, true, true},
		{"*", "*", func(k int) string { return "  s = 1" + strings.Repeat(" * 1", k) }, false, true, true},
		{"->", "->", func(k int) string { return "  q = p" + strings.Repeat("->next", k+1) }, false, true, true},
		{"prefix -", "-", func(k int) string { return "  s = " + strings.Repeat("-", k) + "1" }, true, true, true},
		{"prefix !", "!", func(k int) string { return "  b = " + strings.Repeat("!", k) + "true" }, true, true, true},
	} {
		at := chainSrc(c.build(n))
		if _, err := lang.ParseRaw(at); err != nil {
			t.Errorf("%s at the limit: %v", c.name, err)
			continue
		}
		if c.checks {
			prog, err := lang.Parse(at)
			if err != nil {
				t.Errorf("%s at the limit: %v", c.name, err)
				continue
			}
			if c.plans {
				if _, err := transform.AutoParallelize(prog, 4); err != nil {
					t.Errorf("%s at the limit: plan: %v", c.name, err)
				}
			}
			v, want, err := interp.Run(prog, interp.Config{Engine: interp.EngineWalk}, "main")
			if err != nil {
				t.Fatalf("%s at the limit, walker: %v", c.name, err)
			}
			for _, eng := range []interp.Engine{interp.EngineBytecode, interp.EngineKernel} {
				if got, st, err := interp.Run(prog, interp.Config{Engine: eng}, "main"); err != nil || got != v || st != want {
					t.Errorf("%s at the limit, %s: %s %+v %v, walker %s %+v", c.name, eng, got, st, err, v, want)
				}
			}
		}

		past := chainSrc(c.build(n + 1))
		_, err := lang.ParseRaw(past)
		word := "expression"
		if c.nesting {
			word = "nesting"
		}
		var line, col int
		if err != nil {
			fmt.Sscanf(err.Error(), "%d:%d:", &line, &col)
		}
		if err == nil || !strings.HasSuffix(err.Error(), fmt.Sprintf(": %s deeper than %d", word, lang.MaxNesting)) || line < 1 {
			t.Errorf("%s one link past the limit: %v", c.name, err)
			continue
		}
		if at := strings.Split(past, "\n")[line-1]; !strings.HasPrefix(at[col-1:], c.open) {
			t.Errorf("%s: the error names %d:%d, which is not a %q", c.name, line, col, c.open)
		}
	}
}

// TestMiBChainFailsToParse: a 1 MiB chain 1+1+… fails to parse in a
// process whose goroutines may grow a 64 MB stack, a sixteenth of Go's
// default bound: a parser that built its tree would crash the process
// in the checker's walk of it, which the test sees as the child's exit.
func TestMiBChainFailsToParse(t *testing.T) {
	if os.Getenv("LANG_MIB_CHAIN_CHILD") == "1" {
		debug.SetMaxStack(64 << 20)
		src := "function int main() { return 1" + strings.Repeat("+1", 1<<19) + "; }"
		_, err := lang.Parse(src)
		fmt.Printf("%d bytes: %v\n", len(src), err)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMiBChainFailsToParse$")
	cmd.Env = append(os.Environ(), "LANG_MIB_CHAIN_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), fmt.Sprintf("1048609 bytes: 1:2029: expression deeper than %d", lang.MaxNesting)) {
		t.Fatalf("child: %v\n%s", err, out)
	}
}

// TestCorpusTreeDepth logs the corpus's deepest tree, far inside the
// bound the parser holds chains to.
func TestCorpusTreeDepth(t *testing.T) {
	deepest, where := 0, ""
	for name, src := range frontCorpus(t) {
		prog, err := lang.Parse(src)
		if err != nil {
			continue
		}
		for _, f := range prog.Funcs {
			if d := lang.TreeDepth(f); d > deepest {
				deepest, where = d, name+"."+f.Name
			}
		}
	}
	if deepest == 0 || deepest > lang.MaxNesting {
		t.Fatalf("the corpus's deepest tree is %d levels (%s)", deepest, where)
	}
	t.Logf("the corpus's deepest tree: %d levels (%s)", deepest, where)
}
