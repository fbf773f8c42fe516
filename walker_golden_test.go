package repro

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/transform"
)

var writeWalkerGolden = flag.Bool("write-walker-golden", false, "rewrite testdata/walker.golden")

// walkerGoldenWidth is the strip width the golden's planned programs are
// cut at: narrow, so even the corpus's short lists run several strips.
const walkerGoldenWidth = 4

// walkerErrorsPSL holds one driver per run-time error the walker
// reports, each reached after some output and work, so the golden pins
// the error text, the point it is raised at and the check order (base
// before index, NULL before field, both operands before the divisor).
const walkerErrorsPSL = `
type Cell {
  int v;
  real r;
  Cell *next;
  Cell *kid[2];
};
function int noisy(int k) { print("noisy", k); return k; }
function int div_zero(int a) { return noisy(a) / noisy(0); }
function int mod_zero(int a) { return noisy(a) % (a - a); }
function int null_read() {
  var Cell *c = new Cell;
  var Cell *d = c->next;
  return d->v;
}
procedure null_store() {
  var Cell *c = NULL;
  c->r = 1.5 * noisy(2);
}
function int bad_index(int k) {
  var Cell *c = new Cell;
  var Cell *d = c->kid[noisy(k)];
  return 0;
}
procedure bad_store(int k) {
  var Cell *c = new Cell;
  c->kid[noisy(k)] = c;
}
function int fell_off(int k) { if k > 0 { return 1; } }
function int deep(int k) { return deep(k + 1); }
function real mixed(int n) {
  var real s = 0;
  var int i = 0;
  while i < n {
    s = s + i / 2 + i * 0.5 - -i % 3;
    i = i + 1;
  }
  var bool b = s > n && !(s == 0.0) || true != false;
  print(s, b, -s, n / 2, NULL, new Cell == NULL);
  return s / 0;
}
`

// walkerGoldenRuns lists every run the golden records: the equivalence
// corpus (which holds the BarnesHutPSL, PolyNormalizePSL and VecForcePSL
// drivers), generated programs 1–50 and the error drivers.
func walkerGoldenRuns(t *testing.T) []eqProgram {
	runs := equivalenceCorpus(t)
	for seed := int64(1); seed <= 50; seed++ {
		runs = append(runs, genProgram(seed))
	}
	errs := []struct {
		fn   string
		args []interp.Value
	}{
		{"div_zero", []interp.Value{interp.IntVal(7)}},
		{"mod_zero", []interp.Value{interp.IntVal(7)}},
		{"null_read", nil},
		{"null_store", nil},
		{"bad_index", []interp.Value{interp.IntVal(2)}},
		{"bad_store", []interp.Value{interp.IntVal(-1)}},
		{"fell_off", []interp.Value{interp.IntVal(0)}},
		{"deep", []interp.Value{interp.IntVal(0)}},
		{"mixed", []interp.Value{interp.IntVal(9)}},
	}
	for _, e := range errs {
		runs = append(runs, eqProgram{name: "errors " + e.fn, src: walkerErrorsPSL, fn: e.fn, args: e.args})
	}
	return runs
}

// genProgram is generated program seed (transform.GenLoopProgramPSL)
// with genDriver calling every procedure in it.
func genProgram(seed int64) eqProgram {
	gen := transform.GenLoopProgramPSL(seed)
	var calls strings.Builder
	for i := 0; strings.Contains(gen, fmt.Sprintf("procedure f%d(", i)); i++ {
		fmt.Fprintf(&calls, "  f%d(head, other, n);\n", i)
	}
	return eqProgram{name: fmt.Sprintf("generated %d", seed), src: gen + fmt.Sprintf(genDriver, calls.String()),
		fn: "gen_main", args: []interp.Value{interp.IntVal(3)}}
}

// TestWalkerGolden pins the tree walker, the oracle every reference
// result comes from and the one engine that runs the machine model, to
// testdata/walker.golden: for every run of walkerGoldenRuns, unplanned
// and planned at walkerGoldenWidth, its result, output, error text,
// steps, allocations and barriers in Real mode, and its cycles and work
// cycles in Simulated mode on 1 and 4 PEs. -write-walker-golden
// rewrites the file; a change to the walker that means to keep its
// semantics and its cost model leaves it byte-identical.
func TestWalkerGolden(t *testing.T) {
	var b bytes.Buffer
	for _, p := range walkerGoldenRuns(t) {
		c, err := core.Compile(p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		walkerGoldenEntry(&b, p, "serial", c)
		auto, err := c.AutoParallel(walkerGoldenWidth)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if auto.Plan.Parallelized > 0 {
			walkerGoldenEntry(&b, p, fmt.Sprintf("planned w%d", walkerGoldenWidth), auto.Compilation)
		}
	}
	path := filepath.Join("testdata", "walker.golden")
	if *writeWalkerGolden {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -write-walker-golden to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("walker.golden differs at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("walker.golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// walkerGoldenEntry writes one program variant's lines.
func walkerGoldenEntry(b *bytes.Buffer, p eqProgram, variant string, c *core.Compilation) {
	var out bytes.Buffer
	cfg := interp.Config{Engine: interp.EngineWalk, Seed: p.seed, Output: &out}
	v, st, err := interp.Run(c.Program, cfg, p.fn, p.args...)
	fmt.Fprintf(b, "%s [%s] %s: %s\n", p.name, variant, p.fn, walkerOutcome(v, err))
	fmt.Fprintf(b, "  real: steps %d allocs %d barriers %d output %s\n", st.Steps, st.Allocations, st.Barriers, walkerOutput(out.String()))
	for _, pes := range []int{1, 4} {
		out.Reset()
		cfg := interp.Config{Mode: interp.Simulated, PEs: pes, Seed: p.seed, Output: &out}
		v, st, err := interp.Run(c.Program, cfg, p.fn, p.args...)
		fmt.Fprintf(b, "  sim pes %d: cycles %d work %d steps %d: %s output %s\n", pes, st.Cycles, st.WorkCycles, st.Steps,
			walkerOutcome(v, err), walkerOutput(out.String()))
	}
}

func walkerOutcome(v interp.Value, err error) string {
	if err != nil {
		return "error " + err.Error()
	}
	return "= " + v.String()
}

// walkerOutput quotes a short output and hashes a long one.
func walkerOutput(s string) string {
	if len(s) <= 120 {
		return fmt.Sprintf("%q", s)
	}
	return fmt.Sprintf("%d bytes sha256 %x", len(s), sha256.Sum256([]byte(s)))
}
