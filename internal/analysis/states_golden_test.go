package analysis_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/parexec"
	"repro/internal/transform"
)

var writeStates = flag.Bool("write-states", false, "rewrite testdata/states.golden from the current analysis")

// goldenPrograms lists the programs states.golden records, in the
// order it records them.
func goldenPrograms(t *testing.T) [][2]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.psl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata: %v (%d files)", err, len(files))
	}
	var out [][2]string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]string{filepath.Base(f), string(src)})
	}
	out = append(out,
		[2]string{"BarnesHutPSL", nbody.BarnesHutPSL},
		[2]string{"VecForcePSL", nbody.VecForcePSL},
		[2]string{"PolyNormalizePSL", parexec.PolyNormalizePSL},
		[2]string{"ManyLoopProgramPSL(10,5)", transform.ManyLoopProgramPSL(10, 5)})
	for seed := int64(1); seed <= 50; seed++ {
		out = append(out, [2]string{fmt.Sprintf("GenLoopProgramPSL(%d)", seed), transform.GenLoopProgramPSL(seed)})
	}
	return out
}

// renderStates prints, for every function in program order, its exit
// state and, for every loop in walk order, its invariant and (for a
// while loop) its body-exit state.
func renderStates(t *testing.T, name, src string) string {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := analysis.New(prog).AnalyzeAll()
	if err != nil {
		return fmt.Sprintf("=== %s\nerror %v\n", name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s\n", name)
	for _, f := range prog.Funcs {
		fr := res.Funcs[f.Name]
		fmt.Fprintf(&b, "--- %s exit\n%s\n", f.Name, fr.Exit)
		lang.Walk(f.Body, func(s lang.Stmt) bool {
			switch s.(type) {
			case *lang.WhileStmt, *lang.ForStmt:
				fmt.Fprintf(&b, "--- %s loop %s invariant\n%s\n", f.Name, s.Pos(), fr.LoopInvariant[s])
				if body, ok := fr.LoopBodyExit[s]; ok {
					fmt.Fprintf(&b, "--- %s loop %s body exit\n%s\n", f.Name, s.Pos(), body)
				}
			}
			return true
		})
	}
	return b.String()
}

// TestStatesGolden holds the analysis to the states it computed before
// identifiers became ids: every exit, loop-invariant and body-exit state
// of the corpus, the paper's programs and fifty generated ones.
func TestStatesGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range goldenPrograms(t) {
		b.WriteString(renderStates(t, p[0], p[1]))
	}
	path := filepath.Join("testdata", "states.golden")
	if *writeStates {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("states differ from %s at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("states differ from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
