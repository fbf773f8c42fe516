package bytecode_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/compile"
	"repro/internal/lang"
	"repro/internal/nbody"
	"repro/internal/parexec"
	"repro/internal/transform"
)

var writeLowering = flag.Bool("write-lowering", false, "rewrite testdata/lowering.golden from the current lowering")

// loweringPrograms lists the programs lowering.golden records, in the
// order it records them: the corpus, the paper's programs, the planner's
// cost workload and fifty generated programs.
func loweringPrograms(t *testing.T) [][2]string {
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

// disassemble lowers prog and prints its code, or the error that
// stopped the lowering.
func disassemble(prog *lang.Program) string {
	cp, err := compile.Compile(prog)
	if err != nil {
		return fmt.Sprintf("error %v\n", err)
	}
	bp, err := bytecode.Compile(cp)
	if err != nil {
		return fmt.Sprintf("error %v\n", err)
	}
	return bytecode.Disassemble(bp)
}

// TestLoweringGolden holds the lowering to the code it emitted before it
// read the AST directly: every function of every program, unplanned and
// planned at width 32, registers, strips, kernels and vector reasons
// included.
func TestLoweringGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range loweringPrograms(t) {
		prog, err := lang.Parse(p[1])
		if err != nil {
			t.Fatalf("%s: %v", p[0], err)
		}
		fmt.Fprintf(&b, "=== %s\n%s", p[0], disassemble(prog))
		plan, err := transform.AutoParallelize(prog, 32)
		if err != nil {
			fmt.Fprintf(&b, "=== %s planned\nerror %v\n", p[0], err)
			continue
		}
		fmt.Fprintf(&b, "=== %s planned\n%s", p[0], disassemble(plan.Program))
	}
	path := filepath.Join("testdata", "lowering.golden")
	if *writeLowering {
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
				t.Fatalf("lowering differs from %s at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("lowering differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
