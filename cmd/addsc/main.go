// Command addsc is the "ADDS compiler" driver: it parses a PSL source
// file, runs general path matrix analysis and abstraction validation,
// reports loop parallelizability, optionally applies the strip-mining
// transformation, and optionally runs the program.
//
// Usage:
//
//	addsc [flags] file.psl
//
//	-analyze fn        print exit violations and loop reports for fn
//	-matrix fn:stmt    print the path matrix after a statement,
//	                   e.g. -matrix "scale:p = p->next;"
//	-stripmine fn:L:P  strip-mine while-loop L of fn across P PEs and
//	                   print the transformed source
//	-run fn            interpret fn (no arguments) after all transforms;
//	                   after -stripmine, on -pes real PEs unless -sim
//	-shapecheck        validate ADDS shape promises at runtime (§2.2)
//	-sim               run on the simulated machine (with -pes): the
//	                   tree walker counting cycles, ~10x slower than
//	                   the VM a plain -run uses
//	-pes n             PE count: simulated with -sim, real after
//	                   -stripmine (default 4)
//	-seed n            deterministic rand() seed (default 7)
//	-compare fn:L      compare conservative/k-limited/ADDS verdicts
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/interp"
)

func main() {
	analyzeFn := flag.String("analyze", "", "function to analyze")
	matrixAt := flag.String("matrix", "", "fn:stmt — print matrix after stmt")
	stripmine := flag.String("stripmine", "", "fn:loop:pes — strip-mine a loop")
	runFn := flag.String("run", "", "function to interpret (niladic)")
	sim := flag.Bool("sim", false, "use the simulated Sequent machine (runs on the tree walker, ~10x slower than the VM)")
	pes := flag.Int("pes", 4, "PE count: simulated with -sim, real for -run after -stripmine")
	seed := flag.Uint64("seed", 7, "rand() seed")
	shapecheck := flag.Bool("shapecheck", false, "validate ADDS shapes at runtime during -run")
	compare := flag.String("compare", "", "fn:loop — baseline comparison")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: addsc [flags] file.psl")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	c, err := core.Compile(string(src))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("compiled %s: %d type(s), %d function(s)\n",
		flag.Arg(0), c.Program.Universe.Len(), len(c.Program.Funcs))

	if *analyzeFn != "" {
		keys, err := c.ExitViolations(*analyzeFn)
		if err != nil {
			fatal(err)
		}
		if len(keys) == 0 {
			fmt.Printf("%s: abstraction valid at exit\n", *analyzeFn)
		} else {
			fmt.Printf("%s: %d active violation(s) at exit:\n", *analyzeFn, len(keys))
			for _, k := range keys {
				fmt.Printf("  %s\n", k)
			}
		}
		reps, err := c.LoopReports(*analyzeFn)
		if err != nil {
			fatal(err)
		}
		for _, r := range reps {
			fmt.Println(r)
		}
	}

	if *matrixAt != "" {
		fn, stmt, ok := strings.Cut(*matrixAt, ":")
		if !ok {
			fatal(fmt.Errorf("-matrix wants fn:stmt"))
		}
		m, err := c.MatrixAfter(fn, stmt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("path matrix after %q in %s:\n%s", stmt, fn, m)
	}

	if *compare != "" {
		fn, loopStr, ok := strings.Cut(*compare, ":")
		if !ok {
			fatal(fmt.Errorf("-compare wants fn:loop"))
		}
		loop, err := strconv.Atoi(loopStr)
		if err != nil {
			fatal(err)
		}
		v, err := c.CompareBaselines(fn, loop)
		if err != nil {
			fatal(err)
		}
		fmt.Println(core.FormatVerdictTable([]*core.BaselineVerdicts{v}))
	}

	if *stripmine != "" {
		parts := strings.Split(*stripmine, ":")
		if len(parts) != 3 {
			fatal(fmt.Errorf("-stripmine wants fn:loop:pes"))
		}
		loop, err1 := strconv.Atoi(parts[1])
		p, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			fatal(fmt.Errorf("-stripmine wants numeric loop and pes"))
		}
		tc, err := c.StripMine(parts[0], loop, p)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("--- transformed source (loop %d of %s on %d PEs) ---\n%s\n",
			loop, parts[0], p, tc.Source())
		c = tc
	}

	if *runFn != "" {
		rc := core.RunConfig{Simulate: *sim, PEs: *pes, Seed: *seed, Output: os.Stdout}
		var (
			v     interp.Value
			stats interp.Stats
			err   error
		)
		if *shapecheck {
			var violations []interp.ShapeViolation
			v, stats, violations, err = c.RunChecked(rc, *runFn)
			if err == nil {
				if len(violations) == 0 {
					fmt.Println("runtime shape checks: clean")
				}
				for _, sv := range violations {
					fmt.Println("runtime shape check:", sv)
				}
			}
		} else if *stripmine != "" && !*sim {
			// A transformed program runs on real PEs; Run alone would
			// execute its foralls in place.
			v, stats, err = c.RunParallel(rc, *pes, *runFn)
		} else {
			v, stats, err = c.Run(rc, *runFn)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("result: %s\n", v)
		if *sim {
			fmt.Printf("simulated cycles: %d (PEs=%d, barriers=%d)\n",
				stats.Cycles, *pes, stats.Barriers)
		}
		fmt.Printf("steps=%d allocations=%d\n", stats.Steps, stats.Allocations)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "addsc:", err)
	os.Exit(1)
}
