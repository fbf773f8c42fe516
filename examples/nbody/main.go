// N-body example: the paper's §4 evaluation in miniature.
//
// Runs the native Go Barnes-Hut sequentially and strip-mined in
// parallel, checks they agree, compares against the O(N²) direct
// method, and then runs the PSL version of the same program through the
// full compile→validate→analyze→transform pipeline.
//
// Run with: go run ./examples/nbody
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/nbody"
)

func main() {
	const n, steps = 2000, 3

	fmt.Printf("== Native Barnes-Hut, N=%d, %d steps (GOMAXPROCS=%d) ==\n",
		n, steps, runtime.GOMAXPROCS(0))
	seq := nbody.NewUniform(n, 7, 0.5, 0.01)
	t0 := time.Now()
	seq.Run("seq", steps, 0)
	seqTime := time.Since(t0)

	par := nbody.NewUniform(n, 7, 0.5, 0.01)
	t0 = time.Now()
	par.Run("par", steps, 4)
	parTime := time.Since(t0)

	match := true
	for i := range seq.Bodies {
		if seq.Bodies[i].Pos != par.Bodies[i].Pos {
			match = false
			break
		}
	}
	fmt.Printf("sequential: %v   parallel(4 PEs): %v   trajectories match: %v\n",
		seqTime.Round(time.Millisecond), parTime.Round(time.Millisecond), match)
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Println("(single-CPU machine: wall-clock speedup needs more cores;")
		fmt.Println(" the deterministic Sequent model below shows the parallel structure)")
	}

	// The O(N log N) vs O(N²) crossover (§4.1's motivation for tree codes).
	for _, m := range []int{400, 2000, 8000} {
		direct := nbody.NewUniform(m, 7, 0.5, 0.01)
		bh := nbody.NewUniform(m, 7, 0.5, 0.01)
		t0 = time.Now()
		direct.Run("direct", 1, 0)
		directTime := time.Since(t0)
		t0 = time.Now()
		bh.Run("seq", 1, 0)
		bhTime := time.Since(t0)
		fmt.Printf("N=%-5d 1 step: direct O(N²) %-10v Barnes-Hut %v\n",
			m, directTime.Round(time.Microsecond), bhTime.Round(time.Microsecond))
	}

	fmt.Println("\n== The PSL tree code through the pipeline ==")
	c, err := core.Compile(nbody.BarnesHutPSL)
	if err != nil {
		log.Fatal(err)
	}
	for _, fn := range []string{"build_tree", "timestep"} {
		keys, err := c.ExitViolations(fn)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: abstraction valid at exit: %v\n", fn, len(keys) == 0)
	}
	reps, err := c.LoopReports(nbody.TimestepFunc)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range reps {
		fmt.Printf("BHL%d parallelizable: %v\n", i+1, r.Parallelizable)
	}

	par1, err := c.StripMine(nbody.TimestepFunc, nbody.BHL1, 4)
	if err != nil {
		log.Fatal(err)
	}
	par2, err := par1.StripMine(nbody.TimestepFunc, nbody.BHL2, 4)
	if err != nil {
		log.Fatal(err)
	}
	args := []interp.Value{
		interp.IntVal(64), interp.IntVal(1), interp.RealVal(0.5), interp.RealVal(0.01),
	}
	_, seqStats, err := c.Run(core.RunConfig{Simulate: true, PEs: 1, Seed: 7}, "simulate", args...)
	if err != nil {
		log.Fatal(err)
	}
	_, parStats, err := par2.Run(core.RunConfig{Simulate: true, PEs: 4, Seed: 7}, "simulate", args...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated Sequent, N=64, 1 step: seq %d cycles, par(4) %d cycles → speedup %.2f\n",
		seqStats.Cycles, parStats.Cycles,
		float64(seqStats.Cycles)/float64(parStats.Cycles))
}
