// Command nbody runs the Barnes-Hut evaluation.
//
// With -table it regenerates the paper's §4.4 TIMES and SPEEDUP tables
// on the simulated Sequent machine (sequential vs strip-mined parallel
// PSL, N ∈ {128, 512, 1024}, 80 time steps, 4 and 7 PEs).
//
// Without -table it runs the native Go implementation and reports wall
// time (drivers: seq, par, direct).
//
// Usage:
//
//	nbody -table [-measure k] [-ns 128,512,1024] [-pes 4,7]
//	nbody [-driver seq|par|direct] [-n 1024] [-steps 10] [-pes 4]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/nbody"
	"repro/internal/sequent"
)

func main() {
	table := flag.Bool("table", false, "regenerate the paper's §4.4 tables (simulated)")
	measure := flag.Int("measure", 1, "time steps actually simulated per table cell")
	nsFlag := flag.String("ns", "128,512,1024", "particle counts for -table")
	pesFlag := flag.String("pes", "4,7", "PE counts for -table")
	driver := flag.String("driver", "seq", "native driver: seq|par|direct")
	n := flag.Int("n", 1024, "particles (native mode)")
	steps := flag.Int("steps", 10, "time steps (native mode)")
	npes := flag.Int("npes", 4, "PEs for the par driver (0 = GOMAXPROCS)")
	theta := flag.Float64("theta", 0.5, "well-separated threshold")
	dt := flag.Float64("dt", 0.01, "integration step")
	seed := flag.Uint64("seed", 7, "particle generator seed")
	dist := flag.String("dist", "uniform", "distribution: uniform|plummer")
	flag.Parse()

	if *table {
		cfg := sequent.DefaultTableConfig()
		cfg.MeasureSteps = *measure
		cfg.Theta, cfg.Dt, cfg.Seed = *theta, *dt, *seed
		var err error
		if cfg.Ns, err = parseInts(*nsFlag); err != nil {
			fatal(err)
		}
		if cfg.PEs, err = parseInts(*pesFlag); err != nil {
			fatal(err)
		}
		t, err := sequent.BarnesHutTable(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Barnes-Hut on the simulated Sequent (%d steps, theta=%.2f, measured %d step(s) and scaled)\n\n",
			cfg.Steps, cfg.Theta, cfg.MeasureSteps)
		fmt.Println(t.FormatTimes())
		fmt.Println(t.FormatSpeedups())
		fmt.Println("(paper §4.4: seq 188/1496/3768 s; par(4) speedups 2.5/2.7/2.8; par(7) 3.3/4.1/4.3)")
		return
	}

	var s *nbody.System
	switch *dist {
	case "uniform":
		s = nbody.NewUniform(*n, *seed, *theta, *dt)
	case "plummer":
		s = nbody.NewPlummer(*n, *seed, *theta, *dt)
	default:
		fatal(fmt.Errorf("unknown distribution %q", *dist))
	}
	start := time.Now()
	if err := s.Run(*driver, *steps, *npes); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("native %s: N=%d steps=%d pes=%d dist=%s: %v (%.1f ms/step)\n",
		*driver, *n, *steps, *npes, *dist, elapsed,
		float64(elapsed.Milliseconds())/float64(*steps))
	mom := s.TotalMomentum()
	fmt.Printf("total momentum: (%.3f, %.3f, %.3f)\n", mom.X, mom.Y, mom.Z)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nbody:", err)
	os.Exit(1)
}
