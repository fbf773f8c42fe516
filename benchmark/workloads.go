package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/interp"
	"repro/internal/nbody"
	"repro/internal/parexec"
	"repro/internal/transform"
)

// The three corpus programs are copies of testdata/*.psl as of the
// commit that added the benchmark: the benchmark's inputs must not
// change when the corpus grows.
//
//go:embed programs/*.psl
var corpusFS embed.FS

// benchSimDriver runs the paper's program end to end and folds the
// final positions into one real, so a run has a result to check.
const benchSimDriver = `
function real bench_sim(int n, int steps, real theta, real dt) {
  var Octree *particles = simulate(n, steps, theta, dt);
  var real s = 0.0;
  var Octree *p = particles;
  while p != NULL {
    s = s + p->posx + p->posy + p->posz;
    p = p->next;
  }
  return s;
}
`

// benchManyDriver gives the generated many-loop program an entry point
// that takes numbers (a served request cannot pass a pointer): build an
// n-node list, run every worker over it, fold the data fields.
const benchManyDriver = `
function int bench_many(int n) {
  var OneWayList *head = NULL;
  var int i = 0;
  while i < n {
    var OneWayList *t = new OneWayList;
    t->data = i;
    t->next = head;
    head = t;
    i = i + 1;
  }
  main(head);
  var int s = 0;
  var OneWayList *p = head;
  while p != NULL {
    s = s + p->data;
    p = p->next;
  }
  return s;
}
`

// call is one program entry the benchmark runs and checks: a source,
// a function and its arguments.
type call struct {
	name   string // label in outputs and reference tables
	source string
	fn     string
	args   []interp.Value
	// auto marks a served request that asks for planned execution on
	// P PEs ("auto": true, "pes": P); weight is its share of the hot
	// request draw.
	auto   bool
	weight int
}

// key identifies the call's reference result: same program, function
// and arguments give the same answer however they are executed.
func (c call) key() string {
	k := c.name + ":" + c.fn + "("
	for i, a := range c.args {
		if i > 0 {
			k += ","
		}
		k += a.String()
	}
	return k + ")"
}

// jsonArgs renders the arguments as a served request carries them.
func (c call) jsonArgs() []json.Number {
	out := make([]json.Number, len(c.args))
	for i, a := range c.args {
		if a.Kind == interp.KindInt {
			out[i] = json.Number(strconv.FormatInt(a.I, 10))
		} else {
			out[i] = json.Number(strconv.FormatFloat(a.F, 'g', -1, 64))
		}
	}
	return out
}

// Phases of one workload run, in order. Every workload goes through all
// of them on its own programs; the shares say where its seconds go.
const (
	phaseFront  = iota // verdict_s, cold_s
	phaseBatch         // serial_s, run_s, run_kernel_s
	phaseOpen          // lat_p25_ms (and serve.lat_p99_ms)
	phaseClosed        // rps
	phaseMiss          // cold_p25_ms
	numPhases
)

var phaseNames = [numPhases]string{"front", "batch", "open", "closed", "miss"}

// workload is one set of inputs: the sources the front end sees, the
// program the engines run at size, and the request mix the server gets.
type workload struct {
	name string
	why  string
	// front is the source set of one front-end pass; each entry is
	// parsed, planned, compiled and run once with its (tiny) arguments.
	front []call
	// batch is the program the execution metrics run, at size.
	batch call
	// hot are the request kinds of the serve phases, drawn by weight.
	hot []call
	// coldPct is the percentage of open- and closed-loop requests sent
	// with a never-seen source (a forced cache miss beside the hits).
	coldPct int
	// rate is the open loop's fixed reference rate in requests/s.
	rate float64
	// share is the fraction of the run's seconds each phase gets.
	share [numPhases]float64
}

func corpusCalls() []call {
	var out []call
	for _, name := range []string{"orthlist", "polyscale", "violations"} {
		src, err := corpusFS.ReadFile("programs/" + name + ".psl")
		if err != nil {
			panic(fmt.Sprintf("benchmark: embedded corpus: %v", err))
		}
		out = append(out, call{name: name, source: string(src), fn: "main", weight: 1})
	}
	return out
}

// workloads builds the four workloads. Sizes are fixed; the seed only
// reaches the programs as their rand() seed, the request draw and the
// forced-miss suffixes.
func workloads() []*workload {
	corpus := corpusCalls()
	bhSrc := nbody.BarnesHutPSL + benchSimDriver
	manySrc := transform.ManyLoopProgramPSL(10, 5) + benchManyDriver

	sim := func(n, steps int64) call {
		return call{name: "barneshut", source: bhSrc, fn: "bench_sim",
			args: []interp.Value{interp.IntVal(n), interp.IntVal(steps), interp.RealVal(0.5), interp.RealVal(0.01)}}
	}
	vec := func(n, steps int64) call {
		return call{name: "vecforce", source: nbody.VecForcePSL, fn: nbody.VecForceFunc,
			args: []interp.Value{interp.IntVal(n), interp.IntVal(steps), interp.RealVal(0.5)}}
	}
	many := func(n int64) call {
		return call{name: "manyloop", source: manySrc, fn: "bench_many", args: []interp.Value{interp.IntVal(n)}}
	}
	polyN := func(n int64) call {
		return call{name: "polynorm", source: parexec.PolyNormalizePSL, fn: "run",
			args: []interp.Value{interp.IntVal(n), interp.RealVal(1.001)}}
	}
	poly := polyN(256)
	served := func(c call, auto bool, weight int) call {
		c.auto, c.weight = auto, weight
		return c
	}

	planSet := []call{many(8), sim(8, 1), sim(8, 1), sim(8, 1), sim(8, 1)}
	planSet = append(planSet, corpus...)

	mix := []call{served(poly, true, 6)}
	for _, c := range corpus {
		mix = append(mix, served(c, false, 7))
	}

	return []*workload{
		{
			name:  "bh_sim",
			why:   "the paper's program: Barnes-Hut, serial tree build then ~64 heavy barriers whose bodies recurse; execution dominates, dispatch and front end are noise",
			front: []call{sim(8, 1)},
			batch: sim(256, 2),
			hot:   []call{served(sim(32, 1), true, 1)},
			rate:  80,
			share: [numPhases]float64{0.08, 0.52, 0.16, 0.14, 0.10},
		},
		{
			name:  "vec_sweep",
			why:   "the same runtime layers used the opposite way: thousands of tiny straight-line barriers the classifier vectorizes; dispatch, pool spin-up and gather/scatter dominate",
			front: []call{vec(8, 1)},
			batch: vec(1024, 40),
			hot:   []call{served(vec(64, 4), true, 1)},
			rate:  150,
			share: [numPhases]float64{0.08, 0.52, 0.16, 0.14, 0.10},
		},
		{
			name:  "plan_cold",
			why:   "cold front end, hot server: a 50-loop program planned with incremental re-analysis, recursive functions rejected, every pass; served requests are three tiny programs, all hits: the HTTP+JSON envelope",
			front: planSet,
			batch: polyN(1024),
			hot:   corpus,
			rate:  1000,
			share: [numPhases]float64{0.36, 0.12, 0.24, 0.18, 0.10},
		},
		{
			name:    "serve_mix",
			why:     "writes beside reads: 70% hot serial, 20% hot planned runs that build a PE pool inside an admission worker, 10% never-seen sources that compile, plan and evict",
			front:   append([]call{served(poly, false, 0)}, corpus...),
			batch:   poly,
			hot:     mix,
			coldPct: 10,
			rate:    100,
			share:   [numPhases]float64{0.08, 0.10, 0.40, 0.32, 0.10},
		},
	}
}
