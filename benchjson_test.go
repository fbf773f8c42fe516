// BENCH_interp.json is the checked-in interpreter performance
// trajectory: ns, Go allocations and bytes per op for the tree-walking
// oracle, the flat bytecode VM, and the SPMD kernel path on the R1
// (polynomial), R2 (Barnes-Hut force), and R8 (vectorizable force)
// workloads, and for the paper's structures in Go (engine "native":
// the Figure 2 list scale, Figure 3 row scale and Barnes–Hut, sequential
// and on 4 PEs), regenerated via testing.Benchmark from the same
// BenchmarkR3*/R6*/R8*/Fig2*/Fig3*/NativeBH* configurations CI compiles.
// Future PRs that touch the execution core re-emit the file and
// commit it, so the walk/bytecode/kernel gaps — and any regression
// of either fast path — are visible in review diffs rather than lost
// to whoever happens to run the benchmarks.
//
// Each row is the median of five interleaved runs. Regenerate (takes
// ~90 s) with:
//
//	go test -run TestBenchInterpJSON -write-bench .
//
// The non-writing run only validates shape: the file exists, parses,
// names every expected configuration, and reports positive timings.
// Absolute numbers are machine-dependent by nature and are never
// asserted.
package repro

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
)

var writeBench = flag.Bool("write-bench", false, "re-measure and rewrite BENCH_interp.json")

const benchJSONPath = "BENCH_interp.json"

// benchEntry is one measured configuration.
type benchEntry struct {
	Name        string  `json:"name"`
	Engine      string  `json:"engine"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"` // iterations of the median run
}

// benchFile is the BENCH_interp.json schema. GoMaxProcs and GoVersion
// ride along with cpus so trajectory rows measured on different boxes
// (or GOMAXPROCS caps, or toolchains) are comparable in review diffs.
type benchFile struct {
	GeneratedBy string       `json:"generated_by"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	CPUs        int          `json:"cpus"`
	GoMaxProcs  int          `json:"gomaxprocs"`
	GoVersion   string       `json:"go_version"`
	Entries     []benchEntry `json:"benchmarks"`
	// SpeedupSerialForceBytecode is walk/bytecode ns on the serial
	// force workload — the ratio TestBytecodeSpeedupFloor guards.
	SpeedupSerialForceBytecode float64 `json:"speedup_serial_force_bytecode"`
	// SpeedupSerialForceKernel is bytecode/kernel ns on the serial
	// vectorizable force workload (R8: unstripped program on the plain
	// VM vs the strip-mined program on the kernel engine) — the ratio
	// TestKernelSpeedupFloor guards.
	SpeedupSerialForceKernel float64 `json:"speedup_serial_force_kernel"`
}

// benchConfigs maps trajectory entries to the benchmark bodies. engine
// labels the row: an interp.Engine's name, or "native" for the paper's
// structures in Go, whose parallel/sequential pairs
// TestNativeParallelSpeedupFloor holds to their recorded ratios.
var benchConfigs = []struct {
	name   string
	engine string
	run    func(*testing.B)
}{
	{"R1-poly/serial", "walk", BenchmarkR3WalkPolySerial},
	{"R1-poly/serial", "bytecode", BenchmarkR6BytecodePolySerial},
	{"R1-poly/par2", "bytecode", BenchmarkR6BytecodePolyParallel2},
	{"R2-force/serial", "walk", BenchmarkR3WalkForceSerial},
	{"R2-force/serial", "bytecode", BenchmarkR6BytecodeForceSerial},
	{"R2-force/par4", "walk", BenchmarkR3WalkForceParallel4},
	{"R2-force/par4", "bytecode", BenchmarkR6BytecodeForceParallel4},
	{"R3-bhsim/serial", "walk", BenchmarkR3WalkBarnesHutSim},
	{"R8-vecforce/serial", "bytecode", BenchmarkR8BytecodeVecForceSerial},
	{"R8-vecforce/serial", "kernel", BenchmarkR8KernelVecForceSerial},
	{"Fig2ListScaleSequential", "native", BenchmarkFig2ListScaleSequential},
	{"Fig2ListScaleParallel4", "native", BenchmarkFig2ListScaleParallel4},
	{"Fig3SparseRowScaleParallel", "native", BenchmarkFig3SparseRowScaleParallel},
	{"NativeBHSequential", "native", BenchmarkNativeBHSequential},
	{"NativeBHParallel4", "native", BenchmarkNativeBHParallel4},
}

func TestBenchInterpJSON(t *testing.T) {
	if *writeBench {
		writeBenchJSON(t)
	}
	f := readBenchJSON(t)
	seen := map[string]bool{}
	for _, e := range f.Entries {
		if e.NsPerOp <= 0 {
			t.Errorf("%s %s: non-positive ns/op %v", e.Name, e.Engine, e.NsPerOp)
		}
		// Every interpreted run allocates; a native loop may not.
		if e.BytesPerOp <= 0 && e.Engine != "native" {
			t.Errorf("%s %s: non-positive bytes/op %v (regenerate with -write-bench)", e.Name, e.Engine, e.BytesPerOp)
		}
		seen[e.Name+"/"+e.Engine] = true
	}
	for _, c := range benchConfigs {
		if key := c.name + "/" + c.engine; !seen[key] {
			t.Errorf("%s missing entry %s (regenerate with -write-bench)", benchJSONPath, key)
		}
	}
	if f.SpeedupSerialForceBytecode <= 1 {
		t.Errorf("recorded serial-force bytecode speedup %.2f should exceed 1 (bytecode faster than walk)",
			f.SpeedupSerialForceBytecode)
	}
	if f.SpeedupSerialForceKernel <= 1 {
		t.Errorf("recorded serial-force kernel speedup %.2f should exceed 1 (kernel faster than bytecode)",
			f.SpeedupSerialForceKernel)
	}
	if f.GoMaxProcs <= 0 {
		t.Errorf("recorded gomaxprocs %d should be positive (regenerate with -write-bench)", f.GoMaxProcs)
	}
	if f.GoVersion == "" {
		t.Error("recorded go_version is empty (regenerate with -write-bench)")
	}
}

func readBenchJSON(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile(benchJSONPath)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test -run TestBenchInterpJSON -write-bench .`)", err)
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s does not parse: %v", benchJSONPath, err)
	}
	return f
}

// TestNativeParallelSpeedupFloor holds the native structures' parallel
// schedules to what BENCH_interp.json recorded: under -cost-gates each
// pair's parallel/sequential ns ratio, measured now, may be at most
// twice the recorded one (up to 3 attempts, so one noisy measurement
// does not fail the gate). On 2 vCPUs a one-multiply list body on 4 PEs cannot
// beat the plain loop, so the gate is a ratio, not a speedup: it
// catches a schedule that pays per strip again, as the one that read
// ×240 did. The recorded ratios come from a build without the race
// detector, so a race build asserts only that the rows exist.
func TestNativeParallelSpeedupFloor(t *testing.T) {
	f := readBenchJSON(t)
	recorded := map[string]float64{}
	for _, e := range f.Entries {
		if e.Engine == "native" {
			recorded[e.Name] = e.NsPerOp
		}
	}
	bench := map[string]func(*testing.B){}
	for _, c := range benchConfigs {
		bench[c.name] = c.run
	}
	for _, pair := range [][2]string{
		{"Fig2ListScaleSequential", "Fig2ListScaleParallel4"},
		{"NativeBHSequential", "NativeBHParallel4"},
	} {
		seq, par := recorded[pair[0]], recorded[pair[1]]
		if seq <= 0 || par <= 0 {
			t.Errorf("%s has no native rows %s and %s (regenerate with -write-bench)", benchJSONPath, pair[0], pair[1])
			continue
		}
		if !*costGates || raceEnabled {
			continue
		}
		bound := 2 * par / seq
		var ratio float64
		for attempt := 1; attempt <= 3; attempt++ {
			s := nsPerOp(testing.Benchmark(bench[pair[0]]))
			p := nsPerOp(testing.Benchmark(bench[pair[1]]))
			ratio = p / s
			t.Logf("attempt %d: %s %.0f ns, %s %.0f ns, ratio %.2f (recorded %.2f, bound %.2f)",
				attempt, pair[0], s, pair[1], p, ratio, par/seq, bound)
			if ratio <= bound {
				break
			}
		}
		if ratio > bound {
			t.Errorf("%s is %.2f× %s, over twice the recorded %.2f×", pair[1], ratio, pair[0], par/seq)
		}
	}
}

func writeBenchJSON(t *testing.T) {
	t.Helper()
	f := benchFile{
		GeneratedBy: "go test -run TestBenchInterpJSON -write-bench .",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
	}
	var walkForce, bytecodeForce float64
	var bytecodeVec, kernelVec float64
	// The rounds interleave the configurations, so each row's runs are
	// spread over the whole record rather than taken back to back.
	runs := make([][]testing.BenchmarkResult, len(benchConfigs))
	for round := 0; round < benchRuns; round++ {
		for i, c := range benchConfigs {
			runs[i] = append(runs[i], testing.Benchmark(c.run))
		}
	}
	for i, c := range benchConfigs {
		r, ns := median(runs[i])
		f.Entries = append(f.Entries, benchEntry{
			Name:        c.name,
			Engine:      c.engine,
			NsPerOp:     ns,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		})
		if c.name == "R2-force/serial" {
			switch c.engine {
			case "walk":
				walkForce = ns
			case "bytecode":
				bytecodeForce = ns
			}
		}
		if c.name == "R8-vecforce/serial" {
			switch c.engine {
			case "bytecode":
				bytecodeVec = ns
			case "kernel":
				kernelVec = ns
			}
		}
		t.Logf("%s/%s: %.0f ns/op (N=%d)", c.name, c.engine, ns, r.N)
	}
	if bytecodeForce > 0 {
		f.SpeedupSerialForceBytecode = walkForce / bytecodeForce
	}
	if kernelVec > 0 {
		f.SpeedupSerialForceKernel = bytecodeVec / kernelVec
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(benchJSONPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s (serial force speedup %.2fx)\n", benchJSONPath, f.SpeedupSerialForceBytecode)
}

// benchRuns is how many testing.Benchmark runs each row's figure is the
// median of. A run lasts about a second, which is only 3–4 iterations
// of the Barnes–Hut oracle, so one run alone moved that row by ~9 %
// between back-to-back records.
const benchRuns = 5

// median returns the run with the median ns/op, and that ns/op.
func median(runs []testing.BenchmarkResult) (testing.BenchmarkResult, float64) {
	slices.SortFunc(runs, func(a, b testing.BenchmarkResult) int { return cmp.Compare(nsPerOp(a), nsPerOp(b)) })
	mid := runs[len(runs)/2]
	return mid, nsPerOp(mid)
}

func nsPerOp(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
