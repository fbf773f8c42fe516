// BENCH_interp.json is the checked-in interpreter performance
// trajectory: ns, Go allocations and bytes per op for the tree-walking
// oracle, the flat bytecode VM, and the SPMD kernel path on the R1
// (polynomial), R2 (Barnes-Hut force), and R8 (vectorizable force)
// workloads, regenerated via testing.Benchmark from the same
// BenchmarkR3*/BenchmarkR6*/BenchmarkR8* configurations CI compiles.
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

	"repro/internal/interp"
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

// benchConfigs maps trajectory entries to the BenchmarkR3* bodies.
var benchConfigs = []struct {
	name   string
	engine interp.Engine
	run    func(*testing.B)
}{
	{"R1-poly/serial", interp.EngineWalk, BenchmarkR3WalkPolySerial},
	{"R1-poly/serial", interp.EngineBytecode, BenchmarkR6BytecodePolySerial},
	{"R1-poly/par2", interp.EngineBytecode, BenchmarkR6BytecodePolyParallel2},
	{"R2-force/serial", interp.EngineWalk, BenchmarkR3WalkForceSerial},
	{"R2-force/serial", interp.EngineBytecode, BenchmarkR6BytecodeForceSerial},
	{"R2-force/par4", interp.EngineWalk, BenchmarkR3WalkForceParallel4},
	{"R2-force/par4", interp.EngineBytecode, BenchmarkR6BytecodeForceParallel4},
	{"R3-bhsim/serial", interp.EngineWalk, BenchmarkR3WalkBarnesHutSim},
	{"R8-vecforce/serial", interp.EngineBytecode, BenchmarkR8BytecodeVecForceSerial},
	{"R8-vecforce/serial", interp.EngineKernel, BenchmarkR8KernelVecForceSerial},
}

func TestBenchInterpJSON(t *testing.T) {
	if *writeBench {
		writeBenchJSON(t)
	}
	data, err := os.ReadFile(benchJSONPath)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test -run TestBenchInterpJSON -write-bench .`)", err)
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s does not parse: %v", benchJSONPath, err)
	}
	seen := map[string]bool{}
	for _, e := range f.Entries {
		if e.NsPerOp <= 0 {
			t.Errorf("%s %s: non-positive ns/op %v", e.Name, e.Engine, e.NsPerOp)
		}
		if e.BytesPerOp <= 0 {
			t.Errorf("%s %s: non-positive bytes/op %v (regenerate with -write-bench)", e.Name, e.Engine, e.BytesPerOp)
		}
		seen[e.Name+"/"+e.Engine] = true
	}
	for _, c := range benchConfigs {
		if key := c.name + "/" + c.engine.String(); !seen[key] {
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
			Engine:      c.engine.String(),
			NsPerOp:     ns,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		})
		if c.name == "R2-force/serial" {
			switch c.engine {
			case interp.EngineWalk:
				walkForce = ns
			case interp.EngineBytecode:
				bytecodeForce = ns
			}
		}
		if c.name == "R8-vecforce/serial" {
			switch c.engine {
			case interp.EngineBytecode:
				bytecodeVec = ns
			case interp.EngineKernel:
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
	nsPerOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	slices.SortFunc(runs, func(a, b testing.BenchmarkResult) int { return cmp.Compare(nsPerOp(a), nsPerOp(b)) })
	mid := runs[len(runs)/2]
	return mid, nsPerOp(mid)
}
