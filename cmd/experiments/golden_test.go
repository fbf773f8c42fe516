// Golden-output tests: the deterministic table modes of this command
// are snapshotted under testdata/golden/ so that table-format
// refactors (tablefmt, header text, cost-model constants, the
// machine model itself) cannot silently drift the reproduced
// paper artifacts. Every mode here is fully deterministic — simulated
// cycles, static analysis verdicts, and calibrated seconds, never
// wall-clock. The cycle-derived snapshots (t, x1) pin the machine
// model's one implementation, the tree walker's cost accounting; t
// takes ≈ 8 s on 2 vCPUs (≈ 40 s under -race) because the walker, not
// the VM, simulates the nine Barnes-Hut runs.
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/experiments -run TestGolden -update
package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// captureStdout runs f with os.Stdout redirected into a pipe and
// returns everything it printed. The experiment printers write through
// fmt.Printf, which reads os.Stdout at call time, so swapping the
// variable is sufficient.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b bytes.Buffer
		io.Copy(&b, r)
		done <- b.String()
	}()
	defer func() {
		os.Stdout = old
	}()
	f()
	w.Close()
	os.Stdout = old
	return <-done
}

func TestGoldenOutputs(t *testing.T) {
	modes := []struct {
		name string
		run  func()
	}{
		{"t", func() { runTables(1) }},
		{"fig1", func() { runFigure(1) }},
		{"fig2", func() { runFigure(2) }},
		{"fig3", func() { runFigure(3) }},
		{"fig4", func() { runFigure(4) }},
		{"fig5", func() { runFigure(5) }},
		{"pm1", func() { runPM(1) }},
		{"pm2", func() { runPM(2) }},
		{"pm3", func() { runPM(3) }},
		{"x1", func() { runX(1, 1) }},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			if m.name == "t" && testing.Short() {
				t.Skip("the T1/T2 simulation takes a few seconds")
			}
			got := captureStdout(t, m.run)
			path := filepath.Join("testdata", "golden", m.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/experiments -run TestGolden -update` to create the snapshots)", err)
			}
			if got != string(want) {
				t.Errorf("output drifted from %s.\nIf the change is intentional, rerun with -update.\n--- got ---\n%s\n--- want ---\n%s",
					path, got, want)
			}
		})
	}
}
