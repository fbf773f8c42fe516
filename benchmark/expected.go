package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The walk oracle checks every run against the unplanned program; the
// committed files check the oracle itself against the day the
// benchmark was written, for the default seed.
//
//go:embed expected/*.json
var expectedFS embed.FS

// expectedFile is benchmark/expected/<workload>.json.
type expectedFile struct {
	Seed       uint64               `json:"seed"`
	RandSeed   uint64               `json:"rand_seed"`
	References map[string]reference `json:"references"`
	// Steps and NodeAllocs are the oracle's counters for the batch call.
	Steps      int64 `json:"steps"`
	NodeAllocs int64 `json:"node_allocs"`
}

const expectedSeed = 1

// checkExpected compares a default-seed run's references with the
// committed ones (or rewrites them, with -update-expected). A
// difference is a failed op.
func checkExpected(o *outcome, update bool) {
	if o.env.Seed != expectedSeed {
		return
	}
	got := expectedFile{Seed: o.env.Seed, RandSeed: o.env.RandSeed, References: o.refs,
		Steps: o.oracle.Steps, NodeAllocs: o.oracle.Allocations}
	name := "expected/" + o.workload + ".json"
	if update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join("benchmark", name), append(data, '\n'), 0o644)
		}
		if err != nil {
			o.fail(fmt.Errorf("update %s: %w", name, err))
		}
		return
	}
	var want expectedFile
	data, err := expectedFS.ReadFile(name)
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil {
		o.fail(fmt.Errorf("%s: %w (regenerate with -update-expected)", name, err))
		return
	}
	if want.Steps != got.Steps || want.NodeAllocs != got.NodeAllocs {
		o.fail(fmt.Errorf("%s: oracle ran %d steps / %d nodes, expected %d / %d", name, got.Steps, got.NodeAllocs, want.Steps, want.NodeAllocs))
	}
	for key, ref := range got.References {
		if w, ok := want.References[key]; !ok || w != ref {
			o.fail(fmt.Errorf("%s: %s gives %q / %q, expected %q / %q", name, key, ref.Result, ref.Output, w.Result, w.Output))
		}
	}
}
