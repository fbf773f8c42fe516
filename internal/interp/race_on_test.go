//go:build race

package interp

// raceEnabled reports whether the race detector instruments this test
// binary; allocation counts are not pinned under it.
const raceEnabled = true
