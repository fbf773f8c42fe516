//go:build !race

package lang_test

// raceEnabled reports whether the race detector instruments this test
// binary; its instrumentation changes what allocates.
const raceEnabled = false
