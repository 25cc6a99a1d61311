//go:build !race

package rt

// RaceEnabled reports whether the race detector instruments this test
// binary; exported for the external tests.
const RaceEnabled = false
