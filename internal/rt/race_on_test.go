//go:build race

package rt_test

// raceEnabled reports that the race detector instruments this test binary.
const raceEnabled = true
