//go:build !race

package advm_test

// raceEnabled reports whether the race detector is compiled in; tests that
// count allocations skip when it is, because it makes sync.Pool drop items
// at random.
const raceEnabled = false
