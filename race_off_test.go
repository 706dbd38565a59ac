//go:build !race

package repro

// raceEnabled reports whether the race detector is compiled in; timing
// claims skip when it is, because it slows interpreter and traces unevenly.
const raceEnabled = false
