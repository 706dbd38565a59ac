//go:build race

package advm_test

const raceEnabled = true
