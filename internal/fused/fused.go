// Package fused is the relational JIT tier of the adaptive VM: it compiles a
// hot streaming plan segment — scan→filter→compute→probe — into one
// specialized, defunctionalized opcode loop, replacing the chain of
// vectorized operators (and their per-chunk expression-VM dispatch) with
// monomorphized snippets selected per (column type, predicate shape,
// compute op).
//
// The tier boundary mirrors the paper's micro-adaptive machinery on the
// query side: cold plans run the existing vectorized interpreter; once a
// plan fingerprint crosses the warm threshold its segment is compiled and
// cached (keyed by the segment's canonical plan serialization, which the
// caller supplies; see Cache); at the hot threshold queries execute the
// cached fused loop. Fused execution carries guards — a selectivity upper
// bound learned over the first chunks, and a probe fan-out capacity bound —
// and deoptimizes back to the interpreted operator chain at a chunk
// boundary when a guard trips, so results are byte-identical to interpreted
// execution in every case.
//
// Compilation is best-effort by construction: a lambda whose shape has no
// monomorphized snippet (or whose constant kind does not match the column)
// simply declines fusion, and the plan keeps running interpreted. The
// compiler therefore never needs to be complete, only correct.
//
// Concurrency contract: a compiled Program is immutable and safe to share —
// the engine-wide code cache hands one instance to every query and every
// worker. All mutable execution state lives in the per-worker Exec wrapper
// (one is mounted per worker pipeline, so fused loops run morsel-parallel
// without coordination); the only cross-worker state is the Counters
// telemetry, which is atomic. Guards and deopts are local to one Exec:
// a worker reverting to the interpreter never affects its siblings.
package fused

import (
	"repro/internal/dsl"
	"repro/internal/vector"
)

// StageKind tags one stage of a streaming segment.
type StageKind int

// Segment stage kinds, in stream order on top of the scan.
const (
	// StageFilter keeps rows satisfying a one-parameter predicate lambda.
	StageFilter StageKind = iota
	// StageCompute appends a column derived by a lambda over input columns.
	StageCompute
	// StageProbe probes a shared hash-join build side and appends payload
	// columns, multiplying rows by their match counts.
	StageProbe
)

// Stage describes one stage of a streaming segment in a compiler-friendly
// form, bottom-up (scan first). The advm builder translates its plan nodes
// into this; the fused package never sees plans.
type Stage struct {
	Kind StageKind
	Fn   *dsl.Lambda // parsed filter predicate / compute expression

	Col string // filter input column

	Out     string      // compute output column
	OutKind vector.Kind // compute output kind
	Cols    []string    // compute input columns, in parameter order

	ProbeKey   string        // probe key column (i64)
	Payload    []string      // build-side payload columns to append
	BuildNames []string      // build-side schema column names
	BuildKinds []vector.Kind // build-side schema column kinds
	Table      int           // index into the per-query shared-table list
}
