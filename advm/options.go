package advm

import (
	"fmt"
	"math"
	"time"

	"repro/internal/jit"
	"repro/internal/vm"
)

// Option configures a Session at creation time. Options replace the internal
// configuration structs (vm.Config, jit.Options, depgraph.Constraints) that
// the old internal/core facade leaked: the adaptive machinery can evolve
// underneath without breaking embedders.
type Option func(*options) error

// options is the resolved configuration of one Engine or Session.
type options struct {
	cfg         vm.Config
	jitEnabled  bool       // trace compilation in query expression VMs
	chunkLen    int        // scan chunk length for queries (0 = DefaultChunkLen)
	parallelism int        // workers per query (≤1 = serial)
	morselLen   int        // dispatch granularity for parallel queries (0 = default)
	tableDir    string     // root directory Session.OpenTable resolves names under
	pruning     bool       // zone-map segment skipping on stored-table scans
	tiered      bool       // tiered relational execution (fused hot segments)
	tierWarm    int64      // executions before a plan's segments compile
	tierHot     int64      // executions before compiled segments run fused
	tracing     TraceLevel // default query trace level (TraceOff)
}

func defaultOptions() options {
	return options{
		cfg: vm.DefaultConfig(), jitEnabled: true, parallelism: 1,
		pruning: true, tiered: true, tierWarm: defaultTierWarm, tierHot: defaultTierHot,
	}
}

// Default tier thresholds: a plan shape (numeric literals elided) compiles
// its streaming segments on its 4th execution and runs them fused from the
// 8th.
const (
	defaultTierWarm = 4
	defaultTierHot  = 8
)

// finalize resolves interactions after every option has applied, so the
// result does not depend on option order.
func (o *options) finalize() {
	if !o.jitEnabled {
		o.cfg.HotCalls = neverHot
		o.cfg.HotNanos = neverHot
	}
}

// neverHot disables a hotness trigger.
const neverHot = math.MaxInt64

// WithHotThresholds sets when a program segment counts as hot and becomes a
// compilation candidate: after calls observed executions, or once its
// cumulative interpreted time reaches cumulative — whichever comes first. A
// non-positive value disables that trigger.
func WithHotThresholds(calls int64, cumulative time.Duration) Option {
	return func(o *options) error {
		o.cfg.HotCalls = calls
		o.cfg.HotNanos = int64(cumulative)
		if calls <= 0 {
			o.cfg.HotCalls = neverHot
		}
		if cumulative <= 0 {
			o.cfg.HotNanos = neverHot
		}
		return nil
	}
}

// JITOptions tunes trace compilation without exposing the internal compiler
// configuration.
type JITOptions struct {
	// TileSize is the register-blocking window of fused element-wise runs
	// (0 = default).
	TileSize int
	// CompileLatency, when non-nil, models code-generation cost for a
	// fragment of n operations: the run whose hot check generates the code
	// of a fragment shape the engine has not seen stalls that long before
	// the traces are injected. Nil (the default) charges nothing beyond
	// what generating the code really costs.
	CompileLatency func(n int) time.Duration
}

// DefaultCompileLatency is a code-generation cost model for a fragment of n
// operations, for studying the paper's compile-effort trade-off: short
// programs cannot win back the latency, long ones can.
func DefaultCompileLatency(n int) time.Duration { return jit.DefaultCompileLatency(n) }

// WithJITOptions tunes trace compilation.
func WithJITOptions(jo JITOptions) Option {
	return func(o *options) error {
		if jo.TileSize < 0 {
			return fmt.Errorf("JIT tile size must be non-negative, got %d", jo.TileSize)
		}
		o.cfg.JIT.TileSize = jo.TileSize
		o.cfg.JIT.CompileLatency = jo.CompileLatency
		return nil
	}
}

// WithJIT enables or disables trace compilation altogether. With false the
// session is a purely vectorized interpreter (the MonetDB/X100-style
// baseline): hotness triggers are disabled — regardless of option order,
// including a WithHotThresholds in the same list — and query expressions
// never compile.
func WithJIT(on bool) Option {
	return func(o *options) error {
		o.jitEnabled = on
		return nil
	}
}

// WithParallelism sets how many workers a query may fan out across
// (default 1 = serial). Streaming plan segments — scans with their filters,
// computes and hash-join probes — then execute morsel-parallel: the table's
// row space is split into morsels, divided contiguously across n worker
// copies of the pipeline, and rebalanced by work stealing — a worker that
// drains its own range takes morsels from the busiest remaining one, so
// skewed per-morsel costs cannot strand the fan-out behind one straggler
// (steal activity is observable via Stats.MorselSteals and Rows.Steals).
// Pipeline breakers parallelize too: join build sides are materialized and
// hashed over morsels into shared read-only tables, and grouped
// aggregations pre-aggregate into per-morsel tables merged in morsel
// sequence order. Results stay byte-identical to serial execution at every
// worker count — floating-point aggregates included — because chunks merge
// in table order and aggregation folds per-morsel results in a fixed order
// that no scheduling decision can perturb; see WithMorselLen for the one
// knob that does pin result bytes.
//
// On an Engine, the option both sets the default for its sessions and sizes
// the shared worker pool (capacity = max(n, GOMAXPROCS)); on a session it
// sets how many workers that session requests per query. A contended pool
// grants fewer workers, degrading toward serial execution rather than
// oversubscribing the host.
func WithParallelism(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("parallelism must be ≥ 1, got %d", n)
		}
		o.parallelism = n
		return nil
	}
}

// WithMorselLen sets the dispatch granularity of parallel queries: the
// number of rows per morsel handed to a worker (default
// morsel.DefaultMorselLen). Smaller morsels balance skewed loads more
// finely at higher dispatch overhead.
//
// Morsel length is part of a query's result identity: grouped aggregations
// pre-aggregate each morsel privately and merge the per-morsel tables in
// morsel sequence order, so floating-point accumulation is blocked at
// morsel boundaries. At a fixed morsel length results are byte-identical
// across every worker count, execution tier and chunk length; two different morsel lengths may differ in the low-order bits of
// float aggregates (both are correct rounded sums, accumulated in a
// different association). Integer and count results are identical at any
// granularity.
func WithMorselLen(n int) Option {
	return func(o *options) error {
		if n <= 0 {
			return fmt.Errorf("morsel length must be positive, got %d", n)
		}
		o.morselLen = n
		return nil
	}
}

// WithChunkLen sets the number of rows per chunk pulled by query table
// scans (default DefaultChunkLen). Smaller chunks tighten cancellation
// latency and cache footprint; larger chunks amortize interpretation
// overhead.
func WithChunkLen(n int) Option {
	return func(o *options) error {
		if n <= 0 {
			return fmt.Errorf("chunk length must be positive, got %d", n)
		}
		o.chunkLen = n
		return nil
	}
}

// WithTableDir sets the root directory under which Session.OpenTable
// resolves table names: OpenTable("lineitem") opens the colstore directory
// <dir>/lineitem. Without it, OpenTable treats the name as a path. Opened
// tables are cached and shared engine-wide, and released by Engine.Close.
func WithTableDir(dir string) Option {
	return func(o *options) error {
		if dir == "" {
			return fmt.Errorf("table directory must be non-empty")
		}
		o.tableDir = dir
		return nil
	}
}

// WithScanPruning toggles zone-map segment skipping on scans over
// disk-backed stored tables (default on). When on, a query's filters are
// analyzed for interval predicates on scanned columns, and segments whose
// stored zone maps (or dictionary/run-length value domains) prove that no
// row can satisfy them are skipped without being read. The filters still
// run over every surviving row, so results are byte-identical either way;
// the outcome is observable via Rows.ScanStats and Stats.SegmentsSkipped.
func WithScanPruning(on bool) Option {
	return func(o *options) error {
		o.pruning = on
		return nil
	}
}

// WithTieredExecution toggles tiered relational execution (default on).
// When on, every Query counts executions per plan shape (numeric literals
// elided), so plans that differ only in their constants tier up together:
// cold plans run the vectorized operator interpreter; at the warm threshold
// a plan's streaming segments — scan→filter→compute→probe chains — are
// compiled into specialized fused loops and cached engine-wide (keyed by
// the segment's canonical plan serialization, literals included, so each
// variant runs its own program with its constants); at the hot threshold
// queries execute the fused loops, each of which runs every chunk it starts
// to the end of its stream. A new variant of a hot shape compiles its
// segments at its first execution and runs them fused. Results are byte-identical at every tier;
// transitions are observable via Rows.Tier, Session.Stats and Engine.Stats.
func WithTieredExecution(on bool) Option {
	return func(o *options) error {
		o.tiered = on
		return nil
	}
}

// WithTierThresholds sets the execution counts at which a plan shape
// (numeric literals elided) tiers up: its segments compile at the warm-th execution and run fused
// from the hot-th on (defaults 4 and 8). warm must be ≥ 1 and hot ≥ warm;
// WithTierThresholds(1, 1) fuses from the very first execution, which is
// how the differential tests force every tier.
func WithTierThresholds(warm, hot int64) Option {
	return func(o *options) error {
		if warm < 1 {
			return fmt.Errorf("warm threshold must be ≥ 1, got %d", warm)
		}
		if hot < warm {
			return fmt.Errorf("hot threshold %d must be ≥ warm threshold %d", hot, warm)
		}
		o.tierWarm, o.tierHot = warm, hot
		return nil
	}
}

// DeviceKind names a device-placement policy.
//
// Deprecated: every query and program runs on the host CPU whatever the
// policy. Device placement is a cost model (package internal/device) that
// tests assert, not an execution path; see WithDevicePolicy.
type DeviceKind int

// Device policies.
//
// Deprecated: see DeviceKind.
const (
	DeviceCPU DeviceKind = iota
	DeviceGPU
	DeviceAuto
)

var deviceNames = [...]string{DeviceCPU: "cpu", DeviceGPU: "gpu", DeviceAuto: "auto"}

func (d DeviceKind) String() string {
	if d >= 0 && int(d) < len(deviceNames) {
		return deviceNames[d]
	}
	return fmt.Sprintf("DeviceKind(%d)", int(d))
}

// WithDevicePolicy rejects a DeviceKind that is not one of the three
// policies and otherwise has no effect.
//
// Deprecated: the GPU of this reproduction is modeled, so placing work on
// it could only re-schedule host execution and never saved time. Queries
// and programs always run on the host CPU; Stats.MorselPlacements stays
// nil.
func WithDevicePolicy(d DeviceKind) Option {
	return func(o *options) error {
		switch d {
		case DeviceCPU, DeviceGPU, DeviceAuto:
			return nil
		}
		return fmt.Errorf("unknown device policy %v", d)
	}
}
