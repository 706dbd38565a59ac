package advm

import (
	"fmt"
	"time"

	"repro/internal/vm"
)

// Transition is one recorded step of the VM's Figure-1 state machine
// (Interpret → Optimize → GenerateCode → InjectFunctions → Interpret).
type Transition struct {
	From, To string
	// At is the offset since session creation.
	At time.Duration
	// Segment is the affected program segment, -1 when not applicable.
	Segment int
	// Note is a human-readable annotation ("hot: calls=…", "inject …").
	Note string
}

func (t Transition) String() string {
	return fmt.Sprintf("%-12s → %-16s seg=%-3d %s", t.From, t.To, t.Segment, t.Note)
}

// InstrStat is the live profile of one program instruction.
type InstrStat struct {
	ID     int
	Instr  string
	Calls  int64
	Tuples int64
	Nanos  int64
}

// Stats is a point-in-time snapshot of the session's observability surface.
type Stats struct {
	// Runs and Queries count completed Session.Run calls and started
	// Session.Query streams.
	Runs, Queries int64
	// Kernels is the number of pre-compiled vectorized kernels available.
	Kernels int
	// State is the VM's current Figure-1 state ("" without a program).
	State string
	// Transitions is the state machine log.
	Transitions []Transition
	// CompiledSegments lists segments currently running injected traces.
	CompiledSegments []int
	// InjectedTraces counts optimizer injections over the session's
	// lifetime. An injected segment stays compiled, so this is one per
	// compiled segment.
	InjectedTraces int
	// RevertedTraces is always 0: injected traces are never reverted.
	//
	// Deprecated: the VM no longer judges traces against the interpreter,
	// so there is nothing to count. Kept only so existing readers compile;
	// it will be removed.
	RevertedTraces int
	// TemplateHits and TemplateMisses split the injected traces by where
	// their code came from: hits were instantiated from a template the
	// engine's template cache already held (generated for an earlier program
	// or lambda of the same shape, whatever its constants); misses had their
	// code generated for this program.
	TemplateHits, TemplateMisses int
	// GuardFailures is always 0: traces carry no situation guards.
	//
	// Deprecated: kept only so existing readers compile; it will be removed.
	GuardFailures int64
	// Instructions is the per-instruction interpreter profile.
	Instructions []InstrStat
	// MorselPlacements is always nil: every morsel runs on the host CPU.
	//
	// Deprecated: queries no longer place morsels on devices, so there is
	// nothing to count. Device placement is a cost model (package
	// internal/device) that tests assert, not an execution path.
	MorselPlacements map[string]int64
	// SegmentsScanned and SegmentsSkipped count the distinct stored-table
	// segments this session's completed queries read versus skipped via
	// zone-map pruning (see WithScanPruning and Rows.ScanStats).
	SegmentsScanned, SegmentsSkipped int64
	// MorselSteals counts the morsels of this session's completed parallel
	// queries that were executed by a worker other than their initial owner
	// — the work-stealing scheduler rebalancing skewed loads. Stealing never
	// affects result bytes; see Rows.Steals for per-query counts.
	MorselSteals int64
	// FusedQueries counts this session's completed queries that executed
	// fused loops under tiered execution. See WithTieredExecution.
	FusedQueries int64
}

// Stats snapshots the session's counters, state machine log and
// per-instruction profile. It is safe to call concurrently with Run and
// Query.
func (s *Session) Stats() Stats {
	st := Stats{
		Runs:            s.runs.Load(),
		Queries:         s.queries.Load(),
		Kernels:         KernelCount(),
		SegmentsScanned: s.segmentsScanned.Load(),
		SegmentsSkipped: s.segmentsSkipped.Load(),
		MorselSteals:    s.morselSteals.Load(),
		FusedQueries:    s.fusedQueries.Load(),
	}
	vmStats(s.vm, &st)
	return st
}

// vmStats fills the VM-derived portion of a Stats snapshot (state machine
// log, trace counters, per-instruction profile). Shared between sessions
// (private VMs) and prepared programs (engine-shared VMs); a nil VM leaves
// the snapshot untouched.
func vmStats(v *vm.VM, st *Stats) {
	if v == nil {
		return
	}
	st.State = v.State().String()
	for _, tr := range v.Transitions() {
		st.Transitions = append(st.Transitions, Transition{
			From: tr.From.String(), To: tr.To.String(),
			At: tr.At, Segment: tr.Segment, Note: tr.Note,
		})
		if tr.To == vm.StateInjectFunctions {
			st.InjectedTraces++
		}
	}
	st.CompiledSegments = v.CompiledSegments()
	st.TemplateHits, st.TemplateMisses = v.TemplateStats()
	prof := v.Interp.Prof
	for _, seg := range v.Interp.Segments {
		for _, in := range seg.Instrs {
			st.Instructions = append(st.Instructions, InstrStat{
				ID: in.ID, Instr: in.String(),
				Calls:  prof.Calls(in.ID),
				Tuples: prof.Tuples(in.ID),
				Nanos:  prof.Nanos(in.ID),
			})
		}
	}
}
