// Package profile collects the runtime statistics the VM's optimizer feeds
// on (§III of the paper: "the VM collects profiling information (time spent
// in each operation, number of calls) to identify hot paths and potential
// targets for further optimization", plus observed selectivities and tuple
// counts used by the workload-specific optimizations of §III-C).
package profile

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Profile holds per-instruction counters, indexed by the normalizer-assigned
// instruction ID. All counters are updated with atomic operations so the
// optimizer may read them while other goroutines run the program.
type Profile struct {
	n      int
	calls  []atomic.Int64
	tuples []atomic.Int64
	nanos  []atomic.Int64
	selIn  []atomic.Int64
	selOut []atomic.Int64
}

// New creates a profile for a program with n instructions.
func New(n int) *Profile {
	return &Profile{
		n:      n,
		calls:  make([]atomic.Int64, n),
		tuples: make([]atomic.Int64, n),
		nanos:  make([]atomic.Int64, n),
		selIn:  make([]atomic.Int64, n),
		selOut: make([]atomic.Int64, n),
	}
}

// Len returns the number of instruction slots.
func (p *Profile) Len() int { return p.n }

// Record notes one execution of instruction id over tuples rows taking ns
// nanoseconds.
func (p *Profile) Record(id, tuples int, ns int64) {
	p.calls[id].Add(1)
	p.tuples[id].Add(int64(tuples))
	p.nanos[id].Add(ns)
}

// RecordWeighted notes one sampled execution standing for w executions: the
// interpreter times only one chunk in w once a segment's optimization
// decision is final, and scales the sample so counters stay estimates of the
// true totals.
func (p *Profile) RecordWeighted(id, tuples int, ns int64, w int) {
	p.calls[id].Add(int64(w))
	p.tuples[id].Add(int64(tuples) * int64(w))
	p.nanos[id].Add(ns * int64(w))
}

// RecordSel notes a selection event: in rows entered, out rows survived.
func (p *Profile) RecordSel(id, in, out int) {
	p.selIn[id].Add(int64(in))
	p.selOut[id].Add(int64(out))
}

// Calls returns the number of executions of instruction id.
func (p *Profile) Calls(id int) int64 { return p.calls[id].Load() }

// Tuples returns the total rows processed by instruction id.
func (p *Profile) Tuples(id int) int64 { return p.tuples[id].Load() }

// Nanos returns the total time spent in instruction id.
func (p *Profile) Nanos(id int) int64 { return p.nanos[id].Load() }

// Selectivity returns the observed pass rate of a selection instruction in
// [0,1], or def when nothing was observed yet.
func (p *Profile) Selectivity(id int, def float64) float64 {
	in := p.selIn[id].Load()
	if in == 0 {
		return def
	}
	return float64(p.selOut[id].Load()) / float64(in)
}

// NanosPerTuple returns the average cost of instruction id per input row, or
// 0 when unobserved.
func (p *Profile) NanosPerTuple(id int) float64 {
	t := p.tuples[id].Load()
	if t == 0 {
		return 0
	}
	return float64(p.nanos[id].Load()) / float64(t)
}

// TotalNanos sums time across all instructions.
func (p *Profile) TotalNanos() int64 {
	var total int64
	for i := range p.nanos {
		total += p.nanos[i].Load()
	}
	return total
}

// HotRank returns instruction IDs sorted by total time, hottest first.
// Instructions that never ran are excluded.
func (p *Profile) HotRank() []int {
	ids := make([]int, 0, p.n)
	for i := 0; i < p.n; i++ {
		if p.nanos[i].Load() > 0 {
			ids = append(ids, i)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		return p.nanos[ids[a]].Load() > p.nanos[ids[b]].Load()
	})
	return ids
}

// Reset zeroes all counters (used when the workload shifts and history
// should stop dominating decisions).
func (p *Profile) Reset() {
	for i := 0; i < p.n; i++ {
		p.calls[i].Store(0)
		p.tuples[i].Store(0)
		p.nanos[i].Store(0)
		p.selIn[i].Store(0)
		p.selOut[i].Store(0)
	}
}

// String renders a compact per-instruction report.
func (p *Profile) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile (%d instrs, total %.3fms)\n", p.n, float64(p.TotalNanos())/1e6)
	for _, id := range p.HotRank() {
		fmt.Fprintf(&sb, "  instr %3d: calls=%-8d tuples=%-10d ns/tuple=%-8.2f",
			id, p.Calls(id), p.Tuples(id), p.NanosPerTuple(id))
		if in := p.selIn[id].Load(); in > 0 {
			fmt.Fprintf(&sb, " sel=%.4f", p.Selectivity(id, 1))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// EWMA is an exponentially weighted moving average used for drift-sensitive
// signals (observed selectivities, device costs). The zero value is unseeded.
type EWMA struct {
	v      float64
	alpha  float64
	seeded bool
}

// NewEWMA creates an EWMA with the given smoothing factor (0 < alpha ≤ 1;
// larger = more reactive).
func NewEWMA(alpha float64) *EWMA { return &EWMA{alpha: alpha} }

// Observe folds a new observation into the average.
func (e *EWMA) Observe(x float64) {
	if !e.seeded {
		e.v = x
		e.seeded = true
		return
	}
	e.v = e.alpha*x + (1-e.alpha)*e.v
}

// Value returns the current average, or def if nothing was observed.
func (e *EWMA) Value(def float64) float64 {
	if !e.seeded {
		return def
	}
	return e.v
}

// Seeded reports whether any observation has been made.
func (e *EWMA) Seeded() bool { return e.seeded }
