package colstore

import (
	"math"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/vector"
)

// Pred is a conjunctive interval constraint on one column, implied by a
// pushed-down filter: every row that filter passes has the column's value
// inside the interval. Pruning may therefore drop any segment whose value
// domain misses the interval entirely — the still-executed filter would have
// dropped every one of its rows anyway, which is what keeps pruned and
// unpruned scans byte-identical.
type Pred struct {
	Col   string
	Float bool // bounds are float64 (F64 column); else int64

	HasLo, HasHi   bool
	LoOpen, HiOpen bool // strict (<, >) rather than inclusive bound
	LoI, HiI       int64
	LoF, HiF       float64
}

// acceptsI reports whether an int64 value lies inside the interval.
func (p Pred) acceptsI(v int64) bool {
	if p.HasLo && (v < p.LoI || (p.LoOpen && v == p.LoI)) {
		return false
	}
	if p.HasHi && (v > p.HiI || (p.HiOpen && v == p.HiI)) {
		return false
	}
	return true
}

// acceptsF reports whether a float64 value lies inside the interval.
func (p Pred) acceptsF(v float64) bool {
	if v != v {
		return false // NaN satisfies no comparison the DSL can express
	}
	if p.HasLo && (v < p.LoF || (p.LoOpen && v == p.LoF)) {
		return false
	}
	if p.HasHi && (v > p.HiF || (p.HiOpen && v == p.HiF)) {
		return false
	}
	return true
}

// zoneExcludes reports whether a segment's [min,max] zone lies entirely
// outside the interval, so no contained value can satisfy it.
func (p Pred) zoneExcludes(kind vector.Kind, min, max int64) bool {
	if p.Float {
		if kind != vector.F64 {
			return false
		}
		mn, mx := math.Float64frombits(uint64(min)), math.Float64frombits(uint64(max))
		if mn != mn || mx != mx {
			return false
		}
		if p.HasLo && (mx < p.LoF || (p.LoOpen && mx == p.LoF)) {
			return true
		}
		if p.HasHi && (mn > p.HiF || (p.HiOpen && mn == p.HiF)) {
			return true
		}
		return false
	}
	if kind != vector.I64 {
		return false
	}
	if p.HasLo && (max < p.LoI || (p.LoOpen && max == p.LoI)) {
		return true
	}
	if p.HasHi && (min > p.HiI || (p.HiOpen && min == p.HiI)) {
		return true
	}
	return false
}

// PrunedTable is a read view of a Table with a fixed set of skippable
// segments, computed once from predicates. It implements vector.Store plus
// the engine's RangeSkipper contract (SkipRange), and counts the segments a
// query actually skipped versus scanned.
type PrunedTable struct {
	t    *Table
	skip []bool

	skippedMark []atomic.Bool
	scannedMark []atomic.Bool
	skipped     atomic.Int64
	scanned     atomic.Int64
}

// Pruned builds a pruned view from predicate intervals. Skippability per
// segment is decided in two tiers: first the footer zone maps (no data
// touched), then — for surviving segments whose encoding exposes its value
// domain (dictionary or run-length) — the predicate is evaluated directly on
// the encoded domain, and the segment is skipped when no domain value
// satisfies it. Everything else falls back to decode-then-filter at scan
// time. Unknown columns and kinds a predicate cannot apply to are ignored.
func (t *Table) Pruned(preds []Pred) *PrunedTable {
	v := &PrunedTable{
		t:           t,
		skip:        make([]bool, t.Segments()),
		skippedMark: make([]atomic.Bool, t.Segments()),
		scannedMark: make([]atomic.Bool, t.Segments()),
	}
	for _, p := range preds {
		ci := t.schema.ColumnIndex(p.Col)
		if ci < 0 {
			continue
		}
		kind := t.schema.Kinds[ci]
		if kind == vector.Str {
			continue
		}
		col := t.cols[ci]
		for si, s := range col.segs {
			if v.skip[si] {
				continue
			}
			if p.zoneExcludes(kind, s.min, s.max) {
				v.skip[si] = true
				continue
			}
			if domain := v.segmentDomain(col, si); domain != nil {
				any := false
				for _, dv := range domain {
					if p.Float {
						any = p.acceptsF(math.Float64frombits(uint64(dv)))
					} else {
						any = p.acceptsI(dv)
					}
					if any {
						break
					}
				}
				if !any {
					v.skip[si] = true
				}
			}
		}
	}
	return v
}

// segmentDomain returns the encoded value domain of a Dict or RLE segment
// (nil for other encodings or on parse failure — pruning never fails a
// query, it just declines to skip).
func (v *PrunedTable) segmentDomain(col *column, si int) []int64 {
	switch compress.Scheme(col.segs[si].scheme) {
	case compress.Dict, compress.RLE: // the encodings with cheap domains
	default:
		return nil
	}
	h, err := col.segment(si)
	if err != nil {
		return nil
	}
	if d := h.block.DictValues(); d != nil {
		return d
	}
	return h.block.RunValues()
}

// Schema implements vector.Store.
func (v *PrunedTable) Schema() vector.Schema { return v.t.Schema() }

// Rows implements vector.Store.
func (v *PrunedTable) Rows() int { return v.t.Rows() }

// Scan implements vector.Store by delegating to the base table; pruning only
// ever answers SkipRange, so a caller that ignores SkipRange reads exactly
// the unpruned bytes.
func (v *PrunedTable) Scan(lo, n int, cols []int, dst []*vector.Vector) int {
	return v.t.Scan(lo, n, cols, dst)
}

// Base returns the underlying table (for identity and costing).
func (v *PrunedTable) Base() *Table { return v.t }

// DistinctEstimate delegates to the base table's zone maps.
func (v *PrunedTable) DistinctEstimate(col string) int { return v.t.DistinctEstimate(col) }

// SkipRange reports whether rows [lo, hi) fall entirely inside skippable
// segments, counting each segment the first time it is skipped or scanned.
func (v *PrunedTable) SkipRange(lo, hi int) bool {
	if lo >= hi {
		return false
	}
	first, last := lo/v.t.segRows, (hi-1)/v.t.segRows
	if last >= len(v.skip) {
		last = len(v.skip) - 1
	}
	for si := first; si <= last; si++ {
		if !v.skip[si] {
			for sj := first; sj <= last; sj++ {
				if !v.scannedMark[sj].Swap(true) {
					v.scanned.Add(1)
				}
			}
			return false
		}
	}
	for si := first; si <= last; si++ {
		if !v.skippedMark[si].Swap(true) {
			v.skipped.Add(1)
		}
	}
	return true
}

// Stats returns how many distinct segments this view skipped and scanned.
func (v *PrunedTable) Stats() (scanned, skipped int64) {
	return v.scanned.Load(), v.skipped.Load()
}
