package fused

import (
	"repro/internal/vector"
)

// runChunk executes the fused loop over one leaf chunk. It returns the
// output chunk, or nil when every row filtered out.
//
// Compute ops write into per-Exec scratch reused across chunks. How the
// output aliases that scratch depends on who consumes it. A lent Exec (its
// leaf is a lent engine.PartScan) emits the slots themselves — input
// columns, scratch and probe output — with e.idx as the selection, in one
// reused chunk header: the chunk is valid only until the next Next, and
// the loop allocates nothing a probe does not. An owned Exec's chunk never
// aliases scratch, so callers may hold it across Next calls: when a filter
// (or the input's selection) dropped rows, every column is condensed to the
// survivors into fresh storage and the chunk has no selection vector; when
// no row was dropped, input columns are shared read-only with the input
// chunk, as the interpreter's shallow chunks share them, and computed
// columns are copied out of scratch. Probe output is condensed fresh
// storage either way.
func (e *Exec) runChunk(in *vector.Chunk) *vector.Chunk {
	n := in.Len()
	if in.SelectedLen() == 0 {
		return nil // an empty selection must not reach a filter as "dense"
	}
	e.slots = e.slots[:0]
	for i := 0; i < in.Width(); i++ {
		e.slots = append(e.slots, in.Col(i))
	}
	// dense: no selection exists yet and every row 0..n-1 is alive. The
	// first filter then reads the rows directly; the first compute or probe
	// fills the identity selection.
	dense := in.Sel() == nil
	if !dense {
		e.idx = append(e.idx[:0], in.Sel()...)
	}
	curLen := n

ops:
	for oi := range e.prog.ops {
		o := &e.prog.ops[oi]
		if o.code.isFilter() {
			var sel []int32
			if dense {
				e.idx, dense = resize(e.idx, n), false
			} else {
				sel = e.idx
			}
			e.idx = e.idx[:e.filter(o, sel)]
			if len(e.idx) == 0 {
				break ops // no row survives: the chunk ends here, filtered
			}
			continue
		}
		if dense {
			e.identity(n)
			dense = false
		}
		idx := e.idx
		switch o.code {
		case opAffineI64:
			src := e.slots[o.a].I64()
			out := e.scratchOut(oi, vector.I64, curLen)
			dst := out.I64()
			c, d := o.ci, o.cj
			for _, r := range idx {
				dst[r] = src[r]*c + d
			}
			e.slots = append(e.slots, out)
		case opModMulI64:
			src := e.slots[o.a].I64()
			out := e.scratchOut(oi, vector.I64, curLen)
			dst := out.I64()
			m, c := o.ci, o.cj
			for _, r := range idx {
				dst[r] = (src[r] % m) * c
			}
			e.slots = append(e.slots, out)
		case opMulAddI64:
			sa, sb := e.slots[o.a].I64(), e.slots[o.b].I64()
			out := e.scratchOut(oi, vector.I64, curLen)
			dst := out.I64()
			c := o.ci
			for _, r := range idx {
				dst[r] = sa[r] + sb[r]*c
			}
			e.slots = append(e.slots, out)
		case opSquareI64:
			src := e.slots[o.a].I64()
			out := e.scratchOut(oi, vector.I64, curLen)
			dst := out.I64()
			for _, r := range idx {
				dst[r] = src[r] * src[r]
			}
			e.slots = append(e.slots, out)
		case opAffineF64:
			src := e.slots[o.a].F64()
			out := e.scratchOut(oi, vector.F64, curLen)
			dst := out.F64()
			c, d := o.cf, o.cg
			for _, r := range idx {
				dst[r] = src[r]*c + d
			}
			e.slots = append(e.slots, out)
		case opSquareF64:
			src := e.slots[o.a].F64()
			out := e.scratchOut(oi, vector.F64, curLen)
			dst := out.F64()
			for _, r := range idx {
				dst[r] = src[r] * src[r]
			}
			e.slots = append(e.slots, out)
		case opMulF64:
			sa, sb := e.slots[o.a].F64(), e.slots[o.b].F64()
			out := e.scratchOut(oi, vector.F64, curLen)
			dst := out.F64()
			for _, r := range idx {
				dst[r] = sa[r] * sb[r]
			}
			e.slots = append(e.slots, out)
		case opMulConstSubF64:
			sa, sb := e.slots[o.a].F64(), e.slots[o.b].F64()
			out := e.scratchOut(oi, vector.F64, curLen)
			dst := out.F64()
			c := o.cf
			for _, r := range idx {
				dst[r] = sa[r] * (c - sb[r])
			}
			e.slots = append(e.slots, out)
		case opMulConstAddF64:
			sa, sb := e.slots[o.a].F64(), e.slots[o.b].F64()
			out := e.scratchOut(oi, vector.F64, curLen)
			dst := out.F64()
			c := o.cf
			for _, r := range idx {
				dst[r] = sa[r] * (c + sb[r])
			}
			e.slots = append(e.slots, out)

		case opProbe:
			matched := e.runProbe(o)
			if matched == 0 {
				// No row survives: later ops would read payload slots
				// runProbe never built, so the chunk ends here, filtered.
				e.idx = e.idx[:0]
				break ops
			}
			curLen = matched
		}
	}

	if dense {
		e.identity(n)
	}
	outRows := len(e.idx)
	if outRows == 0 {
		return nil
	}

	if e.lend {
		e.out.Refill(e.names, e.slots)
		if outRows < curLen {
			e.out.SetSel(e.idx)
		}
		return &e.out
	}
	cols := make([]*vector.Vector, len(e.slots))
	if outRows < curLen {
		for i, v := range e.slots {
			cols[i] = vector.Condense(v, e.idx)
		}
	} else {
		copy(cols, e.slots)
		for oi, s := range e.scratch {
			if out := e.prog.ops[oi].out; s != nil && cols[out] == s {
				cols[out] = s.Clone()
			}
		}
	}
	return vector.ChunkFrom(e.names, cols)
}

// scratchOut returns compute op oi's output buffer resized to n rows. The
// buffer is reused by every chunk, so its contents are only valid until the
// chunk is emitted.
func (e *Exec) scratchOut(oi int, kind vector.Kind, n int) *vector.Vector {
	v := e.scratch[oi]
	if v == nil {
		v = vector.NewLen(kind, n)
		e.scratch[oi] = v
	}
	v.SetLen(n)
	return v
}

// runProbe matches the selected rows' keys against a join table and
// condenses the stream to the match pairs: every current slot is gathered by
// the matching probe rows, payload columns by the matching build rows —
// probe-major, match lists in build order, exactly the serial nested-emit
// order of the interpreted probe. Afterwards the selection is the identity
// over the matches. With no match nothing is gathered and the slots are left
// as they were: the caller ends the chunk. Like the interpreted probe, it
// emits a chunk's whole fan-out at once.
func (e *Exec) runProbe(o *op) int {
	t := e.resolved[o.table]
	keys := e.slots[o.a].I64()
	e.probeIdx = e.probeIdx[:0]
	e.buildIdx = e.buildIdx[:0]
	for _, r := range e.idx {
		for _, m := range t.Lookup(keys[r]) {
			e.probeIdx = append(e.probeIdx, r)
			e.buildIdx = append(e.buildIdx, m)
		}
	}
	matched := len(e.probeIdx)
	if matched == 0 {
		return 0
	}
	for i, v := range e.slots {
		e.slots[i] = vector.Condense(v, vector.Sel(e.probeIdx))
	}
	rows := t.Rows()
	for _, pi := range o.payIdx {
		e.slots = append(e.slots, vector.Condense(rows.Col(pi), vector.Sel(e.buildIdx)))
	}
	e.identity(matched)
	return matched
}

// filter runs filter op o over the selection sel — nil for the dense first
// filter of a chunk with no selection — into e.idx, and returns how many
// rows survive.
func (e *Exec) filter(o *op, sel []int32) int {
	col, dst := e.slots[o.a], e.idx
	switch o.code {
	case opFilterLtI64:
		return filterLt(col.I64(), o.ci, sel, dst)
	case opFilterLeI64:
		return filterLe(col.I64(), o.ci, sel, dst)
	case opFilterGtI64:
		return filterGt(col.I64(), o.ci, sel, dst)
	case opFilterGeI64:
		return filterGe(col.I64(), o.ci, sel, dst)
	case opFilterEqI64:
		return filterEq(col.I64(), o.ci, sel, dst)
	case opFilterNeI64:
		return filterNe(col.I64(), o.ci, sel, dst)
	case opFilterModEqI64:
		return filterModEq(col.I64(), o.ci, o.cj, sel, dst)
	case opFilterRangeI64:
		return filterRange(col.I64(), o.ci, uint64(o.cj), sel, dst)
	case opFilterLtF64:
		return filterLt(col.F64(), o.cf, sel, dst)
	case opFilterLeF64:
		return filterLe(col.F64(), o.cf, sel, dst)
	case opFilterGtF64:
		return filterGt(col.F64(), o.cf, sel, dst)
	case opFilterGeF64:
		return filterGe(col.F64(), o.cf, sel, dst)
	case opFilterEqF64:
		return filterEq(col.F64(), o.cf, sel, dst)
	case opFilterNeF64:
		return filterNe(col.F64(), o.cf, sel, dst)
	}
	return 0 // opFilterNone
}

// identity makes e.idx the selection of every row 0..n-1.
func (e *Exec) identity(n int) {
	e.idx = resize(e.idx, n)
	for i := range e.idx {
		e.idx[i] = int32(i)
	}
}

// resize returns s with length n, reallocating only when n exceeds its
// capacity; the contents are not kept.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
