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
	if n == 0 {
		return nil
	}
	e.slots = e.slots[:0]
	for i := 0; i < in.Width(); i++ {
		e.slots = append(e.slots, in.Col(i))
	}
	e.idx = e.idx[:0]
	if s := in.Sel(); s != nil {
		e.idx = append(e.idx, s...)
	} else {
		for i := 0; i < n; i++ {
			e.idx = append(e.idx, int32(i))
		}
	}
	curLen := n

ops:
	for oi := range e.prog.ops {
		o := &e.prog.ops[oi]
		idx := e.idx
		k := 0
		switch o.code {

		case opFilterLtI64:
			src, c := e.slots[o.a].I64(), o.ci
			for _, r := range idx {
				if src[r] < c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterLeI64:
			src, c := e.slots[o.a].I64(), o.ci
			for _, r := range idx {
				if src[r] <= c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterGtI64:
			src, c := e.slots[o.a].I64(), o.ci
			for _, r := range idx {
				if src[r] > c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterGeI64:
			src, c := e.slots[o.a].I64(), o.ci
			for _, r := range idx {
				if src[r] >= c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterEqI64:
			src, c := e.slots[o.a].I64(), o.ci
			for _, r := range idx {
				if src[r] == c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterNeI64:
			src, c := e.slots[o.a].I64(), o.ci
			for _, r := range idx {
				if src[r] != c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterModEqI64:
			src, m, c := e.slots[o.a].I64(), o.ci, o.cj
			for _, r := range idx {
				if src[r]%m == c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]

		case opFilterLtF64:
			src, c := e.slots[o.a].F64(), o.cf
			for _, r := range idx {
				if src[r] < c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterLeF64:
			src, c := e.slots[o.a].F64(), o.cf
			for _, r := range idx {
				if src[r] <= c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterGtF64:
			src, c := e.slots[o.a].F64(), o.cf
			for _, r := range idx {
				if src[r] > c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterGeF64:
			src, c := e.slots[o.a].F64(), o.cf
			for _, r := range idx {
				if src[r] >= c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterEqF64:
			src, c := e.slots[o.a].F64(), o.cf
			for _, r := range idx {
				if src[r] == c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]
		case opFilterNeF64:
			src, c := e.slots[o.a].F64(), o.cf
			for _, r := range idx {
				if src[r] != c {
					idx[k] = r
					k++
				}
			}
			e.idx = idx[:k]

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
	e.idx = e.idx[:0]
	for i := 0; i < matched; i++ {
		e.idx = append(e.idx, int32(i))
	}
	return matched
}
