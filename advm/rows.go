package advm

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/qtrace"
	"repro/internal/vector"
)

// Rows is a streaming cursor over a query's result, in the spirit of
// database/sql: the pipeline produces chunks lazily as the cursor advances,
// so callers consume arbitrarily large results incrementally instead of
// materializing them.
//
//	rows, err := sess.Query(ctx, plan)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	        var k int64
//	        if err := rows.Scan(&k); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Rows is not safe for concurrent use.
type Rows struct {
	ctx    context.Context
	cancel context.CancelFunc // cancels the query-private context on close
	op     engine.Operator
	schema []engine.ColInfo
	sess   *Session
	views  []*colstore.PrunedTable // pruned stored-table views of this query
	mops   []morselStatsSource     // morsel-dispatching operators of this query

	tier     string     // tier this query executed at ("" = tiering off)
	fusedRun bool       // fused loops were mounted for this query
	entry    *tierEntry // engine-wide hotness entry of the plan

	trace  *qtrace.Trace // execution trace (nil = tracing off)
	troot  *qtrace.Span  // query root span
	tviews []tracedView  // scan spans to stamp with segment skip counts

	chunk *vector.Chunk
	cols  []*vector.Vector // chunk columns resolved in schema order
	sel   vector.Sel       // current chunk's selection (nil = all rows)
	idx   int              // next row ordinal within the chunk
	row   int              // current physical row, valid after Next
	done  bool
	err   error
}

// Columns returns the result column names in schema order.
func (r *Rows) Columns() []string {
	names := make([]string, len(r.schema))
	for i, ci := range r.schema {
		names[i] = ci.Name
	}
	return names
}

// ColumnKinds returns the result column element kinds in schema order.
func (r *Rows) ColumnKinds() []Kind {
	kinds := make([]Kind, len(r.schema))
	for i, ci := range r.schema {
		kinds[i] = ci.Kind
	}
	return kinds
}

// Next advances to the next result row, fetching the next chunk from the
// pipeline when the current one is exhausted. It returns false at the end
// of the stream or on error; consult Err to distinguish.
func (r *Rows) Next() bool {
	if r.done || r.err != nil {
		return false
	}
	for {
		if r.chunk != nil {
			if r.sel != nil {
				if r.idx < len(r.sel) {
					r.row = int(r.sel[r.idx])
					r.idx++
					return true
				}
			} else if r.idx < r.chunk.Len() {
				r.row = r.idx
				r.idx++
				return true
			}
			r.chunk = nil
		}
		chunk, err := r.op.Next(r.ctx)
		if err != nil {
			r.err = classifyCtx(r.ctx, err)
			r.close()
			return false
		}
		if chunk == nil {
			r.close()
			return false
		}
		r.setChunk(chunk)
	}
}

func (r *Rows) setChunk(c *vector.Chunk) {
	r.chunk = c
	r.sel = c.Sel()
	r.idx = 0
	r.cols = r.cols[:0]
	for _, ci := range r.schema {
		r.cols = append(r.cols, c.MustColumn(ci.Name))
	}
}

// Scan copies the current row into dest, one destination per result column
// in schema order. Supported destinations: *bool, *int, *int64, *float64,
// *string, *Value, *any; nil skips a column. Integer columns of any width
// scan into *int64/*int; every kind scans into *any and *Value.
func (r *Rows) Scan(dest ...any) error {
	if r.chunk == nil {
		return errors.New("advm: Scan called without a successful Next")
	}
	if len(dest) != len(r.schema) {
		return fmt.Errorf("advm: Scan got %d destinations for %d columns", len(dest), len(r.schema))
	}
	for i, d := range dest {
		if d == nil {
			continue
		}
		v := r.cols[i].Get(r.row)
		if err := assign(d, v, r.schema[i].Name); err != nil {
			return err
		}
	}
	return nil
}

func assign(dest any, v Value, col string) error {
	switch d := dest.(type) {
	case *Value:
		*d = v
	case *any:
		switch v.Kind {
		case vector.Bool:
			*d = v.B
		case vector.F64:
			*d = v.F
		case vector.Str:
			*d = v.S
		default:
			*d = v.I
		}
	case *bool:
		if v.Kind != vector.Bool {
			return convErr(col, v, "bool")
		}
		*d = v.B
	case *int64:
		if !v.Kind.IsInteger() {
			return convErr(col, v, "int64")
		}
		*d = v.I
	case *int:
		if !v.Kind.IsInteger() {
			return convErr(col, v, "int")
		}
		if int64(int(v.I)) != v.I {
			return fmt.Errorf("advm: column %q value %d overflows int on this platform", col, v.I)
		}
		*d = int(v.I)
	case *float64:
		switch {
		case v.Kind == vector.F64:
			*d = v.F
		case v.Kind.IsInteger():
			*d = float64(v.I)
		default:
			return convErr(col, v, "float64")
		}
	case *string:
		if v.Kind != vector.Str {
			return convErr(col, v, "string")
		}
		*d = v.S
	default:
		return fmt.Errorf("advm: unsupported Scan destination %T for column %q", dest, col)
	}
	return nil
}

func convErr(col string, v Value, want string) error {
	return fmt.Errorf("advm: column %q holds %v, not scannable into *%s", col, v.Kind, want)
}

// Count drains the stream from the cursor's current position and returns
// the number of remaining result rows, counting chunk-at-a-time without
// per-row cursor work — use it instead of a Next loop when only the
// cardinality matters. The cursor is closed afterwards.
func (r *Rows) Count() (int64, error) {
	if r.done || r.err != nil {
		return 0, r.err
	}
	var n int64
	if r.chunk != nil {
		if r.sel != nil {
			n += int64(len(r.sel) - r.idx)
		} else {
			n += int64(r.chunk.Len() - r.idx)
		}
		r.chunk = nil
	}
	for {
		chunk, err := r.op.Next(r.ctx)
		if err != nil {
			r.err = classifyCtx(r.ctx, err)
			r.close()
			return n, r.err
		}
		if chunk == nil {
			r.close()
			return n, nil
		}
		n += int64(chunk.SelectedLen())
	}
}

// Err returns the error, if any, that ended iteration. A cancelled context
// surfaces here as ErrCancelled.
func (r *Rows) Err() error { return r.err }

// ScanStats reports the zone-map pruning outcome of this query over its
// disk-backed tables: how many distinct stored segments its scans read and
// how many they skipped without touching. Live while the stream is being
// consumed, final once it is drained or closed; both are zero when the query
// reads no prunable stored table (or pruning is off).
func (r *Rows) ScanStats() (segmentsScanned, segmentsSkipped int64) {
	for _, v := range r.views {
		sc, sk := v.Stats()
		segmentsScanned += sc
		segmentsSkipped += sk
	}
	return segmentsScanned, segmentsSkipped
}

// Steals reports how many morsels of this query were executed by a worker
// other than the one that initially owned them — the work-stealing
// scheduler's rebalancing activity. Valid once the stream is drained or
// closed; zero for serial queries, balanced loads that never needed to
// steal, or while the stream is still being consumed. Steal counts are a
// scheduling observation only: result bytes are identical whether or not
// any morsel migrated.
func (r *Rows) Steals() int64 {
	var n int64
	for _, op := range r.mops {
		n += op.MorselStats().Steals()
	}
	return n
}

// Tier reports the tier this query executed at under tiered execution —
// "cold", "warm" (segment compiled, still interpreted) or "hot" (fused loops
// mounted where the plan allows). It returns "" when tiered execution is off.
func (r *Rows) Tier() string { return r.tier }

// Fused reports whether fused loops were mounted for this query (hot tier
// with a fusable segment). The result bytes are identical either way.
func (r *Rows) Fused() bool { return r.fusedRun }

// Close releases the pipeline's resources: it cancels the query's private
// context — so in-flight parallel workers abort at their next chunk boundary
// instead of draining their current morsels — then tears the pipeline down,
// returning pooled workers. It is idempotent and implied by exhausting Next.
func (r *Rows) Close() error {
	r.close()
	return nil
}

func (r *Rows) close() {
	if r.done {
		return
	}
	r.done = true
	r.chunk = nil
	if r.cancel != nil {
		// Cancel before Close: Exchange.Close waits for in-flight workers,
		// and cancellation is what makes them exit promptly mid-morsel.
		r.cancel()
	}
	r.op.Close()
	if len(r.views) > 0 && r.sess != nil {
		// close runs at most once (guarded by r.done), so the session's
		// lifetime counters absorb each query's totals exactly once.
		sc, sk := r.ScanStats()
		r.sess.segmentsScanned.Add(sc)
		r.sess.segmentsSkipped.Add(sk)
	}
	if len(r.mops) > 0 && r.sess != nil {
		// Dispatch stats are stored by the operators when their run
		// finishes; op.Close above has already joined the workers.
		if st := r.Steals(); st > 0 {
			r.sess.morselSteals.Add(st)
		}
	}
	if r.fusedRun && r.sess != nil {
		r.sess.fusedQueries.Add(1)
		r.sess.eng.fusedQueries.Add(1)
		if r.entry != nil {
			r.entry.fusedRuns.Add(1)
		}
	}
	if r.trace != nil {
		// All workers have joined (op.Close above), so the span counters
		// are quiescent; stamp the summary attributes and end every span.
		r.finishTrace()
	}
}
