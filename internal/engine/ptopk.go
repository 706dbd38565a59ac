// Morsel-parallel top-k: per-morsel candidate selection merged in morsel
// sequence order, mirroring ParallelAgg's private-table shape.

package engine

import (
	"context"
	"fmt"

	"repro/internal/vector"
)

// ParallelTopK is a morsel-parallel top-k over a streaming pipeline: worker
// pipelines process morsels concurrently under work-stealing dispatch, each
// morsel reducing its own output — with exactly the serial operator's
// selection, topKSelect — to at most k candidate rows slotted by the
// morsel's dense sequence number. When the run completes, the candidates are
// concatenated in sequence order and the same selection picks the global
// top k.
//
// Determinism: topKSelect orders rows totally — the order columns under
// compareF64's NaN-aware order for f64, then table order — so the global top
// k is a well-defined set of rows. A row in it is necessarily in the top k
// of its own morsel: if k rows of the same morsel ordered before it, those k
// rows would order before it globally too. Candidate selection therefore
// never drops a winner, and the sequence-ordered concatenation restores
// table order across morsels, so the final selection breaks ties exactly as
// the serial one over the full input: in table order. There is no
// arithmetic anywhere in the fold, so — unlike aggregation — not even the
// morsel length participates: result bytes equal the serial TopK's at every
// worker count, chunk length and morsel length.
type ParallelTopK struct {
	*workerPipes
	k      int
	by     []OrderSpec
	schema []ColInfo

	out     *vector.Chunk
	emitted bool
}

// NewParallelTopK builds a parallel top-k over store with workers pipelines;
// mk instantiates each worker's private pipeline over its scan leaf (the
// leaf itself for a top-k straight over a scan).
func NewParallelTopK(store vector.Store, columns []string, workers int,
	mk func(worker int, leaf Operator) (Operator, error),
	k int, by ...OrderSpec) (*ParallelTopK, error) {
	if workers < 1 {
		return nil, fmt.Errorf("engine: parallel top-k needs ≥ 1 worker, got %d", workers)
	}
	if k <= 0 {
		return nil, fmt.Errorf("engine: top-k needs k ≥ 1, got %d", k)
	}
	if len(by) == 0 {
		return nil, fmt.Errorf("engine: top-k needs at least one order column")
	}
	pipes, err := newWorkerPipes("parallel top-k", store, columns, workers, mk)
	if err != nil {
		return nil, err
	}
	t := &ParallelTopK{workerPipes: pipes, k: k, by: by, schema: pipes.pipes[0].Schema()}
	for _, o := range by {
		found := false
		for _, ci := range t.schema {
			if ci.Name == o.Col {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("engine: top-k order column %q not produced by child", o.Col)
		}
	}
	return t, nil
}

// SetChunkLen overrides the chunk length of every worker's scan leaf.
func (t *ParallelTopK) SetChunkLen(n int) *ParallelTopK {
	t.setChunkLen(n)
	return t
}

// SetMorselLen overrides the dispatch granularity.
func (t *ParallelTopK) SetMorselLen(n int) *ParallelTopK {
	t.setMorselLen(n)
	return t
}

// Schema implements Operator.
func (t *ParallelTopK) Schema() []ColInfo { return t.schema }

// Open implements Operator.
func (t *ParallelTopK) Open(ctx context.Context) error {
	if err := t.open(ctx); err != nil {
		return err
	}
	t.emitted = false
	t.out = nil
	return nil
}

// storeSchema converts the operator schema into a vector.Schema.
func storeSchema(schema []ColInfo) vector.Schema {
	sch := vector.Schema{}
	for _, ci := range schema {
		sch.Names = append(sch.Names, ci.Name)
		sch.Kinds = append(sch.Kinds, ci.Kind)
	}
	return sch
}

// Next implements Operator: the first call runs the whole parallel top-k
// synchronously and emits the single result chunk.
func (t *ParallelTopK) Next(ctx context.Context) (*vector.Chunk, error) {
	if t.emitted {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.emitted = true

	sch := storeSchema(t.schema)
	numMorsels := (t.store.Rows() + t.morselLen - 1) / t.morselLen
	// At most one candidate chunk (≤ k rows) per morsel, slotted by sequence
	// number: written by exactly one worker, read after the run completes.
	cands := make([]*vector.Chunk, numMorsels)
	err := t.run(func(_, lo int, pipe Operator) (int64, error) {
		chunks, err := drainMorsel(ctx, pipe)
		if err != nil {
			return 0, err
		}
		local := vector.NewDSMStore(sch)
		for _, c := range chunks {
			cc := c
			if c.Sel() != nil {
				cc = c.Condense()
			}
			if cc.Len() > 0 {
				local.AppendChunk(projectTo(cc, sch.Names))
			}
		}
		if local.Rows() > 0 {
			cands[lo/t.morselLen] = topKSelect(storeChunk(local), t.schema, t.k, t.by)
		}
		return int64(local.Rows()), nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Concatenate the candidates in morsel sequence order — restoring table
	// order across morsels — and reduce with the same selection.
	all := vector.NewDSMStore(sch)
	for _, c := range cands {
		if c != nil {
			all.AppendChunk(c)
		}
	}
	t.out = topKSelect(storeChunk(all), t.schema, t.k, t.by)
	return t.out, nil
}

// Close implements Operator.
func (t *ParallelTopK) Close() error {
	t.close()
	return nil
}
