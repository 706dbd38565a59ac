// Package engine is the relational layer on top of the adaptive VM: a
// chunk-at-a-time operator pipeline (scan, compute, filter, hash join, hash
// aggregation) in which scalar expressions and predicates are written in the
// DSL, lowered through the normalizer and executed by the VM — so hot
// expressions JIT-compile into fused traces exactly as §III prescribes,
// while the operators themselves host the workload-specific optimizations
// of §III-C: full-vs-selective predicate evaluation, Bloom filters in
// selective hash joins, adaptive pre-aggregation, and on-the-fly reordering
// of selective operators.
//
// Concurrency contract: a single Operator instance is single-goroutine —
// Open, Next and Close are never called concurrently. Parallelism enters
// through the dispatching operators (Exchange, ParallelAgg, ParallelTopK,
// BuildJoinTableParallel), which instantiate one private pipeline per worker
// over a windowed scan and run them under work-stealing morsel dispatch
// (package morsel); worker pipelines share nothing mutable except
// read-only inputs — the table store, SharedJoinTable builds and cached
// fused programs.
//
// Chunk ownership: every operator treats the columns of its input chunks as
// read-only. Chunks scanned from an in-RAM table (a vector.Viewer) alias the
// table's storage: an operator that wrote into its input would corrupt the
// table, and the table must not be mutated while a query reads it.
// Operators derive new columns into storage of their own.
//
// A chunk is owned by default: once emitted it is never written again, so
// consumers may hold it across Next calls and hand it between goroutines.
// A chunk may instead be lent: it stays valid only until its producer's
// next Next, which may overwrite its columns, selection and header. Lending
// is structural and starts at the pipeline breaker. ParallelAgg lends the
// scan leaf of every worker pipeline it folds chunk by chunk (PartScan.Lend),
// since it folds each chunk into its table — copying the keys and values it
// keeps — before it pulls the next; an operator over a lent leaf may then
// lend its own output (fused.Exec emits its scratch). Every consumer that
// holds or buffers chunks must keep owned ones and therefore must not
// lend: Exchange and its morsel drains, ParallelTopK, the serial TopK
// (which holds a one-chunk child's output and selects in place), the
// parallel join build, serial roots and the public Rows cursor.
//
// Determinism is structural, not scheduled: exchanges emit
// chunks in morsel sequence order and parallel aggregation folds per-morsel
// pre-aggregation tables in morsel sequence order, so result bytes depend
// on the morsel length (which pins how f64 accumulation is blocked) but
// never on worker count, steal pattern or chunk length.
package engine

import (
	"context"
	"fmt"

	"repro/internal/vector"
)

// ColInfo describes one output column of an operator.
type ColInfo struct {
	Name string
	Kind vector.Kind
}

// Operator is a chunk-at-a-time relational operator (Volcano-style but
// vectorized: Next returns a chunk, not a tuple). Open and Next carry a
// context so long-running pipelines honor cancellation and deadlines at
// chunk granularity: leaf operators check ctx on every chunk they produce,
// and pipeline breakers (joins, aggregations) check it while materializing.
type Operator interface {
	// Schema returns the operator's output columns.
	Schema() []ColInfo
	// Open prepares execution (builds hash tables etc.).
	Open(ctx context.Context) error
	// Next returns the next chunk, or nil at end of stream.
	Next(ctx context.Context) (*vector.Chunk, error)
	// Close releases resources.
	Close() error
}

// RangeSkipper is implemented by stores that can prove whole row windows
// irrelevant to the running query (zone-map pruning over pushed-down filter
// intervals). SkipRange(lo, hi) == true licenses the scan to drop rows
// [lo, hi) without reading them: every one of them would have been dropped
// by a filter that still executes downstream. Scans advance their position
// over skipped windows exactly as over produced ones, so chunk boundaries —
// and therefore every order-sensitive result — match the unskipped run.
type RangeSkipper interface {
	SkipRange(lo, hi int) bool
}

// Scan reads a whole stored table chunk-at-a-time: a PartScan whose window
// every Open re-arms to the full table, so its chunks follow PartScan's
// contract (views of in-RAM tables, fresh copies of anything else).
type Scan struct {
	PartScan
}

// NewScan creates a scan over the named columns of store.
func NewScan(store vector.Store, columns ...string) (*Scan, error) {
	ps, err := NewPartScan(store, columns...)
	if err != nil {
		return nil, err
	}
	return &Scan{PartScan: *ps}, nil
}

// resolveColumns maps column names (all columns when none are given) onto
// store indexes and the corresponding output schema.
func resolveColumns(store vector.Store, columns []string) ([]int, []ColInfo, error) {
	sch := store.Schema()
	if len(columns) == 0 {
		columns = sch.Names
	}
	cols := make([]int, 0, len(columns))
	schema := make([]ColInfo, 0, len(columns))
	for _, name := range columns {
		idx := sch.ColumnIndex(name)
		if idx < 0 {
			return nil, nil, fmt.Errorf("engine: scan column %q not in schema %v", name, sch.Names)
		}
		cols = append(cols, idx)
		schema = append(schema, ColInfo{Name: name, Kind: sch.Kinds[idx]})
	}
	return cols, schema, nil
}

// SetChunkLen overrides the scan's chunk length (default
// vector.DefaultChunkLen).
func (s *Scan) SetChunkLen(n int) *Scan {
	s.PartScan.SetChunkLen(n)
	return s
}

// Open implements Operator: it rewinds the scan to the table's first row.
func (s *Scan) Open(ctx context.Context) error {
	s.SetRange(0, s.store.Rows())
	return ctx.Err()
}

// Drain pulls every chunk of op through fn.
func Drain(ctx context.Context, op Operator, fn func(*vector.Chunk) error) error {
	if err := op.Open(ctx); err != nil {
		return err
	}
	defer op.Close()
	for {
		c, err := op.Next(ctx)
		if err != nil {
			return err
		}
		if c == nil {
			return nil
		}
		if err := fn(c); err != nil {
			return err
		}
	}
}

// Collect materializes an operator's full output into a DSM store. The
// schema is read after Open, since pipeline breakers (joins, aggregations)
// resolve their output schema there.
func Collect(ctx context.Context, op Operator) (*vector.DSMStore, error) {
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	defer op.Close()
	return collectOpen(ctx, op)
}

// collectOpen materializes the remaining output of an already-open operator.
func collectOpen(ctx context.Context, op Operator) (*vector.DSMStore, error) {
	sch := vector.Schema{}
	for _, ci := range op.Schema() {
		sch.Names = append(sch.Names, ci.Name)
		sch.Kinds = append(sch.Kinds, ci.Kind)
	}
	out := vector.NewDSMStore(sch)
	for {
		c, err := op.Next(ctx)
		if err != nil {
			return nil, err
		}
		if c == nil {
			return out, nil
		}
		out.AppendChunk(projectTo(c, sch.Names))
	}
}

func projectTo(c *vector.Chunk, names []string) *vector.Chunk {
	out := vector.NewChunk()
	for _, name := range names {
		out.Add(name, c.MustColumn(name))
	}
	out.SetSel(c.Sel())
	return out
}

// CountRows counts the (selected) rows an operator produces.
func CountRows(ctx context.Context, op Operator) (int64, error) {
	var n int64
	err := Drain(ctx, op, func(c *vector.Chunk) error {
		n += int64(c.SelectedLen())
		return nil
	})
	return n, err
}
