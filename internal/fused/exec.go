package fused

import (
	"context"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/vector"
)

// Counters is the per-query tier telemetry, shared by every worker's Exec
// (atomics — workers never synchronize beyond them).
type Counters struct {
	// Chunks counts chunks processed by fused loops; Rows counts the rows
	// those chunks emitted.
	Chunks, Rows atomic.Int64
}

// Exec drives one compiled Program over a scan leaf as a regular
// engine.Operator: serial queries mount it directly on the scan, parallel
// queries mount one per worker over that worker's windowed leaf. All state —
// scratch buffers and resolved join tables — is private to the Exec, so the
// Program itself stays immutable and shared. An Exec runs every leaf chunk
// through the fused loop, to the end of its stream.
type Exec struct {
	prog   *Program
	leaf   engine.Operator
	tables []*engine.SharedJoinTable
	ctrs   *Counters

	resolved []*engine.JoinTable

	// Reusable scratch (allocation-free across chunks after warm-up).
	idx      []int32
	probeIdx []int32
	buildIdx []int32
	slots    []*vector.Vector
	scratch  []*vector.Vector // compute outputs, indexed by op
	names    []string         // output column names, shared by emitted chunks

	// lend is set at Open when the leaf is a lent engine.PartScan: the
	// consumer is then done with each chunk before the next Next, so the
	// loop emits its slots, scratch and e.idx in the reused out header
	// instead of copying them.
	lend bool
	out  vector.Chunk
}

// NewExec mounts prog over a scan leaf. tables supplies the query's shared
// join-table handles in program order (prog.Tables() of them). ctrs may be
// nil.
func NewExec(prog *Program, leaf engine.Operator, tables []*engine.SharedJoinTable, ctrs *Counters) *Exec {
	e := &Exec{prog: prog, leaf: leaf, tables: tables, ctrs: ctrs,
		scratch: make([]*vector.Vector, len(prog.ops))}
	for _, s := range prog.slots {
		e.names = append(e.names, s.Name)
	}
	return e
}

// Schema implements engine.Operator.
func (e *Exec) Schema() []engine.ColInfo { return e.prog.Schema() }

// Open implements engine.Operator: it opens the leaf and resolves the shared
// join tables (building each at most once per query, exactly as the
// interpreted TableProbe would).
func (e *Exec) Open(ctx context.Context) error {
	if err := e.leaf.Open(ctx); err != nil {
		return err
	}
	ps, ok := e.leaf.(*engine.PartScan)
	e.lend = ok && ps.Lent()
	e.resolved = e.resolved[:0]
	for _, sh := range e.tables {
		t, err := sh.Table(ctx)
		if err != nil {
			return err
		}
		e.resolved = append(e.resolved, t)
	}
	return nil
}

// Next implements engine.Operator.
func (e *Exec) Next(ctx context.Context) (*vector.Chunk, error) {
	for {
		in, err := e.leaf.Next(ctx)
		if err != nil || in == nil {
			return nil, err
		}
		out := e.runChunk(in)
		if out == nil {
			continue // fully filtered chunk
		}
		if e.ctrs != nil {
			e.ctrs.Chunks.Add(1)
			e.ctrs.Rows.Add(int64(out.SelectedLen()))
		}
		return out, nil
	}
}

// Close implements engine.Operator.
func (e *Exec) Close() error { return e.leaf.Close() }
