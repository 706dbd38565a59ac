package fused

import (
	"context"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/vector"
)

// Counters is the per-query tier telemetry, shared by every worker's Exec
// (atomics — workers never synchronize beyond them). The advm layer merges a
// query's counters into session and engine totals when its cursor closes.
type Counters struct {
	// Chunks counts chunks processed by fused loops; Rows counts the rows
	// those chunks emitted.
	Chunks, Rows atomic.Int64
	// Deopts counts guard failures that reverted an Exec to the interpreter.
	Deopts atomic.Int64
	// OnDeopt, when non-nil, is invoked once per deopt in addition to the
	// Deopts increment (the tracing layer emits a deopt event through it).
	// Set it before the query starts; it may be called from any worker, so
	// it must be safe for concurrent use.
	OnDeopt func()
}

// Guard tuning. The selectivity guard learns a mean output/input row ratio
// over the first chunks of each Exec and trips when one chunk exceeds
// guardFactor× that mean plus guardSlack — a mid-stream distribution shift
// the loop was not specialized for (mirroring the VM's micro-adaptive
// revert). The slack keeps naturally clustered data — date-sorted TPC-H
// scans where in-range regions follow empty ones — from tripping it: only a
// shift past an absolute half of the chunk deopts a loop that warmed up on
// highly selective data. The capacity guard bounds probe fan-out per chunk.
const (
	guardWarmChunks = 4
	guardFactor     = 8.0
	guardSlack      = 0.5
	probeFanoutCap  = 4
)

// Exec drives one compiled Program over a scan leaf as a regular
// engine.Operator: serial queries mount it directly on the scan, parallel
// queries mount one per worker over that worker's windowed leaf. All state —
// guards, scratch buffers, resolved join tables, the deopt fallback — is
// private to the Exec, so the Program itself stays immutable and shared.
type Exec struct {
	prog     *Program
	leaf     engine.Operator
	tables   []*engine.SharedJoinTable
	ctrs     *Counters
	fallback func(engine.Operator) (engine.Operator, error)

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

	// Selectivity guard state.
	warm    int
	rateSum float64
	bound   float64

	// Deopt state: once a guard trips, the offending chunk and every later
	// leaf chunk replay through the interpreted fallback chain, fed one
	// chunk at a time.
	deopted bool
	feed    *feedLeaf
	fb      engine.Operator
}

// NewExec mounts prog over a scan leaf. tables supplies the query's shared
// join-table handles in program order (prog.Tables() of them); fallback
// builds the interpreted stage chain over a leaf — it is only invoked if a
// guard trips. ctrs may be nil.
func NewExec(prog *Program, leaf engine.Operator, tables []*engine.SharedJoinTable,
	ctrs *Counters, fallback func(engine.Operator) (engine.Operator, error)) *Exec {
	e := &Exec{prog: prog, leaf: leaf, tables: tables, ctrs: ctrs, fallback: fallback,
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
		if e.deopted {
			out, err := e.fb.Next(ctx)
			if err != nil || out != nil {
				return out, err
			}
			in, err := e.leaf.Next(ctx)
			if err != nil || in == nil {
				return nil, err
			}
			e.feed.ch = in
			continue
		}
		in, err := e.leaf.Next(ctx)
		if err != nil || in == nil {
			return nil, err
		}
		out, ok := e.runChunk(in)
		if !ok {
			if err := e.deopt(ctx, in); err != nil {
				return nil, err
			}
			continue
		}
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
func (e *Exec) Close() error {
	if e.fb != nil {
		e.fb.Close()
	}
	return e.leaf.Close()
}

// Deopted reports whether a guard reverted this Exec to the interpreter.
func (e *Exec) Deopted() bool { return e.deopted }

// deopt reverts to the interpreted stage chain mid-query: the chunk whose
// guard tripped has produced no output yet, so it simply replays — along
// with every later leaf chunk — through a fallback pipeline fed one chunk at
// a time. Output bytes are identical either way; only the execution strategy
// changes, at a chunk boundary, exactly like the VM's trace revert.
func (e *Exec) deopt(ctx context.Context, in *vector.Chunk) error {
	e.feed = &feedLeaf{schema: e.leaf.Schema()}
	fb, err := e.fallback(e.feed)
	if err != nil {
		return err
	}
	if err := fb.Open(ctx); err != nil {
		return err
	}
	e.fb = fb
	e.feed.ch = in
	e.deopted = true
	if e.ctrs != nil {
		e.ctrs.Deopts.Add(1)
		if e.ctrs.OnDeopt != nil {
			e.ctrs.OnDeopt()
		}
	}
	return nil
}

// feedLeaf is the single-chunk source under a deopt fallback chain: each
// fed chunk is served once, then the chain sees end-of-stream until the next
// feed. The interpreted stages are stateless across chunks, so driving them
// chunk-at-a-time this way is indistinguishable from a real scan.
type feedLeaf struct {
	schema []engine.ColInfo
	ch     *vector.Chunk
}

func (f *feedLeaf) Schema() []engine.ColInfo   { return f.schema }
func (f *feedLeaf) Open(context.Context) error { return nil }
func (f *feedLeaf) Close() error               { return nil }
func (f *feedLeaf) Next(context.Context) (*vector.Chunk, error) {
	ch := f.ch
	f.ch = nil
	return ch, nil
}
