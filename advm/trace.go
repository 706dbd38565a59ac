package advm

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/qtrace"
	"repro/internal/vector"
)

// TraceLevel selects how much execution tracing a query records; see
// WithTracing.
type TraceLevel = qtrace.Level

// Trace levels.
const (
	// TraceOff records nothing (default); the tracing hooks reduce to nil
	// checks on the execution hot path.
	TraceOff = qtrace.LevelOff
	// TraceOps records the query/operator span tree: per-operator busy
	// time, rows, loops, tier, and one-off events (fused compile).
	TraceOps = qtrace.LevelOps
	// TraceMorsels additionally records one leaf span per dispatched
	// morsel with worker and steal attribution — the level
	// ExplainAnalyze and the Chrome trace export use.
	TraceMorsels = qtrace.LevelMorsels
)

// WithTracing sets the default trace level of the session's queries
// (default TraceOff). Per-query overrides go through Session.QueryTraced.
// Disabled tracing costs a nil check per operator call; TraceOps adds two
// monotonic clock reads per operator Next; TraceMorsels adds one span
// allocation per dispatched morsel.
func WithTracing(level TraceLevel) Option {
	return func(o *options) error {
		switch level {
		case TraceOff, TraceOps, TraceMorsels:
			o.tracing = level
			return nil
		}
		return fmt.Errorf("unknown trace level %v", level)
	}
}

// initTrace creates the query's span tree skeleton: one root span plus one
// operator span per plan node, keyed by the node so every physical
// instantiation — serial chain, exchange workers, fused loop — reports
// into the same tree. The node set is therefore a function of the plan
// alone, identical at every parallelism.
func (b *builder) initTrace(level TraceLevel, plan *Plan, workers int) {
	b.trace = qtrace.New(level)
	if b.trace == nil {
		return
	}
	b.troot = b.trace.Root("query")
	b.troot.SetAttr("workers", workers)
	b.spans = map[*Plan]*qtrace.Span{}
	b.buildSpans = map[*Plan]*qtrace.Span{}
	b.addSpans(b.troot, plan)
}

func (b *builder) addSpans(parent *qtrace.Span, p *Plan) {
	if p == nil {
		return
	}
	var sp *qtrace.Span
	switch p.kind {
	case planScan:
		sp = parent.Child(qtrace.KindOp, "scan")
		sp.SetAttr("table_rows", p.table.Rows())
	case planFilter:
		sp = parent.Child(qtrace.KindOp, "filter")
		sp.SetAttr("col", p.col)
	case planCompute:
		sp = parent.Child(qtrace.KindOp, "compute")
		sp.SetAttr("out", p.out)
	case planAggregate:
		sp = parent.Child(qtrace.KindOp, "aggregate")
		if len(p.keys) > 0 {
			sp.SetAttr("keys", strings.Join(p.keys, ","))
		}
	case planJoin:
		sp = parent.Child(qtrace.KindOp, "join-probe")
		sp.SetAttr("on", p.probeKey+"="+p.buildKey)
	case planTopK:
		sp = parent.Child(qtrace.KindOp, "topk")
		sp.SetAttr("k", p.k)
	}
	b.spans[p] = sp
	if p.kind == planJoin {
		// The build side nests under a synthetic join-build span so its
		// materialization cost is separable from the probe stream.
		jb := sp.Child(qtrace.KindOp, "join-build")
		b.buildSpans[p] = jb
		b.addSpans(jb, p.buildSide)
	}
	b.addSpans(sp, p.child)
}

// traced wraps op so its Open/Next time, loops, and rows accumulate on the
// plan node's span. A no-op (returning op unchanged) when tracing is off.
func (b *builder) traced(p *Plan, op engine.Operator) engine.Operator {
	sp := b.spans[p]
	if sp == nil {
		return op
	}
	return &tracedOp{inner: op, sp: sp}
}

// tracedSelfTimed is traced for an operator that charges the span its own
// busy time, summed over its workers (engine.ParallelAgg): the wrapper
// times Open and counts loops and rows, leaves the busy time of Next to the
// operator, and reports the time its caller waits as call time, which the
// span above subtracts for its own self time. The span is marked summed.
func (b *builder) tracedSelfTimed(p *Plan, op engine.Operator) engine.Operator {
	sp := b.spans[p]
	if sp == nil {
		return op
	}
	sp.SetSummed()
	return &tracedOp{inner: op, sp: sp, selfTimed: true}
}

// markWorkerSpans marks the spans of a segment that morsel workers run as
// summed: each worker's private pipeline charges the same stage and scan
// spans, so their busy time adds up over workers.
func (b *builder) markWorkerSpans(stages []*Plan, scan *Plan) {
	if b.trace == nil {
		return
	}
	for _, st := range stages {
		b.spans[st].SetSummed()
	}
	b.spans[scan].SetSummed()
}

// tracedLeaf attaches the scan node's span to the scan leaf of a worker
// pipeline. The engine builds those leaves itself, so they never pass
// through traced; the leaf stays an *engine.PartScan, which a fused loop
// over it relies on to lend. Any other leaf is returned as it is.
func (b *builder) tracedLeaf(scan *Plan, leaf engine.Operator) engine.Operator {
	if ps, ok := leaf.(*engine.PartScan); ok && b.spans[scan] != nil {
		ps.SetTrace(b.spans[scan])
	}
	return leaf
}

// traceMorsels reports whether per-morsel leaf spans are recorded.
func (b *builder) traceMorsels() bool { return b.trace.Morsels() }

// traceEvent records a zero-duration marker at the query root.
func (b *builder) traceEvent(name string) {
	if b.trace != nil {
		b.trace.Event(b.troot, name)
	}
}

// tracedOp times one operator into its plan-node span. Worker pipelines
// instantiate one tracedOp per worker over a shared span; the counters are
// atomics, so the sharing is contention-light and race-free.
type tracedOp struct {
	inner     engine.Operator
	sp        *qtrace.Span
	selfTimed bool // inner charges sp the busy time of its Next itself
}

func (t *tracedOp) Schema() []engine.ColInfo { return t.inner.Schema() }

func (t *tracedOp) Open(ctx context.Context) error {
	start := time.Now()
	err := t.inner.Open(ctx)
	d := time.Since(start)
	t.sp.AddTime(d)
	if t.selfTimed {
		t.sp.AddCallTime(d)
	}
	return err
}

func (t *tracedOp) Next(ctx context.Context) (*vector.Chunk, error) {
	start := time.Now()
	c, err := t.inner.Next(ctx)
	if t.selfTimed {
		t.sp.AddCallTime(time.Since(start))
	} else {
		t.sp.AddTime(time.Since(start))
	}
	t.sp.AddLoop()
	if c != nil {
		t.sp.AddRows(int64(c.SelectedLen()))
	}
	return c, err
}

// grouper is an aggregation operator that names its grouping path
// (engine.HashAgg, engine.ParallelAgg).
type grouper interface{ GroupPath() string }

func (t *tracedOp) Close() error {
	err := t.inner.Close()
	if g, ok := t.inner.(grouper); ok {
		if path := g.GroupPath(); path != "" {
			t.sp.SetAttr("group", path)
		}
	}
	t.sp.End()
	return err
}

// timedJoinBuild wraps a shared join-table build recipe so its wall time
// and output rows land on the join-build span.
func timedJoinBuild(sp *qtrace.Span, build func(context.Context) (*engine.JoinTable, error)) func(context.Context) (*engine.JoinTable, error) {
	if sp == nil {
		return build
	}
	return func(ctx context.Context) (*engine.JoinTable, error) {
		start := time.Now()
		tbl, err := build(ctx)
		sp.AddTime(time.Since(start))
		sp.AddLoop()
		if tbl != nil {
			sp.AddRows(int64(tbl.Rows().Rows()))
		}
		sp.End()
		return tbl, err
	}
}

// tracedView pairs a pruned stored-table view with its scan span so the
// per-scan segment scan/skip counts can be attached when the query ends.
type tracedView struct {
	sp   *qtrace.Span
	view *colstore.PrunedTable
}

// tracedViews collects the scan spans whose leaves read pruned views.
func (b *builder) tracedViews() []tracedView {
	if b.trace == nil {
		return nil
	}
	var out []tracedView
	for p, sp := range b.spans {
		if p.kind != planScan || sp == nil {
			continue
		}
		if v, ok := b.pruned[p].(*colstore.PrunedTable); ok {
			out = append(out, tracedView{sp: sp, view: v})
		}
	}
	return out
}

// Trace returns the query's execution trace, nil when the query ran with
// tracing off. The trace is complete (all spans ended, summary attributes
// attached) once the cursor is drained or closed.
func (r *Rows) Trace() *qtrace.Trace { return r.trace }

// finishTrace attaches the end-of-query summary attributes and closes
// every span. Called exactly once from Rows.close.
func (r *Rows) finishTrace() {
	if len(r.mops) > 0 {
		r.troot.SetAttr("steals", r.Steals())
	}
	if len(r.views) > 0 {
		sc, sk := r.ScanStats()
		r.troot.SetAttr("segments_scanned", sc)
		r.troot.SetAttr("segments_skipped", sk)
	}
	for _, tv := range r.tviews {
		sc, sk := tv.view.Stats()
		tv.sp.SetAttr("segments_scanned", sc)
		tv.sp.SetAttr("segments_skipped", sk)
	}
	r.trace.Finish()
}

// ExplainAnalyze executes the plan to completion with full tracing
// (TraceMorsels) and renders the PostgreSQL-style EXPLAIN ANALYZE tree:
// per-operator actual time, self time, rows and loops, per-worker morsel
// counts, steals, tier, and colstore segment skip counts.
func (s *Session) ExplainAnalyze(ctx context.Context, plan *Plan) (string, error) {
	rows, err := s.QueryTraced(ctx, plan, TraceMorsels)
	if err != nil {
		return "", err
	}
	defer rows.Close()
	if _, err := rows.Count(); err != nil {
		return "", err
	}
	return rows.Trace().ExplainAnalyze(), nil
}
