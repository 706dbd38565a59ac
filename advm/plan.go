package advm

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"sync"

	"repro/internal/colstore"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/fused"
	"repro/internal/morsel"
	"repro/internal/qtrace"
)

// morselStatsSource is implemented by the morsel-dispatching operators
// (engine.Exchange, engine.ParallelAgg); the builder collects them so the
// cursor can fold scheduler counters — in particular steal counts — into the
// session when the query completes.
type morselStatsSource interface {
	MorselStats() morsel.Stats
}

// EvalMode fixes how filters and computes treat incoming selection vectors
// (§III-C selectivity specialization).
type EvalMode = engine.EvalMode

// Evaluation flavors.
const (
	// EvalAdaptive chooses per chunk from observed selectivity (default).
	EvalAdaptive = engine.EvalAdaptive
	// EvalFull computes over all rows, keeping the selection vector.
	EvalFull = engine.EvalFull
	// EvalSelective condenses the selected rows first.
	EvalSelective = engine.EvalSelective
)

// Agg describes one aggregate of an Aggregate plan node.
type Agg = engine.Aggregate

// AggFunc is an aggregation function.
type AggFunc = engine.AggFunc

// Aggregation functions.
const (
	AggSum   = engine.AggSum
	AggCount = engine.AggCount
	AggMin   = engine.AggMin
	AggMax   = engine.AggMax
	AggAvg   = engine.AggAvg
	// AggFirst carries the first value of the column seen for each group in
	// table order — the way to keep columns that are functionally dependent
	// on the group keys (any kind, strings included).
	AggFirst = engine.AggFirst
)

// Order names one sort column of a TopK plan node (descending when Desc).
type Order = engine.OrderSpec

// planKind tags the operator a Plan node describes.
type planKind int

const (
	planScan planKind = iota
	planFilter
	planCompute
	planAggregate
	planJoin
	planTopK
)

// Plan is a deferred description of a relational operator pipeline. Plans
// are cheap immutable builders: each method returns a new node, and nothing
// executes until Session.Query instantiates the pipeline — so one Plan can
// back many concurrent queries, each with its own operator state. Because a
// Plan is a declarative tree rather than a baked pipeline, the session can
// instantiate it differently per query: serially, or fanned out across
// workers when parallelism is enabled.
//
// Scalar expressions and predicates are DSL lambdas; they are lowered
// through the normalizer and run on per-operator adaptive VMs, so hot
// expressions JIT-compile into fused traces exactly as compiled programs
// do (subject to the session's WithJIT/WithJITOptions settings).
type Plan struct {
	kind  planKind
	child *Plan

	// Scan.
	table   TableSource
	columns []string

	// Filter / Compute.
	mode    EvalMode
	lambda  string
	parsed  lambdaOnce
	col     string // filter input
	out     string // compute output
	outKind Kind
	cols    []string // compute inputs

	// Aggregate.
	keys []string
	aggs []Agg

	// Join.
	buildSide          *Plan
	probeKey, buildKey string
	payload            []string

	// TopK.
	k  int
	by []Order
}

// lambdaOnce holds a filter's or compute's lambda, parsed once per plan node
// on first use. Parsing is lazy because hot queries run fused programs
// fetched from the code cache by the plan's canonical form and never need
// the tree; the first query that does need it pays for it, and every later
// query, worker and tier shares the same one.
type lambdaOnce struct {
	once sync.Once
	fn   *dsl.Lambda
	err  error
}

// fn returns the node's parsed lambda. A lambda that does not parse is an
// expression error, which queries report under ErrCompile.
func (p *Plan) fn() (*dsl.Lambda, error) {
	l := &p.parsed
	l.once.Do(func() {
		if l.fn, l.err = dsl.ParseLambda(p.lambda); l.err != nil {
			l.err = fmt.Errorf("%w: parsing %q: %v", engine.ErrExpr, p.lambda, l.err)
		}
	})
	return l.fn, l.err
}

// Scan starts a plan reading the named columns of a table source (all
// columns when none are given). The source may be an in-RAM Table or a
// disk-backed StoredTable; scans over stored tables decode lazily, chunk by
// chunk, and — when the session's scan pruning is on — skip whole segments
// that the plan's own filters prove irrelevant via the stored zone maps.
func Scan(t TableSource, columns ...string) *Plan {
	return &Plan{kind: planScan, table: t, columns: columns}
}

// Filter keeps the rows for which the DSL predicate lambda over col holds.
func (p *Plan) Filter(lambda, col string) *Plan {
	return p.FilterMode(EvalAdaptive, lambda, col)
}

// FilterMode is Filter with a fixed evaluation flavor.
func (p *Plan) FilterMode(mode EvalMode, lambda, col string) *Plan {
	return &Plan{kind: planFilter, child: p, mode: mode, lambda: lambda, col: col}
}

// Compute appends column out derived by the DSL lambda over the input
// columns; kind must be the lambda's result kind.
func (p *Plan) Compute(out, lambda string, kind Kind, cols ...string) *Plan {
	return p.ComputeMode(EvalAdaptive, out, lambda, kind, cols...)
}

// ComputeMode is Compute with a fixed evaluation flavor.
func (p *Plan) ComputeMode(mode EvalMode, out, lambda string, kind Kind, cols ...string) *Plan {
	return &Plan{kind: planCompute, child: p, mode: mode, out: out, lambda: lambda, outKind: kind, cols: cols}
}

// checkModes rejects a filter or compute anywhere in the plan, build sides
// included, whose evaluation flavor is not one of the EvalMode constants.
func (p *Plan) checkModes() error {
	for q := p; q != nil; q = q.child {
		if (q.kind == planFilter || q.kind == planCompute) && (q.mode < EvalAdaptive || q.mode > EvalSelective) {
			return fmt.Errorf("unknown evaluation mode %v", q.mode)
		}
		if q.buildSide != nil {
			if err := q.buildSide.checkModes(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Aggregate groups by the key columns (nil for a single global group) and
// computes the given aggregates.
func (p *Plan) Aggregate(keys []string, aggs ...Agg) *Plan {
	return &Plan{kind: planAggregate, child: p, keys: keys, aggs: aggs}
}

// Join hash-joins the plan (probe side) against build on probeKey =
// buildKey, carrying the named build-side payload columns. The build side
// is materialized and hashed once when the query opens; selective probes
// adaptively keep a Bloom filter in front of the hash table.
//
// Under WithParallelism(n) > 1 the join parallelizes on both sides: the
// build side is materialized and hashed over morsels into a partitioned
// table (worker-local partitions, no contention), and the probe side's
// worker pipelines each probe the shared read-only table. Build rows are
// stitched back in table order, so match lists — and therefore the join's
// output rows — are byte-identical to serial execution.
func (p *Plan) Join(build *Plan, probeKey, buildKey string, payload ...string) *Plan {
	return &Plan{kind: planJoin, child: p, buildSide: build, probeKey: probeKey, buildKey: buildKey, payload: payload}
}

// TopK keeps the first k rows of the plan's result ordered by the given
// columns. Ties keep the input order and an f64 NaN orders after every
// number (so first under Desc), which keeps the result deterministic —
// parallel and serial executions emit identical bytes.
func (p *Plan) TopK(k int, by ...Order) *Plan {
	return &Plan{kind: planTopK, child: p, k: k, by: by}
}

// builder carries per-query instantiation state: the session's options, the
// granted worker count and the shared join tables of this query.
type builder struct {
	s         *Session
	workers   int
	exchanges int // parallel structures instantiated (0 → the grant can be returned)
	shared    map[*Plan]*engine.SharedJoinTable

	// sharedList holds the query's shared join tables in creation order.
	// Parallel queries kick all of them off concurrently at Open (see
	// prebuildOp) so independent build sides overlap instead of each waiting
	// for the first probe that needs it.
	sharedList []*engine.SharedJoinTable

	pruned map[*Plan]TableSource   // scan leaf → store it should read
	views  []*colstore.PrunedTable // pruned views created for this query

	morselOps []morselStatsSource // dispatching operators built for this query

	// Tiered execution state for this query (zero values = tiering off).
	tierFP       string          // canonical plan fingerprint
	tierN        int64           // this query's 1-based execution count
	tierEnt      *tierEntry      // engine-wide hotness entry
	fuseCtrs     *fused.Counters // non-nil → plan is at least warm
	fusedWrapped bool            // a fused loop was mounted somewhere
	noFuse       map[*Plan]bool  // stages of segments that declined fusion

	// Execution tracing state (nil = tracing off; see trace.go).
	trace      *qtrace.Trace
	troot      *qtrace.Span           // query root span
	spans      map[*Plan]*qtrace.Span // plan node → its operator span
	buildSpans map[*Plan]*qtrace.Span // join node → synthetic join-build span
}

// segment walks from p down through streaming stages — filters, computes and
// join probe sides — to a scan leaf. ok reports whether the walk reached a
// scan without crossing a pipeline breaker; stages is ordered top-down and
// may be empty when p itself is the scan.
func (p *Plan) segment() (stages []*Plan, scan *Plan, ok bool) {
	q := p
	for {
		switch q.kind {
		case planScan:
			return stages, q, true
		case planFilter, planCompute, planJoin:
			stages = append(stages, q)
			q = q.child
		default:
			return nil, nil, false
		}
	}
}

// build instantiates the subtree rooted at p. With more than one granted
// worker, the topmost streaming segment — a scan→filter/compute/probe chain
// — fans out across work-stealing morsel workers: under an aggregation it
// becomes a morsel-parallel aggregation, otherwise a morsel-parallel
// exchange merging chunks back in table order. Join build sides are
// materialized once per query into shared read-only tables, hashed in
// parallel when workers are granted; build phases run during Open, before
// the probe streams, so the fan-out never exceeds the pool grant.
//
// Results are byte-identical at every worker count, float aggregates
// included: exchanges merge in table order, and an aggregation over a
// streaming segment always runs as ParallelAgg — with a single worker when
// none are granted — so every session folds the same per-morsel
// pre-aggregation tables in the same morsel sequence order regardless of
// parallelism. The accumulation blocking (and thus the low-order float
// bits) is pinned by the morsel length alone; see WithMorselLen.
func (p *Plan) build(b *builder) (engine.Operator, error) {
	switch p.kind {
	case planScan:
		sc, err := engine.NewScan(b.storeFor(p), p.columns...)
		if err != nil {
			return nil, err
		}
		if b.s.opt.chunkLen > 0 {
			sc.SetChunkLen(b.s.opt.chunkLen)
		}
		return b.traced(p, sc), nil
	case planFilter, planCompute, planJoin:
		if op, ok, err := p.buildExchange(b); ok || err != nil {
			return op, err
		}
		if op, ok, err := p.buildFusedSerial(b); ok || err != nil {
			return op, err
		}
		child, err := p.child.build(b)
		if err != nil {
			return nil, err
		}
		if p.kind == planJoin {
			shared, err := b.sharedJoin(p)
			if err != nil {
				return nil, err
			}
			tp, err := engine.NewTableProbe(child, shared, p.probeKey, p.payload...)
			if err != nil {
				return nil, err
			}
			return b.traced(p, tp), nil
		}
		op, err := p.stageOn(b.s, child)
		if err != nil {
			return nil, err
		}
		return b.traced(p, op), nil
	case planAggregate:
		if stages, scan, ok := p.child.segment(); ok {
			// An aggregation over a streaming segment always runs as the
			// morsel-parallel aggregation — with one worker when none are
			// granted (or a fan-out already claimed the grant) — so every
			// session folds identical per-morsel tables in identical sequence
			// order: parallelism can never reach the result bytes, and f64
			// pre-aggregation stays enabled instead of being forced off on
			// the serial path.
			workers := 1
			if b.workers > 1 && b.exchanges == 0 {
				workers = b.workers
			}
			mk, _, err := b.pipeMaker(stages, scan)
			if err != nil {
				return nil, err
			}
			pa, err := engine.NewParallelAgg(b.storeFor(scan), scan.columns, workers,
				mk, p.keys, p.aggs)
			if err != nil {
				return nil, err
			}
			if b.s.opt.chunkLen > 0 {
				pa.SetChunkLen(b.s.opt.chunkLen)
			}
			if b.s.opt.morselLen > 0 {
				pa.SetMorselLen(b.s.opt.morselLen)
			}
			if workers > 1 {
				b.exchanges++
				b.morselOps = append(b.morselOps, pa)
			}
			// SetTrace even with one worker: the serial instantiation is
			// still morsel-dispatched, so its leaf spans keep the trace's
			// morsel accounting identical at every parallelism.
			pa.SetTrace(b.spans[p], b.traceMorsels())
			return b.traced(p, pa), nil
		}
		child, err := p.child.build(b)
		if err != nil {
			return nil, err
		}
		// Non-segment children (an aggregation over an aggregation, over a
		// TopK, …) aggregate serially; their input order is plan-determined,
		// so adaptive pre-aggregation is deterministic here too.
		return b.traced(p, engine.NewHashAgg(child, p.keys, p.aggs)), nil
	case planTopK:
		if op, ok, err := p.buildParallelTopK(b); ok || err != nil {
			return op, err
		}
		child, err := p.child.build(b)
		if err != nil {
			return nil, err
		}
		tk, err := engine.NewTopK(child, p.k, p.by...)
		if err != nil {
			return nil, err
		}
		return b.traced(p, tk), nil
	}
	panic("advm: unknown plan node")
}

// buildParallelTopK instantiates a top-k over a streaming segment as a
// morsel-parallel fold when workers are granted (and no fan-out claimed them
// yet): each morsel reduces to at most k candidate rows and the candidates
// merge in morsel sequence order. Unlike an exchange, a bare scan underneath
// is worth fanning out too — the fold is a real reduction, not a row copy —
// so only the worker/exchange gates apply. There is no arithmetic in a
// top-k, so parallel and serial instantiations emit identical bytes and
// mounting only under granted workers cannot shift results; ok=false falls
// through to the serial TopK.
func (p *Plan) buildParallelTopK(b *builder) (engine.Operator, bool, error) {
	if b.workers <= 1 || b.exchanges > 0 {
		return nil, false, nil
	}
	stages, scan, ok := p.child.segment()
	if !ok {
		return nil, false, nil
	}
	b.exchanges++ // claim before nested sharedJoin builds count theirs
	mk := func(_ int, leaf engine.Operator) (engine.Operator, error) { return b.tracedLeaf(scan, leaf), nil }
	if len(stages) > 0 {
		var err error
		mk, _, err = b.pipeMaker(stages, scan)
		if err != nil {
			return nil, false, err
		}
	}
	tk, err := engine.NewParallelTopK(b.storeFor(scan), scan.columns, b.workers, mk, p.k, p.by...)
	if err != nil {
		return nil, false, err
	}
	if b.s.opt.chunkLen > 0 {
		tk.SetChunkLen(b.s.opt.chunkLen)
	}
	if b.s.opt.morselLen > 0 {
		tk.SetMorselLen(b.s.opt.morselLen)
	}
	b.morselOps = append(b.morselOps, tk)
	tk.SetTrace(b.spans[p], b.traceMorsels())
	return b.traced(p, tk), true, nil
}

// stageOn instantiates a filter/compute node on top of child with the
// session's JIT settings.
func (p *Plan) stageOn(s *Session, child engine.Operator) (engine.Operator, error) {
	fn, err := p.fn()
	if err != nil {
		return nil, err
	}
	j := engine.ExprJIT{On: s.opt.jitEnabled, Opt: s.opt.cfg.JIT, Templates: s.eng.jit}
	switch p.kind {
	case planFilter:
		return engine.NewFilter(child, fn, p.col).SetMode(p.mode).SetJIT(j), nil
	case planCompute:
		return engine.NewCompute(child, p.out, fn, p.outKind, p.cols...).SetMode(p.mode).SetJIT(j), nil
	}
	panic("advm: not a pipeline stage")
}

// pipeMaker returns a function instantiating a worker-private copy of the
// given top-down stage list over a scan leaf. Shared join tables are created
// once, up front, so every worker probes the same build.
//
// When the plan is hot under tiered execution and the segment compiles (or is
// already cached), the returned maker mounts the fused loop instead of the
// interpreted stage chain, and fusedOK reports so. Otherwise the maker is the
// plain interpreted chain and fusedOK is false.
func (b *builder) pipeMaker(stages []*Plan, scan *Plan) (mk func(int, engine.Operator) (engine.Operator, error), fusedOK bool, err error) {
	shared := make([]*engine.SharedJoinTable, len(stages))
	for i, st := range stages {
		if st.kind == planJoin {
			s, err := b.sharedJoin(st)
			if err != nil {
				return nil, false, err
			}
			shared[i] = s
		}
	}
	interp := func(_ int, leaf engine.Operator) (engine.Operator, error) {
		op := b.tracedLeaf(scan, leaf)
		for i := len(stages) - 1; i >= 0; i-- {
			st := stages[i]
			if st.kind == planJoin {
				tp, err := engine.NewTableProbe(op, shared[i], st.probeKey, st.payload...)
				if err != nil {
					return nil, err
				}
				op = b.traced(st, tp)
				continue
			}
			stage, err := st.stageOn(b.s, op)
			if err != nil {
				return nil, err
			}
			op = b.traced(st, stage)
		}
		return op, nil
	}
	top := scan // bare-scan segment: the fused loop's time lands on the scan span
	if len(stages) > 0 {
		top = stages[0]
	}
	prog, tables := b.fusePlan(top, stages, scan, shared)
	if prog == nil {
		return interp, false, nil
	}
	b.fusedWrapped = true
	ctrs := b.fuseCtrs
	return func(_ int, leaf engine.Operator) (engine.Operator, error) {
		// The fused loop replaces the whole stage chain, so its time lands
		// on the top stage's span; the inner stage spans keep the plan
		// structure but stay at zero busy while the segment runs fused.
		return b.traced(top, fused.NewExec(prog, b.tracedLeaf(scan, leaf), tables, ctrs)), nil
	}, true, nil
}

// fusePlan compiles — or fetches from the engine's code cache — the fused
// program for a streaming segment. It returns nil when the plan is not warm
// yet, when the segment declines fusion (a negative outcome, cached so hot
// unfusable plans pay the pattern-match once), or when the plan is warm but
// not yet hot (warm plans compile and prime the cache but keep running
// interpreted). The returned table list is the query's shared join tables in
// program order.
//
// The cache key is the segment's canonical serialization, taken at its top
// node (segmentKey): it names every scanned column and kind, every lambda,
// column and mode of each stage, and each probe's whole build side — all
// the compiler reads — so equal keys imply interchangeable programs, and
// plans sharing a segment share its program. A hit builds nothing.
func (b *builder) fusePlan(top *Plan, stages []*Plan, scan *Plan, shared []*engine.SharedJoinTable) (*fused.Program, []*engine.SharedJoinTable) {
	if b.fuseCtrs == nil {
		return nil, nil
	}
	key := top.segmentKey()
	eng := b.s.eng
	prog, present := eng.fcache.Lookup(key)
	if present {
		if prog != nil {
			eng.fusedCacheHits.Add(1)
			b.traceEvent("fused-cache-hit")
		}
	} else {
		if prog = b.compileSegment(stages, scan, shared); prog != nil {
			eng.fusedCompiles.Add(1)
			b.traceEvent("fused-compile")
		}
		eng.fcache.Store(key, prog)
	}
	if prog == nil || b.tierN < b.s.opt.tierHot {
		return nil, nil
	}
	var tables []*engine.SharedJoinTable
	for i := len(stages) - 1; i >= 0; i-- {
		if stages[i].kind == planJoin {
			tables = append(tables, shared[i])
		}
	}
	return prog, tables
}

// compileSegment translates a segment's plan nodes bottom-up into fused
// stages and compiles them. It returns nil when the segment declines fusion,
// a lambda that does not parse included: the interpreted chain then reports
// that error.
func (b *builder) compileSegment(stages []*Plan, scan *Plan, shared []*engine.SharedJoinTable) *fused.Program {
	scanI, ok := scanInfos(b.storeFor(scan), scan.columns)
	if !ok {
		return nil
	}
	var fstages []fused.Stage
	tables := 0
	for i := len(stages) - 1; i >= 0; i-- {
		st := stages[i]
		switch st.kind {
		case planFilter, planCompute:
			fn, err := st.fn()
			if err != nil {
				return nil
			}
			if st.kind == planFilter {
				fstages = append(fstages, fused.Stage{Kind: fused.StageFilter, Fn: fn, Col: st.col})
			} else {
				fstages = append(fstages, fused.Stage{
					Kind: fused.StageCompute, Fn: fn,
					Out: st.out, OutKind: st.outKind, Cols: st.cols,
				})
			}
		case planJoin:
			fs := fused.Stage{
				Kind: fused.StageProbe, ProbeKey: st.probeKey,
				Payload: st.payload, Table: tables,
			}
			for _, ci := range shared[i].Schema() {
				fs.BuildNames = append(fs.BuildNames, ci.Name)
				fs.BuildKinds = append(fs.BuildKinds, ci.Kind)
			}
			tables++
			fstages = append(fstages, fs)
		}
	}
	prog, ok := fused.Compile(scanI, fstages)
	if !ok {
		return nil
	}
	return prog
}

// buildFusedSerial mounts a fused loop over the serial streaming segment
// rooted at p when the plan is hot and the segment compiles. ok=false falls
// through to the ordinary serial operator chain; declined segments mark all
// their stages so the recursion does not retry fusion on sub-segments.
func (p *Plan) buildFusedSerial(b *builder) (engine.Operator, bool, error) {
	if b.fuseCtrs == nil || b.noFuse[p] {
		return nil, false, nil
	}
	stages, scan, ok := p.segment()
	if !ok || len(stages) == 0 {
		return nil, false, nil
	}
	mk, fusedOK, err := b.pipeMaker(stages, scan)
	if err != nil {
		return nil, false, err
	}
	if !fusedOK {
		if b.noFuse == nil {
			b.noFuse = map[*Plan]bool{}
		}
		for _, st := range stages {
			b.noFuse[st] = true
		}
		return nil, false, nil
	}
	leaf, err := scan.build(b)
	if err != nil {
		return nil, false, err
	}
	op, err := mk(0, leaf)
	if err != nil {
		return nil, false, err
	}
	return op, true, nil
}

// scanInfos resolves a scan's output slot layout (names and kinds) from the
// table schema — the fused compiler's view of the leaf.
func scanInfos(store TableSource, cols []string) ([]engine.ColInfo, bool) {
	sch := store.Schema()
	if len(cols) == 0 {
		cols = sch.Names
	}
	out := make([]engine.ColInfo, 0, len(cols))
	for _, c := range cols {
		i := sch.ColumnIndex(c)
		if i < 0 {
			return nil, false
		}
		out = append(out, engine.ColInfo{Name: c, Kind: sch.Kinds[i]})
	}
	return out, true
}

// sharedJoin returns the query's shared build-side table for a join node,
// creating it on first use. With granted workers and a streaming build side
// the table is materialized and hashed morsel-parallel at Open; otherwise it
// is collected serially. Either way the table is built exactly once per
// query and probed read-only by every worker.
func (b *builder) sharedJoin(p *Plan) (*engine.SharedJoinTable, error) {
	if s, ok := b.shared[p]; ok {
		return s, nil
	}
	var s *engine.SharedJoinTable
	if b.workers > 1 {
		if stages, scan, ok := p.buildSide.segment(); ok {
			mk, _, err := b.pipeMaker(stages, scan)
			if err != nil {
				return nil, err
			}
			// One scratch pipeline resolves the build side's static schema.
			scratch, err := engine.NewPartScan(b.storeFor(scan), scan.columns...)
			if err != nil {
				return nil, err
			}
			probe, err := mk(0, scratch)
			if err != nil {
				return nil, err
			}
			store, columns := b.storeFor(scan), scan.columns
			workers, chunkLen, morselLen, key := b.workers, b.s.opt.chunkLen, b.s.opt.morselLen, p.buildKey
			bsp, tm := b.buildSpans[p], b.traceMorsels()
			s = engine.NewSharedJoinTable(probe.Schema(), timedJoinBuild(bsp, func(ctx context.Context) (*engine.JoinTable, error) {
				return engine.BuildJoinTableParallelTraced(ctx, store, columns, workers, chunkLen, morselLen, key, mk, bsp, tm)
			}))
			b.exchanges++
		}
	}
	if s == nil {
		op, err := p.buildSide.build(b)
		if err != nil {
			return nil, err
		}
		key := p.buildKey
		s = engine.NewSharedJoinTable(op.Schema(), timedJoinBuild(b.buildSpans[p], func(ctx context.Context) (*engine.JoinTable, error) {
			rows, err := engine.Collect(ctx, op)
			if err != nil {
				return nil, err
			}
			return engine.NewJoinTable(rows, key)
		}))
	}
	if b.shared == nil {
		b.shared = map[*Plan]*engine.SharedJoinTable{}
	}
	b.shared[p] = s
	b.sharedList = append(b.sharedList, s)
	return s, nil
}

// buildExchange instantiates the streaming segment rooted at p — filters,
// computes and join probes over a table scan — as a morsel-parallel
// exchange: every worker gets a private copy of the segment over a windowed
// scan, and the exchange merges the workers' chunks back in table order. A
// bare scan is not fanned out (copying rows across workers gains nothing);
// such subtrees report ok=false and build serially.
func (p *Plan) buildExchange(b *builder) (engine.Operator, bool, error) {
	if b.workers <= 1 || b.exchanges > 0 {
		return nil, false, nil
	}
	stages, scan, ok := p.segment()
	if !ok || len(stages) == 0 {
		return nil, false, nil
	}
	b.exchanges++ // claim before nested sharedJoin builds count theirs
	mk, _, err := b.pipeMaker(stages, scan)
	if err != nil {
		return nil, false, err
	}
	ex, err := engine.NewExchange(b.storeFor(scan), scan.columns, b.workers, mk)
	if err != nil {
		return nil, false, err
	}
	if b.s.opt.chunkLen > 0 {
		ex.SetChunkLen(b.s.opt.chunkLen)
	}
	if b.s.opt.morselLen > 0 {
		ex.SetMorselLen(b.s.opt.morselLen)
	}
	b.morselOps = append(b.morselOps, ex)
	// The exchange itself is not wrapped — the worker pipelines already
	// time every stage span, including the segment top — but it carries the
	// top span for morsel leaves and dispatch statistics.
	ex.SetTrace(b.spans[p], b.traceMorsels())
	return ex, true, nil
}

// fingerprint canonically serializes the plan tree — structure, lambdas,
// evaluation modes, column names, aggregate, join and top-k specs, plus each
// scanned table's schema and row count — and hashes it into a compact hex
// key. Table identity is the schema and size rather than the pointer, so an
// in-RAM copy and a colstore-backed copy of the same data share one hotness
// entry. Distinct plans may collide in principle (it is a 64-bit hash), but
// a collision only shares a hotness counter: the fused code cache is keyed
// by the unhashed serialization (segmentKey), so it can never execute a loop
// compiled for a different plan shape.
func (p *Plan) fingerprint() string {
	h := fnv.New64a()
	p.writeFP(h)
	return fmt.Sprintf("p%016x", h.Sum64())
}

// segmentKey is the plan subtree's canonical serialization, unhashed: the
// fused code cache's key for the streaming segment topped by p.
func (p *Plan) segmentKey() string {
	var sb strings.Builder
	p.writeFP(&sb)
	return sb.String()
}

// writeFP streams the canonical serialization of the plan subtree. It is
// injective: names and lambdas are %q-quoted, counts and kinds are numbers
// closed by a fixed delimiter, and a build side is bracketed by {}.
func (p *Plan) writeFP(w io.Writer) {
	switch p.kind {
	case planScan:
		sch := p.table.Schema()
		fmt.Fprintf(w, "scan/%d:", p.table.Rows())
		cols := p.columns
		if len(cols) == 0 {
			cols = sch.Names
		}
		for _, c := range cols {
			k := Kind(0)
			if i := sch.ColumnIndex(c); i >= 0 {
				k = sch.Kinds[i]
			}
			fmt.Fprintf(w, "%q=%d,", c, k)
		}
	case planFilter:
		p.child.writeFP(w)
		fmt.Fprintf(w, ";F%d%q@%q", p.mode, p.lambda, p.col)
	case planCompute:
		p.child.writeFP(w)
		fmt.Fprintf(w, ";C%d%q->%q=%d/", p.mode, p.lambda, p.out, p.outKind)
		for _, c := range p.cols {
			fmt.Fprintf(w, "%q,", c)
		}
	case planAggregate:
		p.child.writeFP(w)
		io.WriteString(w, ";A")
		for _, k := range p.keys {
			fmt.Fprintf(w, "%q,", k)
		}
		io.WriteString(w, "/")
		for _, a := range p.aggs {
			fmt.Fprintf(w, "%d%q>%q,", a.Func, a.Col, a.As)
		}
	case planJoin:
		p.child.writeFP(w)
		io.WriteString(w, ";J{")
		p.buildSide.writeFP(w)
		fmt.Fprintf(w, "}%q=%q/", p.probeKey, p.buildKey)
		for _, c := range p.payload {
			fmt.Fprintf(w, "%q,", c)
		}
	case planTopK:
		p.child.writeFP(w)
		fmt.Fprintf(w, ";T%d/", p.k)
		for _, o := range p.by {
			fmt.Fprintf(w, "%q:%v,", o.Col, o.Desc)
		}
	}
}
