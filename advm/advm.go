// Package advm is the public embedding API of the adaptive virtual machine:
// an engine/session surface over the paper's architecture (ICDE'18,
// "Designing an Adaptive VM That Combines Vectorized and JIT Execution on
// Heterogeneous Hardware").
//
// An Engine is the process-wide backend: it owns the worker pool for
// morsel-parallel query execution, the device placer, and the
// prepared-statement cache through which concurrent sessions share one
// adaptive VM per distinct program — and therefore share its profile,
// injected JIT traces and micro-adaptive decisions:
//
//	eng, err := advm.NewEngine(advm.WithParallelism(8))
//	defer eng.Close()
//	prep, err := eng.Prepare(src, map[string]advm.Kind{"data": advm.I64})
//	sess, err := eng.Session()
//	err = sess.RunPrepared(ctx, prep, map[string]*advm.Vector{"data": advm.FromI64(xs)})
//
// A Session is a lightweight, concurrency-safe handle: every Run gets a
// fresh environment, every Query gets fresh operators. Standalone sessions
// (Compile, NewSession) wrap a private engine, so small embedders never see
// the Engine type:
//
//	sess, err := advm.Compile(src, map[string]advm.Kind{"data": advm.I64},
//	        advm.WithHotThresholds(8, 200*time.Microsecond))
//	...
//	err = sess.Run(ctx, map[string]*advm.Vector{"data": advm.FromI64(xs)})
//
// Underneath either surface, the VM starts out interpreting the normalized
// program with pre-compiled vectorized kernels, profiles it, greedily
// partitions hot dependency graphs into fragments, JIT-compiles them into
// fused traces, injects the traces into the running interpreter, and
// micro-adaptively reverts traces that lose. Execution honors ctx at chunk
// boundaries, so cancellation and deadlines cut a long run short within one
// chunk, reported as ErrCancelled.
//
// The relational layer is reached through Session.Query, which streams
// results chunk-at-a-time behind a database/sql-style cursor:
//
//	rows, err := sess.Query(ctx, advm.Scan(table, "k", "v").
//	        Filter(`(\k -> k < 10)`, "k").
//	        Compute("v2", `(\v -> v * v)`, advm.I64, "v"))
//	for rows.Next() {
//	        var k, v2 int64
//	        err = rows.Scan(&k, nil, &v2)
//	}
//	err = rows.Err()
//
// With WithParallelism(n), whole plan trees execute across n workers over
// work-stealing morsel dispatch: scan→filter/compute chains fan out behind
// an order-preserving exchange, hash joins build partitioned shared tables
// in parallel and probe them from every worker, and grouped aggregations
// pre-aggregate per morsel and merge in morsel sequence order. Query output
// is byte-identical to serial execution at every worker count and device
// policy; only the morsel length (WithMorselLen), which pins how
// floating-point accumulation is blocked, is part of result identity.
//
// Session.Stats and Engine.Stats expose the observability surface: the
// Figure-1 state machine transition log, the per-instruction profile,
// injected and reverted trace counts, device placement decisions, and the
// prepared-statement cache and worker pool counters.
package advm

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/fused"
	"repro/internal/nir"
	"repro/internal/primitive"
	"repro/internal/vm"
)

// Session is a handle over one adaptive VM (when compiled from a program)
// and a factory for streaming relational queries. It is safe for concurrent
// use: every Run gets a fresh environment, every Query gets fresh
// operators, while profiling data and injected traces persist inside the
// session and keep improving later executions.
//
// Sessions created by Engine.Session share that engine's worker pool,
// prepared-statement cache and device placer; sessions created by Compile
// or NewSession own a private engine (closed with the session).
type Session struct {
	eng   *Engine
	owned bool // Close also closes the (private) engine
	opt   options

	src  string
	prog *nir.Program
	vm   *vm.VM

	runs            atomic.Int64
	queries         atomic.Int64
	segmentsScanned atomic.Int64
	segmentsSkipped atomic.Int64
	morselSteals    atomic.Int64
	fusedQueries    atomic.Int64
	fusedDeopts     atomic.Int64
	closed          atomic.Bool

	mu               sync.Mutex
	placements       []Placement
	morselPlacements map[string]int64
	morselTransfer   time.Duration
}

// NewSession creates a standalone query-only session (no compiled program):
// Run errors until a program is compiled, Query works immediately. The
// session wraps a private engine configured by opts.
func NewSession(opts ...Option) (*Session, error) {
	eng, err := NewEngine(opts...)
	if err != nil {
		return nil, err
	}
	eng.sessions.Add(1)
	return &Session{eng: eng, owned: true, opt: eng.opt}, nil
}

// Compile parses, checks and normalizes a DSL program and prepares an
// adaptive VM for it, owned by a standalone session. externals maps every
// external array name used by read/write/gather/scatter to its element
// kind. Failures are classified under ErrCompile.
//
// The VM is private to the session: repeated Compile calls with the same
// source get independent VMs. To share one VM (and its adaptivity) across
// sessions, use Engine.Prepare.
func Compile(src string, externals map[string]Kind, opts ...Option) (*Session, error) {
	eng, err := NewEngine(opts...)
	if err != nil {
		return nil, err
	}
	ast, err := dsl.Parse(src)
	if err != nil {
		return nil, tagged(ErrCompile, err)
	}
	ir, err := nir.Normalize(ast, externals)
	if err != nil {
		return nil, tagged(ErrCompile, err)
	}
	eng.sessions.Add(1)
	return &Session{
		eng: eng, owned: true, opt: eng.opt,
		src: src, prog: ir, vm: vm.New(ir, eng.opt.cfg),
	}, nil
}

// MustCompile is Compile for tests and examples; it panics on error.
func MustCompile(src string, externals map[string]Kind, opts ...Option) *Session {
	s, err := Compile(src, externals, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Engine returns the engine backing the session.
func (s *Session) Engine() *Engine { return s.eng }

// checkOpen classifies calls on closed sessions/engines under ErrClosed.
func (s *Session) checkOpen() error {
	if s.closed.Load() {
		return errClosed("session")
	}
	if s.eng.closed.Load() {
		return errClosed("engine")
	}
	return nil
}

// Close releases the session: subsequent Run, RunPrepared and Query calls
// return an error matching ErrClosed. Closing a standalone session
// (Compile, NewSession) also closes its private engine and thereby its
// worker pool; sessions handed out by Engine.Session leave the shared
// engine open. Close is idempotent and does not interrupt executions
// already in flight.
func (s *Session) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.owned {
		return s.eng.Close()
	}
	return nil
}

// Prepare compiles src through the session's engine, sharing the
// engine-wide prepared-statement cache (see Engine.Prepare).
func (s *Session) Prepare(src string, externals map[string]Kind) (*Prepared, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	return s.eng.Prepare(src, externals)
}

// OpenTable opens the named disk-backed stored table: with WithTableDir the
// name resolves below that root, otherwise it is used as the colstore
// directory path directly. The table is cached engine-wide (see
// Engine.OpenTable) and is a TableSource, so it plugs straight into Scan:
//
//	sess, _ := advm.NewSession(advm.WithTableDir("testdata/tpch-sf1"))
//	lineitem, _ := sess.OpenTable("lineitem")
//	rows, _ := sess.Query(ctx, advm.Scan(lineitem, "l_shipdate", "l_quantity").
//	        Filter(`(\d -> d < 2400)`, "l_shipdate"))
func (s *Session) OpenTable(name string) (*StoredTable, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	dir := name
	if s.opt.tableDir != "" {
		dir = filepath.Join(s.opt.tableDir, name)
	}
	return s.eng.OpenTable(dir)
}

// Run executes the compiled program once against the given external arrays.
// The context is honored at chunk boundaries: a cancelled or expired ctx
// aborts the run within one chunk and Run returns an error matching
// ErrCancelled. Binding problems (missing or wrongly-typed arrays) are
// classified under ErrBind.
//
// Run may be called concurrently; profiling and compiled traces are shared
// across calls.
func (s *Session) Run(ctx context.Context, bindings map[string]*Vector) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if s.vm == nil {
		return tagged(ErrBind, errors.New("session has no compiled program (use advm.Compile or Engine.Prepare)"))
	}
	env, err := s.vm.NewEnv(bindings)
	if err != nil {
		return tagged(ErrBind, err)
	}
	if err := s.vm.RunContext(ctx, env); err != nil {
		return classifyCtx(ctx, err)
	}
	// Record only completed executions, keeping Stats.Placements consistent
	// with Stats.Runs.
	s.recordPlacement(s.prog, bindings)
	s.runs.Add(1)
	return nil
}

// RunPrepared executes a prepared program within the session: semantics
// match Prepared.Run, plus the execution is counted in the session's Stats
// and placed by the session's device policy.
func (s *Session) RunPrepared(ctx context.Context, p *Prepared, bindings map[string]*Vector) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if p == nil {
		return tagged(ErrBind, errors.New("nil prepared program"))
	}
	if err := p.Run(ctx, bindings); err != nil {
		return err
	}
	s.recordPlacement(p.entry.prog, bindings)
	s.runs.Add(1)
	return nil
}

// classifyCtx tags errors caused by ctx as ErrCancelled and passes the rest
// through.
func classifyCtx(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
		return tagged(ErrCancelled, err)
	}
	return err
}

// pipelineErr classifies a failure to build or open a query's pipeline: an
// expression lambda that does not parse, check or normalize is ErrCompile, a
// cancelled ctx ErrCancelled, and anything else — unknown columns, schema
// mismatches — ErrBind.
func pipelineErr(ctx context.Context, err error) error {
	if errors.Is(err, engine.ErrExpr) {
		return tagged(ErrCompile, err)
	}
	if c := classifyCtx(ctx, err); c != err {
		return c
	}
	return tagged(ErrBind, err)
}

// Query instantiates the plan's operator pipeline and returns a streaming
// cursor over its result. The pipeline executes lazily, chunk-at-a-time, as
// the caller advances the cursor; nothing is materialized beyond what the
// plan's own pipeline breakers (joins, aggregations) require. Expression
// errors are classified under ErrCompile, wiring errors under ErrBind, and
// a cancelled ctx — checked at every chunk — surfaces as ErrCancelled from
// Rows.Err.
//
// With WithParallelism(n) > 1, the plan's streaming segments — scans with
// their filters, computes and join probes — execute across up to n workers
// drawn from the engine's pool (fewer when the pool is contended), join
// build sides hash in parallel into shared tables, and grouped aggregations
// fold worker-locally; everything merges back deterministically, so results
// are byte-identical to serial execution. The workers are released when the
// cursor is closed or exhausted.
//
// The returned Rows must be used from a single goroutine; the Session
// itself may serve many concurrent Query calls.
func (s *Session) Query(ctx context.Context, plan *Plan) (*Rows, error) {
	return s.QueryTraced(ctx, plan, s.opt.tracing)
}

// QueryTraced is Query with an explicit trace level for this one query,
// overriding the session's WithTracing default. With TraceOps and above the
// returned cursor carries an execution trace — Rows.Trace, complete once
// the cursor is drained or closed — whose span tree mirrors the plan:
// per-operator busy time, rows and loops, and at TraceMorsels one leaf span
// per dispatched morsel with worker, steal and device attribution.
func (s *Session) QueryTraced(ctx context.Context, plan *Plan, level TraceLevel) (*Rows, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	if plan == nil {
		return nil, tagged(ErrBind, errors.New("nil plan"))
	}
	workers := s.eng.pool.acquire(s.opt.parallelism)
	b := &builder{s: s, workers: workers}
	// Tracing: pre-build the plan-keyed span tree so every physical
	// instantiation below reports into the same, parallelism-independent
	// node set.
	b.initTrace(level, plan, workers)
	// Zone-map pruning: derive interval predicates from the plan's filters
	// and give prunable stored-table scans a segment-skipping view.
	b.annotatePruning(plan)
	if s.opt.tiered {
		// Tiered execution: count this execution against the plan's
		// engine-wide hotness entry. At the warm threshold the builder starts
		// compiling fusable segments (priming the code cache); at the hot
		// threshold it mounts the fused loops.
		fp := plan.fingerprint()
		ent := s.eng.tierEntryFor(fp)
		n := ent.execs.Add(1)
		if n == s.opt.tierWarm || (n == s.opt.tierHot && s.opt.tierHot != s.opt.tierWarm) {
			s.eng.tierUps.Add(1)
		}
		b.tierFP, b.tierN, b.tierEnt = fp, n, ent
		if n >= s.opt.tierWarm {
			b.fuseCtrs = &fused.Counters{}
		}
		if b.trace != nil {
			b.troot.SetAttr("tier", tierName(n, s.opt.tierWarm, s.opt.tierHot))
			b.troot.SetAttr("plan", fp)
			if b.fuseCtrs != nil {
				// Deopts surface as instant events on the query root.
				tr, root := b.trace, b.troot
				b.fuseCtrs.OnDeopt = func() { tr.Event(root, "deopt") }
			}
		}
	}
	if workers > 1 && s.opt.device != DeviceCPU {
		// Heterogeneous execution: worker pipelines get a DeviceExec top, so
		// every dispatched morsel is costed and placed (adaptively for
		// DeviceAuto, pinned for DeviceGPU) on the engine-global devices.
		placer, gpuDev := s.eng.placementBackend()
		b.rec = engine.NewPlacementRecorder()
		if s.opt.device == DeviceGPU {
			b.forced = gpuDev
		} else {
			b.placer = placer
		}
	}
	op, err := plan.build(b)
	if err != nil {
		s.eng.pool.release(workers)
		return nil, pipelineErr(ctx, err)
	}
	if workers > 1 && len(b.sharedList) > 0 {
		// Overlap the query's join build sides: kick every shared table off
		// concurrently at Open instead of letting each build wait for the
		// first probe that needs it. Each table still builds exactly once
		// (sync.Once) with its internal build-order partitioning untouched,
		// so result bytes cannot move — only the builds' wall time overlaps.
		op = &prebuildOp{Operator: op, tables: b.sharedList}
	}
	if workers > 1 && b.exchanges > 0 {
		// The cursor owns the granted workers until closed.
		op = &releaseOp{Operator: op, pool: s.eng.pool, n: workers}
		s.eng.parallelQueries.Add(1)
	} else {
		// Nothing in the plan could fan out; return the permits immediately.
		s.eng.pool.release(workers)
	}
	if b.exchanges == 0 {
		// Nothing fanned out, so no DeviceExec was instantiated either.
		b.rec = nil
	}
	// The query gets a private, cancellable context: Rows.Close cancels it,
	// so abandoning a stream mid-way aborts in-flight parallel workers at
	// their next chunk boundary and returns pooled workers promptly.
	qctx, qcancel := context.WithCancel(ctx)
	if err := op.Open(qctx); err != nil {
		qcancel()
		op.Close()
		return nil, pipelineErr(ctx, err)
	}
	s.queries.Add(1)
	r := &Rows{ctx: qctx, cancel: qcancel, op: op, schema: op.Schema(), sess: s, rec: b.rec, views: b.views, mops: b.morselOps}
	if b.tierEnt != nil {
		r.tier = tierName(b.tierN, s.opt.tierWarm, s.opt.tierHot)
		r.fuse, r.fusedRun, r.entry = b.fuseCtrs, b.fusedWrapped, b.tierEnt
	}
	if b.trace != nil {
		r.trace, r.troot, r.tviews = b.trace, b.troot, b.tracedViews()
	}
	return r, nil
}

// mergeMorselPlacements folds one completed query's placement counts into
// the session's lifetime totals (observable via Stats).
func (s *Session) mergeMorselPlacements(rec *engine.PlacementRecorder) {
	counts := rec.Counts()
	transfer := rec.Transfer()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.morselPlacements == nil {
		s.morselPlacements = make(map[string]int64, len(counts))
	}
	for dev, n := range counts {
		s.morselPlacements[dev] += n
	}
	s.morselTransfer += transfer
}

// prebuildOp starts every shared join-table build of a parallel query
// concurrently when the pipeline opens. Dependent builds (a build side that
// probes another shared table) simply block inside their recipe until the
// table they need finishes — sync.Once serializes per table, never across
// tables — so independent sides overlap and chains degrade to the old
// sequential order. Close waits for stragglers after closing the child: the
// query context is cancelled first (Rows.close), so an abandoned build
// aborts at its next chunk boundary rather than running to completion.
type prebuildOp struct {
	engine.Operator
	tables []*engine.SharedJoinTable
	wg     sync.WaitGroup
}

func (p *prebuildOp) Open(ctx context.Context) error {
	for _, t := range p.tables {
		p.wg.Add(1)
		go func(t *engine.SharedJoinTable) {
			defer p.wg.Done()
			t.Table(ctx) // errors surface through the probes' own Table calls
		}(t)
	}
	return p.Operator.Open(ctx)
}

func (p *prebuildOp) Close() error {
	err := p.Operator.Close()
	p.wg.Wait()
	return err
}

// releaseOp returns pooled workers when the pipeline closes.
type releaseOp struct {
	engine.Operator
	pool *workerPool
	n    int
	once sync.Once
}

func (r *releaseOp) Close() error {
	err := r.Operator.Close()
	r.once.Do(func() { r.pool.release(r.n) })
	return err
}

// IR renders the normalized intermediate representation of the compiled
// program ("" when the session has none).
func (s *Session) IR() string {
	if s.prog == nil {
		return ""
	}
	return s.prog.String()
}

// Source returns the DSL source the session was compiled from.
func (s *Session) Source() string { return s.src }

// PlanReport renders the current execution plan of every program segment,
// showing which steps are interpreted and which run injected traces.
func (s *Session) PlanReport() string { return planReport(s.vm) }

func planReport(v *vm.VM) string {
	if v == nil {
		return ""
	}
	out := ""
	for _, seg := range v.Interp.Segments {
		out += fmt.Sprintf("segment %d:\n", seg.ID)
		for _, step := range v.Interp.Plan(seg.ID).Steps {
			out += "  " + step.Describe() + "\n"
		}
	}
	return out
}

// KernelCount reports the number of pre-compiled vectorized kernels
// available to the interpreter ("generated and compiled during startup").
func KernelCount() int { return primitive.Count() }

// recordPlacement runs the device-placement model for one program execution
// and records the decision (observable via Stats). With the default
// DeviceCPU policy this is a no-op beyond bookkeeping.
func (s *Session) recordPlacement(prog *nir.Program, bindings map[string]*Vector) {
	elems, bytes := 0, 0
	names := make([]string, 0, len(bindings))
	for name, v := range bindings {
		if v == nil {
			continue
		}
		if v.Len() > elems {
			elems = v.Len()
		}
		bytes += v.Len() * v.Kind().Width()
		names = append(names, name)
	}
	ops := 1
	if prog != nil {
		ops = prog.NumInstrs
	}
	k := device.Kernel{
		Name: "session-run", Elems: elems,
		BytesIn: bytes, BytesOut: bytes,
		OpsPerElem: float64(ops), Inputs: names,
	}
	chosen := s.eng.choosePlacement(s.opt.device, k)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.placements = append(s.placements, Placement{
		Elems: elems, Bytes: bytes, Device: chosen,
	})
	if len(s.placements) > maxPlacements {
		s.placements = append(s.placements[:0], s.placements[len(s.placements)-maxPlacements:]...)
	}
}

// maxPlacements bounds the placement log of a long-lived session; Stats
// reports the most recent decisions.
const maxPlacements = 256
