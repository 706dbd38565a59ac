package advm

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/dsl"
	"repro/internal/fused"
	"repro/internal/jit"
	"repro/internal/nir"
	"repro/internal/vm"
)

// Engine is the process-wide execution backend of the adaptive VM: it owns
// the worker pool that morsel-parallel queries draw from, the
// prepared-statement cache that lets concurrent sessions share one
// adaptive VM per distinct program, and the JIT template cache every one of
// its VMs — prepared programs and query expressions alike — gets its traces
// from. Create one Engine per process (or per
// tenant) and hand out lightweight sessions from it:
//
//	eng, _ := advm.NewEngine(advm.WithParallelism(8))
//	defer eng.Close()
//	prep, _ := eng.Prepare(src, map[string]advm.Kind{"data": advm.I64})
//	sess, _ := eng.Session()
//	err := sess.RunPrepared(ctx, prep, bindings)
//
// Sharing matters because adaptivity amortizes: the paper's profiling →
// fragment JIT → trace injection cycle only pays off when the compiled
// artifacts are reused. Prepared programs are cached by the canonical
// fingerprint of their normalized IR, so every session executing the same
// program — however it spells its variables — drives the same VM, whose
// profile, injected traces and micro-adaptive decisions keep improving with
// the combined traffic.
//
// All Engine methods are safe for concurrent use.
type Engine struct {
	opt options

	mu       sync.Mutex // guards cache and useClock
	cache    map[nir.Fingerprint]*prepEntry
	useClock int64

	pool *workerPool

	// jit caches trace code by fragment shape: a program or lambda that
	// differs from an earlier one only in its constants reuses that one's
	// code (see EngineStats.JITTemplates).
	jit *jit.Cache

	tablesMu sync.Mutex
	tables   map[string]*colstore.Table // open stored tables by directory

	// Tiered relational execution: per-fingerprint hotness state and the
	// engine-wide fused-code cache (see WithTieredExecution).
	tiersMu   sync.Mutex
	tiers     map[string]*tierEntry
	tierClock int64
	fcache    *fused.Cache

	sessions        atomic.Int64
	prepares        atomic.Int64
	cacheHits       atomic.Int64
	cacheEvictions  atomic.Int64
	parallelQueries atomic.Int64
	tierUps         atomic.Int64
	fusedCompiles   atomic.Int64
	fusedCacheHits  atomic.Int64
	fusedQueries    atomic.Int64
	closed          atomic.Bool
}

// tierEntry is the hotness state of one canonical plan fingerprint.
type tierEntry struct {
	fp        string
	execs     atomic.Int64 // completed+started Query calls for this plan
	fusedRuns atomic.Int64 // queries that executed fused loops
	use       int64        // last-use stamp for LRU eviction (under tiersMu)
}

// maxTierEntries bounds the per-fingerprint hotness map the same way the
// prepared-statement cache is bounded: endlessly distinct plans recycle
// slots (losing only their execution counts) instead of growing the engine.
const maxTierEntries = 256

// tierEntryFor returns the hotness state for a plan fingerprint, creating
// it on first use and evicting the least-recently-queried entry on
// overflow.
func (e *Engine) tierEntryFor(fp string) *tierEntry {
	e.tiersMu.Lock()
	defer e.tiersMu.Unlock()
	if e.tiers == nil {
		e.tiers = make(map[string]*tierEntry)
	}
	t, ok := e.tiers[fp]
	if !ok {
		if len(e.tiers) >= maxTierEntries {
			var victim *tierEntry
			for _, cand := range e.tiers {
				if victim == nil || cand.use < victim.use {
					victim = cand
				}
			}
			if victim != nil {
				delete(e.tiers, victim.fp)
			}
		}
		t = &tierEntry{fp: fp}
		e.tiers[fp] = t
	}
	e.tierClock++
	t.use = e.tierClock
	return t
}

// tierName classifies an execution count against the cold/warm/hot
// thresholds.
func tierName(n, warm, hot int64) string {
	switch {
	case n >= hot:
		return "hot"
	case n >= warm:
		return "warm"
	default:
		return "cold"
	}
}

// prepEntry is one cached prepared program: the shared VM and its identity.
type prepEntry struct {
	fp   nir.Fingerprint
	src  string
	prog *nir.Program
	vm   *vm.VM
	runs atomic.Int64
	use  int64 // last-use stamp for LRU eviction (under Engine.mu)
}

// maxPreparedPrograms bounds the prepared-statement cache: each entry pins a
// whole VM (profile, traces), so a workload of endlessly distinct programs
// — e.g. queries with inlined varying constants — must recycle slots
// instead of growing until OOM. Evicted entries stay fully usable through
// the Prepared handles already holding them; only future Prepare calls
// re-learn.
const maxPreparedPrograms = 256

// NewEngine creates an engine. Options set the engine-wide defaults that
// Engine.Session hands down (and that Prepare bakes into shared VMs).
func NewEngine(opts ...Option) (*Engine, error) {
	o := defaultOptions()
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, tagged(ErrBind, err)
		}
	}
	o.finalize()
	return newEngine(o), nil
}

func newEngine(o options) *Engine {
	e := &Engine{
		opt:    o,
		cache:  make(map[nir.Fingerprint]*prepEntry),
		fcache: fused.NewCache(0),
		jit:    jit.NewCache(),
	}
	e.opt.cfg.Templates = e.jit
	capacity := runtime.GOMAXPROCS(0)
	if o.parallelism > capacity {
		capacity = o.parallelism
	}
	e.pool = &workerPool{capacity: capacity}
	return e
}

// Session creates a lightweight session backed by the engine: it shares the
// engine's worker pool and prepared-statement cache. opts override the
// engine's defaults for this session only (they do not affect VMs already
// shared through Prepare). Closing the session does not close
// the engine.
func (e *Engine) Session(opts ...Option) (*Session, error) {
	if e.closed.Load() {
		return nil, errClosed("engine")
	}
	o := e.opt
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, tagged(ErrBind, err)
		}
	}
	o.finalize()
	e.sessions.Add(1)
	return &Session{eng: e, opt: o}, nil
}

// Prepare parses, checks and normalizes a DSL program and returns a
// reusable, concurrency-safe handle onto the shared adaptive VM for it.
// Programs are cached engine-wide by the canonical fingerprint of their
// normalized IR: preparing the same program again — from any session, in any
// spelling that normalizes identically — returns a handle onto the same VM,
// so its profile and injected JIT traces are shared instead of re-learned.
// The VM is configured with the engine's options; failures are classified
// under ErrCompile.
func (e *Engine) Prepare(src string, externals map[string]Kind) (*Prepared, error) {
	if e.closed.Load() {
		return nil, errClosed("engine")
	}
	ast, err := dsl.Parse(src)
	if err != nil {
		return nil, tagged(ErrCompile, err)
	}
	ir, err := nir.Normalize(ast, externals)
	if err != nil {
		return nil, tagged(ErrCompile, err)
	}
	fp := ir.Fingerprint()
	e.prepares.Add(1)
	e.mu.Lock()
	entry, ok := e.cache[fp]
	if ok {
		e.cacheHits.Add(1)
	} else {
		if len(e.cache) >= maxPreparedPrograms {
			e.evictLRU()
		}
		entry = &prepEntry{fp: fp, src: src, prog: ir, vm: vm.New(ir, e.opt.cfg)}
		e.cache[fp] = entry
	}
	e.useClock++
	entry.use = e.useClock
	e.mu.Unlock()
	return &Prepared{eng: e, entry: entry}, nil
}

// evictLRU drops the least-recently-prepared cache entry (caller holds mu).
// Outstanding Prepared handles keep the evicted VM alive and functional —
// it keeps compiling as it turns hot — but the engine stops unifying future
// Prepare calls onto it.
func (e *Engine) evictLRU() {
	var victim *prepEntry
	for _, entry := range e.cache {
		if victim == nil || entry.use < victim.use {
			victim = entry
		}
	}
	if victim != nil {
		delete(e.cache, victim.fp)
		e.cacheEvictions.Add(1)
	}
}

// OpenTable opens the disk-backed compressed columnar table stored in the
// colstore directory dir. Tables are cached by directory and shared
// engine-wide — concurrent sessions querying the same table share one set of
// mapped segment files — and are released by Engine.Close. Corrupt or
// truncated table files are classified under ErrBind.
func (e *Engine) OpenTable(dir string) (*StoredTable, error) {
	if e.closed.Load() {
		return nil, errClosed("engine")
	}
	e.tablesMu.Lock()
	defer e.tablesMu.Unlock()
	if t, ok := e.tables[dir]; ok {
		return t, nil
	}
	t, err := colstore.Open(dir)
	if err != nil {
		return nil, tagged(ErrBind, err)
	}
	if e.tables == nil {
		e.tables = make(map[string]*colstore.Table)
	}
	e.tables[dir] = t
	return t, nil
}

// Close marks the engine closed: subsequent Prepare, Session, Run and Query
// calls — including on sessions and prepared statements already handed out —
// return an error matching ErrClosed, the worker pool stops granting
// parallel workers. Executions already in flight finish normally, with one
// exception: stored tables opened through OpenTable have their file mappings
// released by Close, so queries streaming from them must be drained first.
// Close is idempotent.
func (e *Engine) Close() error {
	e.closed.Store(true)
	e.pool.close()
	e.tablesMu.Lock()
	tables := e.tables
	e.tables = nil
	e.tablesMu.Unlock()
	var err error
	for _, t := range tables {
		if cerr := t.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// EngineStats is a point-in-time snapshot of the engine's shared state.
type EngineStats struct {
	// Sessions counts sessions handed out by Engine.Session (plus the one
	// implicit session of a standalone NewSession/Compile engine).
	Sessions int64
	// Prepares counts Prepare calls; CacheHits counts how many of them were
	// answered from the prepared-statement cache. PreparedPrograms is the
	// number of currently cached programs (bounded; CacheEvictions counts
	// LRU evictions of cold entries).
	Prepares, CacheHits, CacheEvictions int64
	PreparedPrograms                    int
	// PoolCapacity and PoolInUse describe the worker pool: how many parallel
	// workers the engine may grant in total, and how many are currently
	// granted to running queries.
	PoolCapacity, PoolInUse int
	// ParallelQueries counts queries that executed with more than one
	// worker.
	ParallelQueries int64
	// TierUps counts plan fingerprints crossing the warm or hot thresholds
	// of tiered relational execution.
	TierUps int64
	// FusedCompiles and FusedCacheHits count fused-segment compilations and
	// code-cache hits; FusedPrograms is the current cache population
	// (negative entries included).
	FusedCompiles, FusedCacheHits int64
	FusedPrograms                 int
	// FusedQueries counts queries that executed fused loops.
	FusedQueries int64
	// FusedDeopts is always 0: a fused loop runs every chunk it starts, so
	// nothing reverts to the interpreter mid-query.
	//
	// Deprecated: kept only so existing readers compile; it will be removed.
	FusedDeopts int64
	// JITTemplates is the population of the engine's template cache: one
	// entry per distinct fragment shape — operators, kinds and dataflow,
	// blind to constants and names — whose trace code has been generated.
	// JITTemplateMisses counts the code generations (each inline, on the
	// goroutine whose hot check asked for it); JITTemplateHits counts the
	// fragments served from the cache.
	JITTemplates                       int
	JITTemplateHits, JITTemplateMisses int64
	// JITBuildNanos is the time spent generating templates and
	// JITBindNanos the time spent binding fragments to them (shape and
	// register derivation included), summed over every request. A modeled
	// compile latency (JITOptions.CompileLatency) is in neither.
	JITBuildNanos, JITBindNanos int64
	// Tiers is the per-fingerprint hotness state of tiered execution,
	// sorted by fingerprint.
	Tiers []TierInfo
}

// TierInfo is the hotness state of one plan fingerprint under tiered
// relational execution.
type TierInfo struct {
	// Fingerprint is the canonical plan fingerprint (a short hash of the
	// plan's structure, lambdas and scanned schemas).
	Fingerprint string
	// Tier is the fingerprint's current tier under the engine's thresholds:
	// "cold", "warm" or "hot".
	Tier string
	// Execs counts queries of this plan; FusedRuns how many executed fused
	// loops.
	Execs, FusedRuns int64
}

// Stats snapshots the engine's counters. Safe to call concurrently with
// everything else.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	cached := len(e.cache)
	e.mu.Unlock()
	capacity, inUse := e.pool.usage()
	e.tiersMu.Lock()
	tiers := make([]TierInfo, 0, len(e.tiers))
	for fp, t := range e.tiers {
		tiers = append(tiers, TierInfo{
			Fingerprint: fp,
			Tier:        tierName(t.execs.Load(), e.opt.tierWarm, e.opt.tierHot),
			Execs:       t.execs.Load(),
			FusedRuns:   t.fusedRuns.Load(),
		})
	}
	e.tiersMu.Unlock()
	sort.Slice(tiers, func(i, j int) bool { return tiers[i].Fingerprint < tiers[j].Fingerprint })
	fusedProgs, _, _ := e.fcache.Stats()
	js := e.jit.Stats()
	return EngineStats{
		Sessions:         e.sessions.Load(),
		Prepares:         e.prepares.Load(),
		CacheHits:        e.cacheHits.Load(),
		CacheEvictions:   e.cacheEvictions.Load(),
		PreparedPrograms: cached,
		PoolCapacity:     capacity,
		PoolInUse:        inUse,
		ParallelQueries:  e.parallelQueries.Load(),
		TierUps:          e.tierUps.Load(),
		FusedCompiles:    e.fusedCompiles.Load(),
		FusedCacheHits:   e.fusedCacheHits.Load(),
		FusedPrograms:    fusedProgs,
		FusedQueries:     e.fusedQueries.Load(),

		JITTemplates:      js.Templates,
		JITTemplateHits:   js.Hits,
		JITTemplateMisses: js.Misses,
		JITBuildNanos:     js.BuildNanos,
		JITBindNanos:      js.BindNanos,

		Tiers: tiers,
	}
}

// Prepared is a prepared program: a concurrency-safe handle onto a shared
// adaptive VM. Any number of goroutines and sessions may Run it at once;
// every run gets a private environment while profiling data and injected
// traces accumulate in the shared VM. (The VM's plans swap atomically, its
// profile and trace counters are atomic, and its optimizer coalesces
// concurrent passes — see internal/vm.)
type Prepared struct {
	eng   *Engine
	entry *prepEntry
}

// Run executes the prepared program once against the given external arrays.
// Semantics match Session.Run: ctx is honored at chunk boundaries
// (ErrCancelled), binding problems are classified under ErrBind, and a
// closed engine yields ErrClosed.
func (p *Prepared) Run(ctx context.Context, bindings map[string]*Vector) error {
	if p.eng.closed.Load() {
		return errClosed("engine")
	}
	env, err := p.entry.vm.NewEnv(bindings)
	if err != nil {
		return tagged(ErrBind, err)
	}
	if err := p.entry.vm.RunContext(ctx, env); err != nil {
		return classifyCtx(ctx, err)
	}
	p.entry.runs.Add(1)
	return nil
}

// Fingerprint returns the canonical fingerprint of the normalized program —
// the prepared-statement cache key.
func (p *Prepared) Fingerprint() string { return p.entry.fp.String() }

// Tier classifies this prepared program's cumulative run count against the
// engine's tier thresholds: "cold", "warm" or "hot". Repeated executions of
// the same program tier it up exactly like a repeated relational plan.
func (p *Prepared) Tier() string {
	return tierName(p.entry.runs.Load(), p.eng.opt.tierWarm, p.eng.opt.tierHot)
}

// Source returns the DSL source the program was first prepared from.
func (p *Prepared) Source() string { return p.entry.src }

// IR renders the normalized intermediate representation.
func (p *Prepared) IR() string { return p.entry.prog.String() }

// PlanReport renders the current execution plan of every program segment,
// showing which steps are interpreted and which run injected traces.
func (p *Prepared) PlanReport() string { return planReport(p.entry.vm) }

// Stats snapshots the shared VM's observability surface. Runs counts
// completed executions across every handle onto this program; trace and
// profile counters likewise aggregate all users — one prepared program, one
// set of traces.
func (p *Prepared) Stats() Stats {
	st := Stats{Runs: p.entry.runs.Load(), Kernels: KernelCount()}
	vmStats(p.entry.vm, &st)
	return st
}

// workerPool is the engine's admission control for intra-query parallelism:
// a query asks for n workers and is granted between 1 and n depending on
// availability, so concurrent parallel queries degrade toward serial
// execution instead of oversubscribing the host.
type workerPool struct {
	mu       sync.Mutex
	capacity int
	inUse    int
	closed   bool
}

// acquire grants up to n workers (serial execution — one worker — needs no
// permit and is always granted).
func (p *workerPool) acquire(n int) int {
	if n <= 1 {
		return 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 1
	}
	free := p.capacity - p.inUse
	if n > free {
		n = free
	}
	if n < 2 {
		return 1
	}
	p.inUse += n
	return n
}

// release returns granted workers to the pool.
func (p *workerPool) release(n int) {
	if n <= 1 {
		return
	}
	p.mu.Lock()
	p.inUse -= n
	p.mu.Unlock()
}

func (p *workerPool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

func (p *workerPool) usage() (capacity, inUse int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.capacity, p.inUse
}

// errClosed builds the typed closed error for a subject ("engine",
// "session").
func errClosed(what string) error {
	return tagged(ErrClosed, errors.New(what+" is closed"))
}
