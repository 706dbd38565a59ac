// Morsel-parallel query execution: the exchange operator of the paper's
// intra-query parallelism story ([15], morsel-driven parallelism). A table's
// row space is split into morsels dispatched dynamically to worker copies of
// a scan→filter/compute pipeline; the exchange re-emits the workers' chunks
// in table order, so everything downstream — including floating-point
// aggregation — observes exactly the row order of serial execution and
// produces bit-identical results.

package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/morsel"
	"repro/internal/qtrace"
	"repro/internal/vector"
)

// PartScan is a table scan restricted to a settable row window [lo, hi).
// The exchange resets the window once per dispatched morsel, so one PartScan
// serves a whole worker pipeline for the lifetime of a query.
//
// By default its chunks are owned: none is ever written again, so consumers
// may hold chunks across Next calls and goroutines. Over a vector.Viewer (an
// in-RAM table) a chunk's columns are read-only views of the table's own
// storage and nothing is copied; any other store (the colstore) is decoded
// into fresh buffers per chunk. A lent scan (see Lend) instead refills one
// chunk header, one set of view headers and one set of decode buffers on
// every Next, so in steady state it allocates nothing.
type PartScan struct {
	store    vector.Store
	viewer   vector.Viewer
	skipper  RangeSkipper
	cols     []int
	names    []string
	schema   []ColInfo
	chunkLen int
	pos, hi  int

	// Lent state: the buffers and chunk header every Next refills.
	lent  bool
	bufs  []*vector.Vector
	chunk vector.Chunk

	tsp *qtrace.Span // the scan's plan-node span; nil when untraced
}

// NewPartScan creates a windowed scan over the named columns of store (all
// columns when none are given). The window starts empty; SetRange arms it.
func NewPartScan(store vector.Store, columns ...string) (*PartScan, error) {
	cols, schema, err := resolveColumns(store, columns)
	if err != nil {
		return nil, err
	}
	s := &PartScan{store: store, chunkLen: vector.DefaultChunkLen, cols: cols, schema: schema}
	for _, ci := range schema {
		s.names = append(s.names, ci.Name)
	}
	s.viewer, _ = store.(vector.Viewer)
	s.skipper, _ = store.(RangeSkipper)
	return s, nil
}

// Lend switches the scan to lent chunks: a chunk stays valid only until the
// next Next, whose rows overwrite it. Only a consumer that is done with every
// chunk before it pulls the next may lend — ParallelAgg's plain path, which
// folds each chunk into its table and copies what it keeps. Operators
// stacked on a lent leaf may lend their own output in turn (fused.Exec does).
func (s *PartScan) Lend() { s.lent = true }

// Lent reports whether the scan lends its chunks.
func (s *PartScan) Lent() bool { return s.lent }

// SetTrace makes every Next add its time, one loop and its rows to sp, the
// span of the plan's scan node. The leaves of one query's worker pipelines
// share that span. Must be called before Open.
func (s *PartScan) SetTrace(sp *qtrace.Span) { s.tsp = sp }

// SetChunkLen overrides the scan's chunk length (default
// vector.DefaultChunkLen).
func (s *PartScan) SetChunkLen(n int) *PartScan {
	if n > 0 {
		s.chunkLen = n
	}
	return s
}

// SetRange arms the scan to produce rows [lo, hi).
func (s *PartScan) SetRange(lo, hi int) {
	s.pos, s.hi = lo, hi
}

// Schema implements Operator.
func (s *PartScan) Schema() []ColInfo { return s.schema }

// Open implements Operator. It does not reset the window: ranges are owned
// by SetRange callers.
func (s *PartScan) Open(ctx context.Context) error { return ctx.Err() }

// Next implements Operator. As the pipeline's leaf it checks ctx once per
// chunk, which bounds how far past a cancellation any downstream operator
// can run.
func (s *PartScan) Next(ctx context.Context) (*vector.Chunk, error) {
	if s.tsp == nil {
		return s.next(ctx)
	}
	start := time.Now()
	c, err := s.next(ctx)
	s.tsp.AddTime(time.Since(start))
	s.tsp.AddLoop()
	if c != nil {
		s.tsp.AddRows(int64(c.SelectedLen()))
	}
	return c, err
}

func (s *PartScan) next(ctx context.Context) (*vector.Chunk, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.skipper != nil {
		for s.pos < s.hi {
			hi := s.pos + s.chunkLen
			if hi > s.hi {
				hi = s.hi
			}
			if !s.skipper.SkipRange(s.pos, hi) {
				break
			}
			s.pos = hi
		}
	}
	n := s.hi - s.pos
	if n <= 0 {
		return nil, nil
	}
	if n > s.chunkLen {
		n = s.chunkLen
	}
	bufs := s.bufs
	if bufs == nil {
		bufs = s.newBufs(n)
		if s.lent {
			s.bufs = bufs
		}
	}
	var got int
	if s.viewer != nil {
		got = s.viewer.View(s.pos, n, s.cols, bufs)
	} else {
		got = s.store.Scan(s.pos, n, s.cols, bufs)
	}
	if got == 0 {
		return nil, nil
	}
	s.pos += got
	if !s.lent {
		return vector.ChunkFrom(s.names, bufs), nil
	}
	s.chunk.Refill(s.names, bufs)
	return &s.chunk, nil
}

// newBufs allocates one chunk's column vectors: bare headers for a view
// scan, n-row buffers for a store that decodes into them.
func (s *PartScan) newBufs(n int) []*vector.Vector {
	bufs := make([]*vector.Vector, len(s.cols))
	if s.viewer != nil {
		// One allocation holds every column's header, however many columns.
		views := make([]vector.Vector, len(s.cols))
		for i := range bufs {
			bufs[i] = &views[i]
		}
		return bufs
	}
	for i, info := range s.schema {
		bufs[i] = vector.NewLen(info.Kind, n)
	}
	return bufs
}

// Close implements Operator.
func (s *PartScan) Close() error { return nil }

// workerPipes is what every dispatching operator — Exchange, ParallelAgg,
// ParallelTopK and the parallel join build — runs on: one windowed scan leaf
// per worker, the private pipeline built over it, and the morsel dispatch
// that arms a leaf, drives its pipeline and keeps the run's first error.
type workerPipes struct {
	traceHook
	store     vector.Store
	workers   int
	morselLen int
	leaves    []*PartScan
	pipes     []Operator

	mu     sync.Mutex // guards err and stats against concurrent readers
	err    error
	failed atomic.Bool
	stats  morsel.Stats
}

// newWorkerPipes builds workers pipelines over store: mk is called once per
// worker with that worker's scan leaf over columns and returns the pipeline
// to run on top of it (the leaf itself for a bare scan). Each worker gets
// private operator instances — and thus private expression VMs — so no
// cross-worker synchronization happens on the hot path. what names the
// operator in errors.
func newWorkerPipes(what string, store vector.Store, columns []string, workers int,
	mk func(worker int, leaf Operator) (Operator, error)) (*workerPipes, error) {
	if workers < 1 {
		return nil, fmt.Errorf("engine: %s needs ≥ 1 worker, got %d", what, workers)
	}
	p := &workerPipes{store: store, workers: workers, morselLen: morsel.DefaultMorselLen}
	for w := 0; w < workers; w++ {
		leaf, err := NewPartScan(store, columns...)
		if err != nil {
			return nil, err
		}
		pipe, err := mk(w, leaf)
		if err != nil {
			return nil, err
		}
		p.leaves = append(p.leaves, leaf)
		p.pipes = append(p.pipes, pipe)
	}
	return p, nil
}

// setChunkLen overrides the chunk length of every worker's scan leaf.
func (p *workerPipes) setChunkLen(n int) {
	for _, leaf := range p.leaves {
		leaf.SetChunkLen(n)
	}
}

// setMorselLen overrides the dispatch granularity (default
// morsel.DefaultMorselLen).
func (p *workerPipes) setMorselLen(n int) {
	if n > 0 {
		p.morselLen = n
	}
}

// Workers returns the configured worker count.
func (p *workerPipes) Workers() int { return p.workers }

// MorselStats returns the dispatch statistics of the completed run (valid
// once the run has ended).
func (p *workerPipes) MorselStats() morsel.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// open opens every worker pipeline over an empty window.
func (p *workerPipes) open(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for w, pipe := range p.pipes {
		p.leaves[w].SetRange(0, 0)
		if err := pipe.Open(ctx); err != nil {
			return err
		}
	}
	return nil
}

// close closes every worker pipeline.
func (p *workerPipes) close() {
	for _, pipe := range p.pipes {
		pipe.Close()
	}
}

// run dispatches the store's rows as morsels over the workers. For each
// morsel it arms the worker's leaf to [lo, hi) and calls do, which drains
// the worker's pipeline and returns the rows it produced. The first error a
// call returns is kept (firstErr) and returned; every morsel dispatched
// after it is skipped, so only the morsels in flight finish. The operator
// span (SetTrace) gets one leaf span per morsel at the morsels trace level
// and the run's statistics at the end.
func (p *workerPipes) run(do func(worker, lo int, pipe Operator) (int64, error)) error {
	p.mu.Lock()
	p.err = nil
	p.mu.Unlock()
	p.failed.Store(false)
	rows := p.store.Rows()
	st := morsel.RunInstrumented(rows, morsel.Options{Workers: p.workers, MorselLen: p.morselLen},
		func(worker, lo, hi int) {
			if p.failed.Load() {
				return
			}
			msp := p.startMorsel()
			p.leaves[worker].SetRange(lo, hi)
			out, err := do(worker, lo, p.pipes[worker])
			if err != nil {
				msp.End()
				p.mu.Lock()
				if p.err == nil {
					p.err = err
				}
				p.mu.Unlock()
				p.failed.Store(true)
				return
			}
			finishMorsel(msp, worker, lo, hi, p.morselLen, rows, p.workers, out)
		})
	attachMorselStats(p.tsp, st)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = st
	return p.err
}

// firstErr returns the first error of the current or last run, if any.
func (p *workerPipes) firstErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// exMorsel is one morsel's worth of finished chunks, tagged with the
// morsel's dense sequence number for order-preserving re-emission.
type exMorsel struct {
	seq    int
	chunks []*vector.Chunk
}

// exBatchMorsels is how many finished morsels a worker accumulates before
// one channel handoff to the merge. Batching amortizes the per-morsel
// send/receive (and the wakeups it causes) without changing the output: the
// merge orders by sequence number, not by arrival.
const exBatchMorsels = 4

// Exchange fans a scan→filter/compute pipeline out over worker copies fed by
// work-stealing morsel dispatch, and merges their output back into one
// ordered chunk stream. It is an Operator, so anything that consumes chunks
// — aggregations, joins, the public cursor — parallelizes transparently.
//
// Chunks are re-emitted in table order (morsel sequence order), which makes
// the merged stream byte-identical to a serial scan of the same pipeline:
// order-sensitive consumers such as floating-point SUM see the same addition
// order. Workers still absorb skew dynamically — stealing morsels from
// slower workers' ranges — and hand off finished morsels to the merge in
// batches; only the emission is sequenced.
type Exchange struct {
	*workerPipes

	schema []ColInfo

	out    chan []exMorsel
	quit   chan struct{} // closed by Close: unblocks workers mid-push
	done   chan struct{}
	cancel context.CancelFunc
	opened bool

	pending map[int][]*vector.Chunk
	queue   []*vector.Chunk
	nextSeq int
}

// NewExchange builds an exchange over store with workers parallel pipelines.
// build is called once per worker with that worker's scan leaf and must
// return the pipeline to run on top of it (the leaf itself for a bare
// parallel scan). Each worker gets private operator instances — and thus
// private expression VMs — so no cross-worker synchronization happens on the
// hot path.
func NewExchange(store vector.Store, columns []string, workers int,
	build func(worker int, leaf Operator) (Operator, error)) (*Exchange, error) {
	pipes, err := newWorkerPipes("exchange", store, columns, workers, build)
	if err != nil {
		return nil, err
	}
	return &Exchange{workerPipes: pipes, schema: pipes.pipes[0].Schema()}, nil
}

// SetChunkLen overrides the chunk length of every worker's scan leaf.
func (e *Exchange) SetChunkLen(n int) *Exchange {
	e.setChunkLen(n)
	return e
}

// SetMorselLen overrides the dispatch granularity (default
// morsel.DefaultMorselLen).
func (e *Exchange) SetMorselLen(n int) *Exchange {
	e.setMorselLen(n)
	return e
}

// Schema implements Operator.
func (e *Exchange) Schema() []ColInfo { return e.schema }

// Open implements Operator: it opens every worker pipeline and starts the
// morsel dispatcher.
func (e *Exchange) Open(ctx context.Context) error {
	if err := e.open(ctx); err != nil {
		return err
	}
	e.nextSeq = 0
	e.pending = make(map[int][]*vector.Chunk)
	e.queue = nil
	e.out = make(chan []exMorsel, e.workers)
	e.quit = make(chan struct{})
	e.done = make(chan struct{})
	e.opened = true
	// The workers run under a private, cancellable context so Close can
	// abort them mid-morsel instead of waiting for their current drains.
	wctx, cancel := context.WithCancel(ctx)
	e.cancel = cancel
	go e.produce(wctx)
	return nil
}

// produce drives the morsel dispatch over the worker pipelines and feeds the
// ordered merge. It owns the out channel: closing it signals end of
// production.
func (e *Exchange) produce(ctx context.Context) {
	defer close(e.done)
	defer e.cancel() // release the private context once production ends
	// Per-worker handoff buffers: each worker batches up to exBatchMorsels
	// finished morsels per channel send. A buffer is owned by its worker
	// goroutine for the whole run, then flushed below after the run's
	// WaitGroup establishes happens-before.
	batches := make([][]exMorsel, e.workers)
	send := func(batch []exMorsel) {
		select {
		case e.out <- batch:
		case <-e.quit:
		}
	}
	// A morsel that fills its worker's batch hands it to the merge before
	// its span ends, so under TraceMorsels that span includes any wait for
	// a consumer that is behind.
	e.run(func(worker, lo int, pipe Operator) (int64, error) {
		chunks, err := drainMorsel(ctx, pipe)
		if err != nil {
			return 0, err
		}
		batches[worker] = append(batches[worker], exMorsel{seq: lo / e.morselLen, chunks: chunks})
		if len(batches[worker]) >= exBatchMorsels {
			send(batches[worker])
			batches[worker] = nil
		}
		return chunkRows(chunks), nil
	})
	for _, batch := range batches {
		if len(batch) > 0 {
			send(batch)
		}
	}
	close(e.out)
}

// drainMorsel pulls every chunk the armed morsel produces from a worker
// pipeline.
func drainMorsel(ctx context.Context, pipe Operator) ([]*vector.Chunk, error) {
	var chunks []*vector.Chunk
	for {
		c, err := pipe.Next(ctx)
		if err != nil {
			return nil, err
		}
		if c == nil {
			return chunks, nil
		}
		chunks = append(chunks, c)
	}
}

// Err returns the first worker error, if any.
func (e *Exchange) Err() error { return e.firstErr() }

// Next implements Operator: it returns the workers' chunks in morsel
// sequence order, buffering out-of-order completions. A worker error or a
// cancelled ctx surfaces here.
func (e *Exchange) Next(ctx context.Context) (*vector.Chunk, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for {
		if len(e.queue) > 0 {
			c := e.queue[0]
			e.queue = e.queue[1:]
			return c, nil
		}
		batch, ok := <-e.out
		if !ok {
			return nil, e.Err()
		}
		for _, res := range batch {
			e.pending[res.seq] = res.chunks
		}
		for {
			chunks, ready := e.pending[e.nextSeq]
			if !ready {
				break
			}
			delete(e.pending, e.nextSeq)
			e.nextSeq++
			e.queue = append(e.queue, chunks...)
		}
	}
}

// Close implements Operator: it cancels the workers' private context (so
// drains in flight abort at their next chunk boundary rather than running
// their morsels to completion, and the first such abort stops the dispatch),
// unblocks workers that are mid-push, waits for them to exit, and closes the
// worker pipelines. Safe to call without draining Next first, and
// idempotent.
func (e *Exchange) Close() error {
	if e.opened {
		e.opened = false
		e.cancel()
		close(e.quit)
		for range e.out {
			// Discard: unblocks workers stuck pushing finished morsels.
		}
		<-e.done
	}
	e.close()
	return nil
}

// ---------------------------------------------------------------------------
// Parallel hash join: morsel-parallel partitioned build + shared read-only
// table probed by worker-private TableProbe operators inside the existing
// PartScan pipelines.

// SharedJoinTable is the once-per-query handle onto a join's build side: a
// recipe that materializes and hashes the build rows the first time any
// worker's probe opens, then serves the immutable JoinTable to every worker.
// The build-side output schema is known statically so probes stacked on top
// can resolve their own schemas before anything executes.
type SharedJoinTable struct {
	schema []ColInfo
	build  func(ctx context.Context) (*JoinTable, error)

	once sync.Once
	tbl  *JoinTable
	err  error
}

// NewSharedJoinTable wraps a build recipe. schema must be the build
// pipeline's output schema.
func NewSharedJoinTable(schema []ColInfo, build func(ctx context.Context) (*JoinTable, error)) *SharedJoinTable {
	return &SharedJoinTable{schema: schema, build: build}
}

// Schema returns the build side's output schema.
func (s *SharedJoinTable) Schema() []ColInfo { return s.schema }

// Table builds the join table on first call and returns it thereafter. A
// failed build (including a cancelled ctx) is cached: shared tables are
// per-query, so the query is aborted either way.
func (s *SharedJoinTable) Table(ctx context.Context) (*JoinTable, error) {
	s.once.Do(func() { s.tbl, s.err = s.build(ctx) })
	return s.tbl, s.err
}

// BuildJoinTableParallel materializes a build-side pipeline over dynamically
// dispatched morsels of its table and hashes the result into a partitioned
// JoinTable: every worker runs a private copy of the pipeline (built by mk
// over a windowed scan leaf), the per-morsel outputs are stitched back in
// morsel order — so the build rows, and therefore every multi-match list,
// are byte-identical to a serial materialization — and the partitions are
// then hashed concurrently, one partition per worker, without contention.
func BuildJoinTableParallel(ctx context.Context, store vector.Store, columns []string,
	workers, chunkLen, morselLen int, buildKey string,
	mk func(worker int, leaf Operator) (Operator, error)) (*JoinTable, error) {
	return BuildJoinTableParallelTraced(ctx, store, columns, workers, chunkLen, morselLen, buildKey, mk, nil, false)
}

// BuildJoinTableParallelTraced is BuildJoinTableParallel with tracing: when
// tsp is non-nil the run attaches its morsel statistics to it, and with
// traceMorsels additionally records one leaf span per build morsel.
func BuildJoinTableParallelTraced(ctx context.Context, store vector.Store, columns []string,
	workers, chunkLen, morselLen int, buildKey string,
	mk func(worker int, leaf Operator) (Operator, error),
	tsp *qtrace.Span, traceMorsels bool) (*JoinTable, error) {
	if morselLen <= 0 {
		morselLen = morsel.DefaultMorselLen
	}
	// Cap the fan-out at the build side's morsel count: a tiny build table
	// gains nothing from surplus workers, and each one costs a full pipeline
	// (expression VMs included) plus an idle spin in the dispatcher. The cap
	// is result-invisible — stitching is keyed by morsel sequence, and the
	// partition count of the hashed table affects scheduling only.
	if nm := (store.Rows() + morselLen - 1) / morselLen; nm > 0 && workers > nm {
		workers = nm
	}
	p, err := newWorkerPipes("parallel build", store, columns, workers, mk)
	if err != nil {
		return nil, err
	}
	defer p.close()
	if chunkLen > 0 {
		p.setChunkLen(chunkLen)
	}
	p.setMorselLen(morselLen)
	p.SetTrace(tsp, traceMorsels)
	if err := p.open(ctx); err != nil {
		return nil, err
	}

	numMorsels := (store.Rows() + morselLen - 1) / morselLen
	results := make([][]*vector.Chunk, numMorsels)
	err = p.run(func(_, lo int, pipe Operator) (int64, error) {
		chunks, err := drainMorsel(ctx, pipe)
		if err != nil {
			return 0, err
		}
		// Distinct morsels write distinct slice elements: no lock needed.
		results[lo/morselLen] = chunks
		return chunkRows(chunks), nil
	})
	if err != nil {
		return nil, err
	}

	// Stitch the morsel outputs back in table order into a store sized for
	// all of them, gathering each chunk's selected rows once.
	total := 0
	for _, chunks := range results {
		total += int(chunkRows(chunks))
	}
	sch := storeSchema(p.pipes[0].Schema())
	out := vector.NewDSMStoreCap(sch, total)
	for _, chunks := range results {
		for _, c := range chunks {
			out.AppendChunk(projectTo(c, sch.Names))
		}
	}
	return newPartitionedJoinTable(out, buildKey, workers)
}

// newPartitionedJoinTable indexes rows into a power-of-two number of
// partitions ≥ workers in two parallel passes: each worker scatters a
// contiguous key range into per-(worker, partition) row lists — hashing
// every key exactly once — and each partition then indexes its lists in
// worker order (contiguous ranges, so that order is build order) into its
// private join index and Bloom filter. The partition count affects
// scheduling only, never results.
func newPartitionedJoinTable(rows *vector.DSMStore, buildKey string, workers int) (*JoinTable, error) {
	t, err := newJoinTableHeader(rows, buildKey)
	if err != nil {
		return nil, err
	}
	nparts := 1
	for nparts < workers {
		nparts *= 2
	}
	t.mask = uint64(nparts - 1)
	t.parts = make([]joinIndex, nparts)
	t.blooms = make([]*BloomFilter, nparts)
	keys := rows.Col(t.keyIdx).I64()

	// Pass 1: scatter. Worker w owns rows [w·n/W, (w+1)·n/W).
	scattered := make([][][]int32, workers) // [worker][partition][]row
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := len(keys)*w/workers, len(keys)*(w+1)/workers
			// The hash spreads rows evenly: an eighth of slack over the
			// fair share keeps almost every list from growing.
			per := (hi-lo)/nparts + (hi-lo)/(8*nparts) + 8
			lists := make([][]int32, nparts)
			for p := range lists {
				lists[p] = make([]int32, 0, per)
			}
			for i := lo; i < hi; i++ {
				p := t.part(keys[i])
				lists[p] = append(lists[p], int32(i))
			}
			scattered[w] = lists
		}(w)
	}
	wg.Wait()

	// Pass 2: per-partition index over the worker lists in worker order.
	for p := 0; p < nparts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lists := make([][]int32, workers)
			n := 0
			for w := range lists {
				lists[w] = scattered[w][p]
				n += len(lists[w])
			}
			bl := NewBloomFilter(maxi(n, 64))
			for _, l := range lists {
				for _, i := range l {
					bl.Add(keys[i])
				}
			}
			t.parts[p] = newJoinIndex(keys, lists)
			t.blooms[p] = bl
		}(p)
	}
	wg.Wait()
	return t, nil
}

// TableProbe streams probe chunks against a shared read-only JoinTable: the
// worker-side half of the parallel hash join. Many TableProbe instances (one
// per exchange worker) share one SharedJoinTable; each keeps a private
// adaptive-Bloom state so nothing synchronizes per chunk. Output rows match
// the serial HashJoin byte for byte: probe rows in probe order, match lists
// in build order.
type TableProbe struct {
	child    Operator
	shared   *SharedJoinTable
	probeKey string
	payload  []string
	probeCore

	tbl     *JoinTable
	schema  []ColInfo
	payIdx  []int
	keyIdxP int
}

// NewTableProbe builds a probe over child against shared. The schema — child
// columns then payload columns — resolves eagerly, so probes compose under
// exchanges and further probes before anything opens.
func NewTableProbe(child Operator, shared *SharedJoinTable, probeKey string, payload ...string) (*TableProbe, error) {
	p := &TableProbe{
		child: child, shared: shared, probeKey: probeKey, payload: payload,
		probeCore: newProbeCore(),
	}
	p.schema = append(p.schema, child.Schema()...)
	for _, pay := range payload {
		kind := vector.Invalid
		for _, ci := range shared.Schema() {
			if ci.Name == pay {
				kind = ci.Kind
				break
			}
		}
		if kind == vector.Invalid {
			return nil, fmt.Errorf("engine: payload column %q missing from build side", pay)
		}
		p.schema = append(p.schema, ColInfo{Name: pay, Kind: kind})
	}
	var err error
	if p.keyIdxP, err = resolveProbeKey(child.Schema(), probeKey); err != nil {
		return nil, err
	}
	return p, nil
}

// SetBloom fixes the Bloom flavor (default adaptive).
func (p *TableProbe) SetBloom(m BloomMode) *TableProbe { p.mode = m; return p }

// Schema implements Operator.
func (p *TableProbe) Schema() []ColInfo { return p.schema }

// Open implements Operator: the first probe to open triggers the shared
// build; the rest attach to the finished table.
func (p *TableProbe) Open(ctx context.Context) error {
	if err := p.child.Open(ctx); err != nil {
		return err
	}
	tbl, err := p.shared.Table(ctx)
	if err != nil {
		return err
	}
	p.tbl = tbl
	if p.payIdx, err = resolvePayload(tbl.Rows().Schema(), p.payload); err != nil {
		return err
	}
	return nil
}

// Next implements Operator.
func (p *TableProbe) Next(ctx context.Context) (*vector.Chunk, error) {
	for {
		chunk, err := p.child.Next(ctx)
		if err != nil || chunk == nil {
			return chunk, err
		}
		cc := chunk
		if chunk.Sel() != nil {
			cc = chunk.Condense()
		}
		probeIdx, buildIdx := p.probeKeys(p.tbl, cc.Col(p.keyIdxP).I64())
		if len(probeIdx) == 0 {
			continue
		}
		return joinEmit(cc, p.tbl.Rows(), p.payload, p.payIdx, probeIdx, buildIdx), nil
	}
}

// Close implements Operator (the shared table is owned by the query, not the
// probe).
func (p *TableProbe) Close() error { return p.child.Close() }

// ---------------------------------------------------------------------------
// Parallel grouped aggregation: per-morsel pre-aggregation tables merged in
// morsel sequence order.

// ParallelAgg is a morsel-parallel grouped aggregation: worker pipelines
// (scan→filter/compute/probe chains over windowed scans) process morsels
// concurrently under work-stealing dispatch, each morsel folding its rows —
// in row order — into a private pre-aggregation table slotted by the
// morsel's dense sequence number. When the run completes, the tables merge
// pairwise in a sequence-ordered tree, so every group's accumulation order is
// fully determined by the data and the morsel length: which worker ran a
// morsel, how many workers there were, and how steals interleaved all
// cancel out.
//
// The result is therefore byte-identical at every worker count (including
// 1) and execution tier — floating-point sums included. The
// one knob that participates in result identity is the morsel length: a
// group spanning several morsels accumulates blockwise, and f64 addition is
// not associative, so different morsel lengths may legitimately differ in
// low-order float bits. A table no longer than one morsel degenerates to
// the strict row-order fold.
type ParallelAgg struct {
	*workerPipes
	spec   *aggSpec
	schema []ColInfo

	out     *vector.Chunk
	emitted bool
}

// NewParallelAgg builds a parallel aggregation over store with workers
// pipelines; mk instantiates each worker's private pipeline over its scan
// leaf (the leaf itself for aggregation straight over a scan).
func NewParallelAgg(store vector.Store, columns []string, workers int,
	mk func(worker int, leaf Operator) (Operator, error),
	keys []string, aggs []Aggregate) (*ParallelAgg, error) {
	pipes, err := newWorkerPipes("parallel aggregation", store, columns, workers, mk)
	if err != nil {
		return nil, err
	}
	// Every pipeline is folded chunk by chunk, each chunk before the next is
	// pulled, so its leaf may lend.
	for _, leaf := range pipes.leaves {
		leaf.Lend()
	}
	spec, sch, err := newAggSpec(pipes.pipes[0].Schema(), keys, aggs)
	if err != nil {
		return nil, err
	}
	return &ParallelAgg{workerPipes: pipes, spec: spec, schema: sch}, nil
}

// SetChunkLen overrides the chunk length of every worker's scan leaf.
func (a *ParallelAgg) SetChunkLen(n int) *ParallelAgg {
	a.setChunkLen(n)
	return a
}

// SetMorselLen overrides the dispatch granularity.
func (a *ParallelAgg) SetMorselLen(n int) *ParallelAgg {
	a.setMorselLen(n)
	return a
}

// Schema implements Operator.
func (a *ParallelAgg) Schema() []ColInfo { return a.schema }

// Open implements Operator.
func (a *ParallelAgg) Open(ctx context.Context) error {
	if err := a.open(ctx); err != nil {
		return err
	}
	a.emitted = false
	a.out = nil
	return nil
}

// Next implements Operator: the first call runs the whole parallel
// aggregation synchronously and emits the single result chunk.
func (a *ParallelAgg) Next(ctx context.Context) (*vector.Chunk, error) {
	if a.emitted {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a.emitted = true

	numMorsels := (a.store.Rows() + a.morselLen - 1) / a.morselLen
	// One pre-aggregation table per morsel, slotted by sequence number. A
	// morsel's slot is written by exactly one worker (the dispatcher claims
	// each morsel exactly once) and read only after the run completes, so the
	// slice needs no locking.
	tables := make([]*aggTable, numMorsels)
	hint := a.tableHint()
	err := a.run(func(_, lo int, pipe Operator) (int64, error) {
		// Fold chunk by chunk while draining, so a morsel's output (join
		// fan-out included) never buffers and the pipeline's chunks may be
		// lent (NewParallelAgg).
		tbl := newAggTable(a.spec, hint)
		var absorbed int64
		for {
			c, err := pipe.Next(ctx)
			if err != nil {
				return 0, err
			}
			if c == nil {
				break
			}
			tbl.absorb(c)
			absorbed += int64(c.SelectedLen())
		}
		tables[lo/a.morselLen] = tbl
		return absorbed, nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Merge the per-morsel tables in a sequence-ordered pairwise tree — each
	// merge's right operand holds strictly later rows than its left — and
	// emit in key order.
	final := mergeAggTables(tables, a.workers, a.spec)
	a.out = emitAggChunk(a.schema, final)
	final.release()
	return a.out, nil
}

// DistinctEstimator is implemented by stores whose metadata carries
// per-column distinct-value estimates (the colstore's zone maps).
// ParallelAgg uses them to pre-size per-morsel group tables; an estimate of
// 0 means "unknown".
type DistinctEstimator interface {
	DistinctEstimate(col string) int
}

// tableHint estimates the group count of one morsel's pre-aggregation table:
// the largest zone-map distinct estimate across the group-key columns,
// capped at the morsel length (a morsel cannot hold more groups than rows).
// 0 when the store has no estimates or a key is not a stored column (e.g.
// computed downstream of the scan).
func (a *ParallelAgg) tableHint() int {
	de, ok := a.store.(DistinctEstimator)
	if !ok {
		return 0
	}
	hint := 0
	for _, k := range a.spec.keys {
		d := de.DistinctEstimate(k)
		if d <= 0 {
			return 0
		}
		if d > hint {
			hint = d
		}
	}
	if hint > a.morselLen {
		hint = a.morselLen
	}
	return hint
}

// mergeAggTables folds the per-morsel tables into one with a pairwise,
// sequence-ordered reduction tree: every round merges table 2i+1 into table
// 2i (an odd tail carries over), so each merge's right operand still holds
// strictly later rows than its left and the combined first-seen order — and
// therefore the floating-point accumulation order per group — is identical
// to the serial left-to-right fold's group order. The tree's shape depends
// only on the morsel count, never on workers, keeping result bytes a
// function of (plan, data, morsel length); rounds with several pairs run
// them concurrently since pairs touch disjoint tables. Merged-away tables
// are released to the pool; the caller owns (and releases) the survivor.
func mergeAggTables(tables []*aggTable, workers int, spec *aggSpec) *aggTable {
	live := make([]*aggTable, 0, len(tables))
	for _, t := range tables {
		if t != nil {
			live = append(live, t)
		}
	}
	if len(live) == 0 {
		return newAggTable(spec, 0)
	}
	for len(live) > 1 {
		pairs := len(live) / 2
		mergePair := func(i int) {
			live[2*i].merge(live[2*i+1], nil)
			live[2*i+1].release()
		}
		if workers > 1 && pairs > 1 {
			var wg sync.WaitGroup
			for i := 0; i < pairs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					mergePair(i)
				}(i)
			}
			wg.Wait()
		} else {
			for i := 0; i < pairs; i++ {
				mergePair(i)
			}
		}
		next := make([]*aggTable, 0, (len(live)+1)/2)
		for i := 0; i < len(live); i += 2 {
			next = append(next, live[i])
		}
		live = next
	}
	return live[0]
}

// Close implements Operator.
func (a *ParallelAgg) Close() error {
	a.close()
	return nil
}
