package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"repro/advm"
)

// Run shape, the same for every workload (see README.md).
const (
	// Set-ups that are only timed and thrown away, so that setup_s is a
	// median of many: at least minRehearsals, then more while they are cheap
	// (half a second in all, at most maxRehearsals) — a 10 ms set-up needs
	// more samples than a 300 ms one to repeat within its bound.
	minRehearsals   = 6
	maxRehearsals   = 30
	rehearsalBudget = 500 * time.Millisecond

	// Set-ups followed by a cold pass, the last one kept for the window: at
	// least minRounds, then more while they are cheap (2.5 s in all, at most
	// maxRounds). The first pass of a process, on some seeds the first two,
	// runs up to half slower than the rest (its heap is still growing), and
	// the median of three passes is then a slow one every few runs.
	minRounds   = 3
	maxRounds   = 8
	roundBudget = 2500 * time.Millisecond

	tierUpRounds   = 8               // executions that take a shape to the engine's default hot tier
	warmupTime     = 2 * time.Second // scheduled traffic after the tier-up pass, discarded
	windowSlices   = 5               // the window is cut into slices; medians across slices reported
	minMeasuredOps = 400             // 20 samples beyond p95
)

// runConfig is one workload run: what the driver's flags select plus the
// run-wide recorders.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	// smoke shrinks data and set-up rounds to test scale and drops the
	// minimum op count. Only the package's tests set it: sizes are frozen,
	// not flags.
	smoke bool
	// corruptRef perturbs one reference answer: the run must then fail.
	corruptRef bool
	// Sensitivity flips of -sanity: public engine options only.
	noPruning, noTiered, noJIT bool

	outDir  string
	tmpRoot string
	tr      *tracer
	layers  *layerRec
	tables  *tableSet
}

// parallelism is the host sizing rule: engines get as many workers as the
// generator has cores to spare for them, frozen at two.
func parallelism() int { return min(runtime.GOMAXPROCS(0), 2) }

// engineOptions is the configuration a user gets — every default kept —
// plus the host-sized parallelism and any -sanity flip.
func (c *runConfig) engineOptions() []advm.Option {
	opts := []advm.Option{advm.WithParallelism(parallelism())}
	if c.noPruning {
		opts = append(opts, advm.WithScanPruning(false))
	}
	if c.noTiered {
		opts = append(opts, advm.WithTieredExecution(false))
	}
	if c.noJIT {
		opts = append(opts, advm.WithJIT(false))
	}
	return opts
}

// layerRec collects per-layer samples by metric name.
type layerRec struct{ samples map[string][]float64 }

func newLayerRec() *layerRec { return &layerRec{samples: map[string][]float64{}} }

func (l *layerRec) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// workload is one of the five benchmark workloads.
type workload interface {
	// setup generates and loads data, writes and opens storage, starts the
	// engine, sessions and server: everything until the first op can be
	// issued. The caller times it.
	setup() error
	// buildPool draws the workload's shapes and schedule from the seed and
	// computes every reference answer from the generated inputs (untimed).
	buildPool(rng *rand.Rand) *pool
	// exec runs one op of the given shape and checks its result.
	exec(ctx context.Context, oc *opCtx, e *entry) error
	engine() *advm.Engine
	close()
}

func newWorkload(cfg *runConfig) (workload, error) {
	switch cfg.workload {
	case "scan_ram", "scan_disk", "join_agg":
		return newRelWorkload(cfg), nil
	case "vm_programs":
		return newVMWorkload(cfg), nil
	case "serve_mix":
		return newServeWorkload(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

// opObs is what the benchmark observes of one op from outside.
type opObs struct {
	class string
	err   error
	// start → opened (plan built, Query returned) → firstRow → end (last
	// row drained / response fully read). The requests of serve_mix's
	// open-loop probe additionally carry their schedule in arr.
	start, opened, firstRow, end time.Time
	arr                          *arrival

	// Counters the public cursor exposes (relational ops).
	relational             bool
	segScanned, segSkipped int64
	steals                 int64
	fused                  bool
	rowsOut, rowsScanned   int64
	self                   map[string]int64 // operator self times, traced runs

	// serve_mix.
	status   int
	bytesOut int

	// deferred checks the op's result against its reference; it runs after
	// the phase's clock has stopped (see settle).
	deferred func() error
}

// settle runs the deferred result checks of a finished phase, so neither
// op latency nor the window's throughput pays for reference answers.
func settle(ops []*opObs) {
	for _, o := range ops {
		if o.err == nil && o.deferred != nil {
			o.err = o.deferred()
		}
		o.deferred = nil
	}
}

func (o *opObs) latency() time.Duration {
	if o.arr != nil {
		return o.arr.latency()
	}
	return o.end.Sub(o.start)
}

// opCtx is handed to exec: where to record the observation and, in a traced
// run, where to hang spans.
type opCtx struct {
	obs    *opObs
	traced bool
	tr     *tracer
	root   int32
	id     int64
	tid    int
}

func (oc *opCtx) begin(name string) int32 {
	return oc.tr.begin(oc.root, oc.id, oc.tid, "op/"+oc.obs.class+"/"+name)
}

func (oc *opCtx) end(id int32) { oc.tr.end(id) }

// runner drives one workload through set-up, cold pass, warm-up and the
// measured window.
type runner struct {
	cfg  *runConfig
	w    workload
	pool *pool
	seq  atomic.Int64 // op ids; serve_mix's probes issue ops from two goroutines

	setups   []float64
	cold     []*opObs  // the cold passes of all set-up rounds
	coldP50  []float64 // one median per cold pass
	tier     []*opObs  // the tier-up pass: checked and counted, never timed
	window   []*opObs
	winStart time.Time
	winWall  time.Duration
	// runtime/metrics deltas over the window.
	allocBytes, gcPause float64
}

// execOp runs one op on connection tid and returns its observation.
func (r *runner) execOp(ctx context.Context, e *entry, tid int) *opObs {
	o := &opObs{class: e.class}
	oc := &opCtx{obs: o, traced: r.cfg.traced, id: r.seq.Add(1), tid: tid}
	if oc.traced {
		oc.tr = r.cfg.tr
	}
	oc.root = oc.tr.begin(0, oc.id, tid, "op/"+e.class)
	o.start = time.Now()
	o.err = r.w.exec(ctx, oc, e)
	if o.end.IsZero() {
		o.end = time.Now()
	}
	oc.tr.end(oc.root)
	return o
}

// corruptChecker perturbs the first number of a result before it is
// checked — the same as perturbing the reference — so -corrupt-ref proves a
// wrong answer cannot pass.
func corruptChecker(check checker) checker {
	return func(rows [][]any) error {
		for _, r := range rows {
			for i, v := range r {
				if f, ok := asFloat(v); ok {
					r[i] = f*1.001 + 1
					return check(rows)
				}
				if n, ok := asInt(v); ok {
					r[i] = n + 1
					return check(rows)
				}
			}
		}
		return check(rows)
	}
}

// setUp replaces the runner's workload with one built from nothing, into a
// fresh temp dir, and times the set-up.
func (r *runner) setUp() error {
	cfg := r.cfg
	if r.w != nil {
		r.w.close()
		r.w = nil
		runtime.GC() // the previous set-up's tables must not inflate this one
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return err
	}
	sp := cfg.tr.begin(0, 0, 0, "setup")
	t0 := time.Now()
	err = w.setup()
	r.setups = append(r.setups, time.Since(t0).Seconds())
	cfg.tr.end(sp)
	r.w = w
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	return nil
}

// prepare rehearses the set-up, then runs the set-up rounds: each round a
// set-up followed by a cold pass — every distinct shape once — on its
// fresh engine. The last round's workload is kept for the window. The pool
// (parameters and references) is drawn once: it depends on the seed alone.
func (r *runner) prepare(ctx context.Context) error {
	cfg := r.cfg
	// again reports whether a phase that ran n times since start runs once
	// more: at least lim[0] times, then up to lim[1] while the budget lasts.
	again := func(n int, lim [2]int, start time.Time, budget time.Duration) bool {
		return n < lim[0] || (n < lim[1] && time.Since(start) < budget)
	}
	rehearsals, rounds := [2]int{minRehearsals, maxRehearsals}, [2]int{minRounds, maxRounds}
	if cfg.smoke {
		rehearsals, rounds = [2]int{}, [2]int{1, 1}
	}
	for n, start := 0, time.Now(); again(n, rehearsals, start, rehearsalBudget); n++ {
		if err := r.setUp(); err != nil {
			return err
		}
	}
	for n, start := 0, time.Now(); again(n, rounds, start, roundBudget); n++ {
		if err := r.setUp(); err != nil {
			return err
		}
		if r.pool == nil {
			r.pool = r.w.buildPool(rand.New(rand.NewSource(cfg.seed)))
			if cfg.corruptRef {
				corruptEntry(r.pool.cold[0])
			}
		}
		pass := make([]*opObs, len(r.pool.cold))
		for i, e := range r.pool.cold {
			pass[i] = r.execOp(ctx, e, 0)
		}
		settle(pass)
		r.cold = append(r.cold, pass...)
		r.coldP50 = append(r.coldP50, median(latencies(pass, "")))
	}
	return nil
}

// tierUp executes every shape of the hot and heavy sets until the engine
// runs it at its hot tier, so the window starts in the steady state a
// long-lived engine is in. Its latencies are discarded; its results are
// checked, and its failures counted, like any other op's.
func (r *runner) tierUp(ctx context.Context) {
	for round := 0; round < tierUpRounds; round++ {
		for _, e := range r.pool.warm {
			r.tier = append(r.tier, r.execOp(ctx, e, 0))
		}
	}
	settle(r.tier)
}

// closedLoop issues ops back to back from one client until the deadline.
func (r *runner) closedLoop(ctx context.Context, d time.Duration) []*opObs {
	var out []*opObs
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		out = append(out, r.execOp(ctx, r.pool.next(), 0))
	}
	return out
}

var windowMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

// gcPauseTotal approximates total pause seconds from the histogram's bucket
// midpoints (an open-ended bucket counts at its finite edge).
func gcPauseTotal(h *metrics.Float64Histogram) float64 {
	var total float64
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		total += float64(n) * (lo + hi) / 2
	}
	return total
}

func readWindowMetrics() (allocBytes, gcPause float64) {
	s := append([]metrics.Sample(nil), windowMetrics...)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		gcPause = gcPauseTotal(s[1].Value.Float64Histogram())
	}
	return allocBytes, gcPause
}

// measure runs scheduled traffic from one client, back to back, for warm
// (discarded), then for the measured window.
func (r *runner) measure(ctx context.Context, warm, window time.Duration) {
	r.closedLoop(ctx, warm)
	a0, p0 := readWindowMetrics()
	r.winStart = time.Now()
	r.window = r.closedLoop(ctx, window)
	r.winWall = time.Since(r.winStart)
	a1, p1 := readWindowMetrics()
	r.allocBytes, r.gcPause = a1-a0, p1-p0
	settle(r.window)
}

// ---------------------------------------------------------------------------
// End-to-end metrics.

// sliceStats cuts the window's ops into windowSlices equal spans of time by
// completion and returns per-slice throughput, p50 and p95: the run reports
// the median slice, so one noisy stretch of a shared host moves one slice,
// not the result.
func sliceStats(ops []*opObs, start time.Time, wall time.Duration) (tput, p50, p95 []float64) {
	lat := make([][]float64, windowSlices)
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		i := int(o.end.Sub(start) * windowSlices / wall)
		i = max(0, min(i, windowSlices-1))
		lat[i] = append(lat[i], ms(o.latency()))
	}
	per := (wall / windowSlices).Seconds()
	for _, l := range lat {
		tput = append(tput, float64(len(l))/per)
		p50 = append(p50, quantile(l, 0.50))
		p95 = append(p95, quantile(l, 0.95))
	}
	return tput, p50, p95
}

func latencies(ops []*opObs, class string) []float64 {
	var out []float64
	for _, o := range ops {
		if o.err == nil && (class == "" || o.class == class) {
			out = append(out, ms(o.latency()))
		}
	}
	return out
}

type result struct {
	attempted, failed int
	measured          int
	metrics           map[string]float64
	firstErr          error
}

func (r *runner) endToEnd() *result {
	res := &result{metrics: map[string]float64{}}
	for _, o := range append(append(append([]*opObs(nil), r.cold...), r.tier...), r.window...) {
		res.attempted++
		if o.err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("%s: %w", o.class, o.err)
			}
		}
	}
	res.measured = len(latencies(r.window, ""))
	tput, p50, p95 := sliceStats(r.window, r.winStart, r.winWall)
	m := res.metrics
	m["ops_per_s"] = median(tput)
	m["p50_ms"] = median(p50)
	m["p95_ms"] = median(p95)
	// The median cold pass: the first one after a process starts runs on a
	// heap that is still growing and is up to half slower on some seeds.
	m["cold_p50_ms"] = median(r.coldP50)
	m["peak_rss_mb"] = peakRSSMiB()
	m["setup_s"] = median(r.setups)
	return res
}

// runWorkload is one whole run of one workload in this process.
func runWorkload(cfg *runConfig) (*result, error) {
	ctx := context.Background()
	cfg.layers = newLayerRec()
	if cfg.traced {
		cfg.tr = newTracer()
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmpRoot = tmp

	r := &runner{cfg: cfg}
	defer func() {
		if r.w != nil {
			r.w.close()
		}
	}()
	if err := r.prepare(ctx); err != nil {
		return nil, err
	}
	r.tierUp(ctx)
	warm, window := warmupTime, cfg.window
	if cfg.smoke {
		warm = window / 4
	}
	var base []*opObs
	if cfg.traced {
		// The traced run splits its time: an untraced stretch as the base
		// of the tracing tax, the traced window, then the layer probes.
		cfg.traced = false
		r.measure(ctx, warm, window/5)
		base = r.window
		cfg.traced = true
		warm, window = 0, window*2/5
	}
	r.measure(ctx, warm, window)
	res := r.endToEnd()
	if !cfg.smoke && !cfg.traced && res.measured < minMeasuredOps {
		return nil, fmt.Errorf("invalid run: %d measured ops, need %d (20 beyond p95)", res.measured, minMeasuredOps)
	}
	if cfg.traced {
		r.layerMetrics(ctx, res, base)
		path := fmt.Sprintf("%s/trace-%s.json", cfg.outDir, cfg.workload)
		if err := cfg.tr.write(path, cfg.workload); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// corruptEntry perturbs the reference of one entry (-corrupt-ref): the
// first shape of the hot set, so the failures are many.
func corruptEntry(e *entry) {
	if p, ok := e.params.(*program); ok {
		p.corrupt = true
		return
	}
	e.check = corruptChecker(e.check)
}

// classes lists the op classes seen, sorted.
func classes(ops []*opObs) []string {
	seen := map[string]bool{}
	for _, o := range ops {
		seen[o.class] = true
	}
	var out []string
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
