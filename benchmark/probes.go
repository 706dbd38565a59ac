package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/advm"
	"repro/internal/compress"
	"repro/internal/depgraph"
	"repro/internal/dsl"
	"repro/internal/interp"
	"repro/internal/jit"
	"repro/internal/morsel"
	"repro/internal/nir"
	"repro/internal/primitive"
	"repro/internal/tpch"
	"repro/internal/vector"
)

// The traced run's per-layer numbers: counters harvested from the traced
// window's observations, then probes that time each layer's public
// functions on inputs taken from the workload's own tables and programs.
// Every probe runs under a probe/<layer>.<fn> span.

const probeIters = 15 // executions behind every probed median

func (r *runner) probe(name string, fn func()) {
	sp := r.cfg.tr.begin(0, 0, 0, "probe/"+name)
	fn()
	r.cfg.tr.end(sp)
}

// timeMedian runs fn n times and returns the median duration.
func timeMedian(n int, fn func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// layerMetrics fills res.metrics with every per-layer metric: measured
// where this workload exercises the layer, 0 elsewhere.
func (r *runner) layerMetrics(ctx context.Context, res *result, base []*opObs) {
	m := res.metrics
	for _, spec := range perLayer {
		m[spec.Name] = 0
	}
	for name, xs := range r.cfg.layers.samples { // set-up timers: median of the rounds
		m[name] = median(xs)
	}
	r.windowCounters(m, base)
	r.probe("primitive.kernels", func() { probePrimitives(m) })
	r.probe("morsel.Run", func() { probeMorselDispatch(m) })
	switch w := r.w.(type) {
	case *relWorkload:
		r.probeFrontend(m, relLambdaPrograms())
		r.probeRelational(ctx, m, w)
		if w.stored != nil {
			r.probeStorage(m, w)
		}
	case *vmWorkload:
		var srcs []progSrc
		for _, p := range w.hot {
			srcs = append(srcs, progSrc{p.src, p.kinds})
		}
		r.probeFrontend(m, srcs)
		r.probeVM(ctx, m, w)
	case *serveWorkload:
		srcs := relLambdaPrograms()
		for _, p := range w.progs {
			srcs = append(srcs, progSrc{p.src, p.kinds})
		}
		r.probeFrontend(m, srcs)
		r.probeServer(ctx, m, w)
	}
}

// windowCounters derives the metrics that need no extra work: they come
// from the traced window's observations and the engine's counters.
func (r *runner) windowCounters(m map[string]float64, base []*opObs) {
	ops := r.window
	for _, class := range classes(ops) {
		m["advm."+class+"_p50_ms"] = median(latencies(ops, class))
	}
	// Informational: the traced window holds 300 to 1200 ops, so p99 rests on
	// its 3 to 12 slowest and does not repeat within a tenth.
	m["advm.p99_ms"] = quantile(latencies(ops, ""), 0.99)
	m["qtrace.tracing_tax_ratio"] = ratio(median(latencies(ops, "")), median(latencies(base, "")))

	var planOpen, firstRow, scanned, skipped, steals, bytesOut []float64
	var fused, relational, rowsScanned, rowsOut float64
	self := map[string][]float64{}
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		if o.status != 0 { // a served request: the cursor stays behind the server
			bytesOut = append(bytesOut, float64(o.bytesOut))
			continue
		}
		planOpen = append(planOpen, float64(o.opened.Sub(o.start))/float64(time.Microsecond))
		if !o.relational {
			continue
		}
		relational++
		first := o.firstRow
		if first.IsZero() {
			first = o.end
		}
		firstRow = append(firstRow, ms(first.Sub(o.start)))
		scanned = append(scanned, float64(o.segScanned))
		skipped = append(skipped, float64(o.segSkipped))
		steals = append(steals, float64(o.steals))
		if o.fused {
			fused++
		}
		rowsScanned += float64(o.rowsScanned)
		rowsOut += float64(o.rowsOut)
		for _, op := range []string{"scan", "filter", "compute", "aggregate", "join-build", "join-probe", "topk"} {
			self[op] = append(self[op], float64(o.self[op])/1e6)
		}
	}
	m["advm.plan_open_us"] = median(planOpen)
	m["advm.first_row_ms"] = median(firstRow)
	m["colstore.segments_scanned_per_op"] = mean(scanned)
	m["colstore.segments_skipped_per_op"] = mean(skipped)
	m["colstore.skip_ratio"] = ratio(mean(skipped), mean(skipped)+mean(scanned))
	m["morsel.steals_per_op"] = mean(steals)
	m["fused.hot_share"] = ratio(fused, relational)
	m["engine.rows_examined_per_row_out"] = ratio(rowsScanned, rowsOut)
	for op, name := range map[string]string{"scan": "scan", "filter": "filter", "compute": "compute", "aggregate": "agg",
		"join-build": "join_build", "join-probe": "probe", "topk": "topk"} {
		m["engine."+name+"_self_ms"] = median(self[op])
	}
	m["server.bytes_out_per_op"] = mean(bytesOut)

	if n := float64(len(ops)); n > 0 {
		m["advm.alloc_kb_per_op"] = r.allocBytes / 1024 / n
	}
	m["advm.gc_pause_ms"] = r.gcPause * 1e3

	es := r.w.engine().Stats()
	m["fused.compiles"] = float64(es.FusedCompiles)
	m["fused.cache_hits"] = float64(es.FusedCacheHits)
	m["fused.deopts"] = float64(es.FusedDeopts)
	m["advm.prepare_hit_ratio"] = ratio(float64(es.CacheHits), float64(es.Prepares))
	m["advm.prepare_evictions"] = float64(es.CacheEvictions)
}

// ---------------------------------------------------------------------------
// primitive, morsel

func probePrimitives(m map[string]float64) {
	const chunk, chunks = 1024, 1024 // 1 Mi elements in 1024-element chunks
	a, b, dst := vector.New(vector.I64, chunk, chunk), vector.New(vector.I64, chunk, chunk), vector.New(vector.I64, chunk, chunk)
	fa := vector.New(vector.F64, chunk, chunk)
	idx := vector.New(vector.I64, chunk, chunk)
	for i := 0; i < chunk; i++ {
		a.I64()[i], b.I64()[i] = int64(i%1000-500), int64(i%7)
		fa.F64()[i] = float64(i) * 0.5
		idx.I64()[i] = int64((i * 7) % chunk)
	}
	perElem := func(fn func()) float64 {
		d := timeMedian(5, func() {
			for c := 0; c < chunks; c++ {
				fn()
			}
		})
		return float64(d) / (chunk * chunks)
	}
	if k, ok := primitive.MapBinVV(vector.I64, nir.AAdd); ok {
		m["primitive.map_ns_per_elem"] = perElem(func() { k(dst, a, b, nil, 0, chunk) })
	}
	if k, ok := primitive.SelectCmp(vector.I64, nir.CGt); ok {
		m["primitive.select_ns_per_elem"] = perElem(func() { k(a, vector.I64Value(0), nil, 0, chunk) })
	}
	if k, ok := primitive.Fold(vector.F64, nir.AAdd); ok {
		m["primitive.fold_ns_per_elem"] = perElem(func() { k(vector.F64Value(0), fa, nil, 0, chunk) })
	}
	m["primitive.gather_ns_per_elem"] = perElem(func() { primitive.Gather(dst, a, idx, nil) })
}

func probeMorselDispatch(m map[string]float64) {
	const morsels = 4096
	opt := morsel.Options{Workers: parallelism(), MorselLen: 1}
	d := timeMedian(5, func() { morsel.Run(morsels, opt, func(worker, lo, hi int) {}) })
	m["morsel.dispatch_ns_per_morsel"] = float64(d) / morsels
}

// ---------------------------------------------------------------------------
// dsl, nir: the front end over the workload's programs and lambdas

type progSrc struct {
	src   string
	kinds map[string]advm.Kind
}

// lambdaProgram lowers a plan lambda the way the relational layer does: one
// read per input column, the lambda as a map, one write.
func lambdaProgram(lambda string, out advm.Kind, cols ...advm.Kind) progSrc {
	var sb strings.Builder
	kinds := map[string]advm.Kind{"out": out}
	args := ""
	for i, k := range cols {
		fmt.Fprintf(&sb, "let c%d = read 0 col%d\n", i, i)
		kinds[fmt.Sprintf("col%d", i)] = k
		args += fmt.Sprintf(" c%d", i)
	}
	fmt.Fprintf(&sb, "let r = map %s%s\nwrite out 0 r\n", lambda, args)
	return progSrc{sb.String(), kinds}
}

// relLambdaPrograms are the lambdas of the relational plans (q6, q1, q3).
func relLambdaPrograms() []progSrc {
	return []progSrc{
		lambdaProgram(`(\d -> (d >= 730) && (d < 1095))`, advm.Bool, advm.I64),
		lambdaProgram(`(\x -> (x >= 0.05) && (x <= 0.07))`, advm.Bool, advm.F64),
		lambdaProgram(`(\q -> q < 24)`, advm.Bool, advm.I64),
		lambdaProgram(`(\p d -> p * d)`, advm.F64, advm.F64, advm.F64),
		lambdaProgram(`(\p d -> p * (1.0 - d))`, advm.F64, advm.F64, advm.F64),
		lambdaProgram(`(\dp t -> dp * (1.0 + t))`, advm.F64, advm.F64, advm.F64),
	}
}

func (r *runner) probeFrontend(m map[string]float64, srcs []progSrc) {
	var parse, norm, fp, instrs []float64
	r.probe("dsl.Parse+nir.Normalize", func() {
		for _, s := range srcs {
			var prog *dsl.Program
			var np *nir.Program
			var err error
			parse = append(parse, float64(timeMedian(probeIters, func() { prog, err = dsl.Parse(s.src) }))/1e3)
			if err != nil {
				continue
			}
			norm = append(norm, float64(timeMedian(probeIters, func() { np, err = nir.Normalize(prog, s.kinds) }))/1e3)
			if err != nil {
				continue
			}
			fp = append(fp, float64(timeMedian(probeIters, func() { _ = np.Fingerprint() }))/1e3)
			instrs = append(instrs, float64(np.NumInstrs))
		}
	})
	m["dsl.parse_us"] = median(parse)
	m["nir.normalize_us"] = median(norm)
	m["nir.fingerprint_us"] = median(fp)
	m["nir.instrs_per_prog"] = mean(instrs)
}

// ---------------------------------------------------------------------------
// fused, morsel, device: the relational layer under flipped public options

// classP50 runs the entries' plans on a session of a throwaway engine with
// the given options and returns the median latency in ms and the session's
// final stats.
func (r *runner) classP50(ctx context.Context, w *relWorkload, entries []*entry, warm int, opts ...advm.Option) (float64, advm.Stats) {
	eng, err := advm.NewEngine(append(r.cfg.engineOptions(), opts...)...)
	if err != nil {
		return 0, advm.Stats{}
	}
	defer eng.Close()
	sess, err := eng.Session()
	if err != nil {
		return 0, advm.Stats{}
	}
	var lat []float64
	for i := 0; i < warm+probeIters; i++ {
		e := entries[i%len(entries)]
		o := &opObs{class: e.class}
		t0 := time.Now()
		// In-RAM tables: the probe compares execution strategies, not storage.
		rows, err := queryRows(ctx, sess, &opCtx{obs: o}, func() *advm.Plan { return relPlan(e, w.li, w.ord, w.cust) })
		if err != nil || e.check(rows) != nil {
			return 0, advm.Stats{}
		}
		if i >= warm {
			lat = append(lat, ms(o.end.Sub(t0)))
		}
	}
	return median(lat), sess.Stats()
}

func entriesOf(p *pool, class string, n int) []*entry {
	var out []*entry
	for _, e := range p.cold {
		if e.class == class && len(out) < n {
			out = append(out, e)
		}
	}
	return out
}

func (r *runner) probeRelational(ctx context.Context, m map[string]float64, w *relWorkload) {
	light, heavy := "q6", "q1"
	if w.kind == "join_agg" {
		light, heavy = "q3", "q3"
	}
	// One shape each, repeated: the flipped options are compared on equal,
	// fully warmed work.
	le, he := entriesOf(r.pool, light, 1), entriesOf(r.pool, heavy, 1)
	r.probe("fused.speedup", func() {
		interpreted, _ := r.classP50(ctx, w, le, 2, advm.WithTieredExecution(false))
		hot, _ := r.classP50(ctx, w, le, 2, advm.WithTierThresholds(1, 1))
		m["fused.speedup"] = ratio(interpreted, hot)
	})
	r.probe("morsel.par_speedup", func() {
		serial, _ := r.classP50(ctx, w, he, 10, advm.WithParallelism(1))
		par, _ := r.classP50(ctx, w, he, 10)
		m["morsel.par_speedup"] = ratio(serial, par)
	})
	r.probe("device.auto", func() {
		cpu, _ := r.classP50(ctx, w, le, 10)
		auto, st := r.classP50(ctx, w, le, 10, advm.WithDevicePolicy(advm.DeviceAuto))
		place := st.MorselPlacements
		m["device.gpu_morsel_share"] = ratio(float64(place["gpu"]), float64(place["gpu"]+place["cpu"]))
		m["device.auto_vs_cpu_ratio"] = ratio(auto, cpu)
	})
}

// ---------------------------------------------------------------------------
// colstore, compress

func (r *runner) probeStorage(m map[string]float64, w *relWorkload) {
	st := w.stored
	sch := st.Schema()
	r.probe("colstore.ColumnBytes", func() {
		var stored, raw float64
		for i, name := range sch.Names {
			stored += float64(st.ColumnBytes(name))
			width := 8.0
			if sch.Kinds[i] == advm.Str {
				width = 1 // the generator's flag and status strings are one byte
			}
			raw += width * float64(st.Rows())
		}
		m["colstore.stored_bytes_per_raw_byte"] = ratio(stored, raw)
	})
	r.probe("colstore.Table.Scan", func() {
		names := []string{"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate"}
		cols := make([]int, len(names))
		dst := make([]*vector.Vector, len(names))
		bytesPerRow := 0.0
		for i, n := range names {
			cols[i] = sch.ColumnIndex(n)
			dst[i] = vector.New(sch.Kinds[cols[i]], vector.DefaultChunkLen, vector.DefaultChunkLen)
			bytesPerRow += 8
			if sch.Kinds[cols[i]] == advm.Str {
				bytesPerRow -= 7
			}
		}
		d := timeMedian(3, func() {
			for lo := 0; lo < st.Rows(); lo += vector.DefaultChunkLen {
				st.Scan(lo, min(vector.DefaultChunkLen, st.Rows()-lo), cols, dst)
			}
		})
		m["colstore.scan_mb_per_s"] = bytesPerRow * float64(st.Rows()) / 1e6 / d.Seconds()
	})
	r.probe("compress.Compress+Decompress", func() {
		// One block-sized stretch of three lineitem columns, each under the
		// scheme the analyzer favours for it.
		n := min(w.li.Rows(), 64<<10)
		qty := w.li.Col(tpch.ColQuantity).I64()[:n]
		ship := w.li.Col(tpch.ColShipdate).I64()[:n]
		okey := w.li.Col(tpch.ColOrderkey).I64()[:n]
		mb := float64(n) * 8 / 1e6
		dst := make([]int64, n)
		var encode []float64
		for _, c := range []struct {
			scheme compress.Scheme
			data   []int64
			metric string
		}{
			{compress.Dict, qty, "compress.decode_mb_per_s.dict"},
			{compress.RLE, okey, "compress.decode_mb_per_s.rle"},
			{compress.FOR, ship, "compress.decode_mb_per_s.for"},
		} {
			var blk *compress.Block
			var err error
			enc := timeMedian(5, func() { blk, err = compress.Compress(c.data, c.scheme) })
			if err != nil {
				continue
			}
			encode = append(encode, mb/enc.Seconds())
			dec := timeMedian(5, func() { blk.Decompress(dst) })
			m[c.metric] = mb / dec.Seconds()
		}
		m["compress.encode_mb_per_s"] = median(encode)
	})
}

// ---------------------------------------------------------------------------
// depgraph, jit, vm, interp: the paper's loop, layer by layer

func (r *runner) probeVM(ctx context.Context, m map[string]float64, w *vmWorkload) {
	var partition, frags, compile []float64
	r.probe("depgraph.Partition+jit.Compile", func() {
		for _, p := range w.hot {
			prog, err := dsl.Parse(p.src)
			if err != nil {
				continue
			}
			np, err := nir.Normalize(prog, p.kinds)
			if err != nil {
				continue
			}
			it := interp.New(np)
			env, err := interp.NewEnv(np, p.bind)
			if err != nil {
				continue
			}
			p.reset()
			if err := it.Run(env); err != nil { // fills the profile the partitioner reads
				continue
			}
			nfrag := 0
			for _, seg := range it.Segments {
				var g *depgraph.Graph
				var fs []*depgraph.Fragment
				partition = append(partition, float64(timeMedian(probeIters, func() {
					g = depgraph.Build(seg.Instrs, it.Prof)
					fs = depgraph.Partition(g, depgraph.DefaultConstraints())
				}))/1e3)
				nfrag += len(fs)
				for _, f := range fs {
					t0 := time.Now()
					if _, err := jit.Compile(np, g, f, jit.Options{}); err == nil { // default latency model
						compile = append(compile, ms(time.Since(t0)))
					}
				}
			}
			frags = append(frags, float64(nfrag))
		}
	})
	m["depgraph.partition_us"] = median(partition)
	m["depgraph.fragments_per_prog"] = mean(frags)
	m["jit.compile_ms"] = median(compile)

	// A fresh engine per mode: first run, runs until the optimizer has
	// injected a trace, and the steady state per element — against the same
	// programs under WithJIT(false).
	elems := func(p *program) float64 { return float64(p.bind["d"].Len()) }
	steady := func(jitOn bool) (first, toInject, nsPerElem []float64) {
		eng, err := advm.NewEngine(append(r.cfg.engineOptions(), advm.WithJIT(jitOn))...)
		if err != nil {
			return
		}
		defer eng.Close()
		for _, p := range w.hot {
			prep, err := eng.Prepare(p.src, p.kinds)
			if err != nil {
				continue
			}
			run := func() time.Duration {
				p.reset()
				t0 := time.Now()
				if err := prep.Run(ctx, p.bind); err != nil {
					return 0
				}
				return time.Since(t0)
			}
			first = append(first, ms(run()))
			n := 1
			for ; jitOn && n < 200 && prep.Stats().InjectedTraces == 0; n++ {
				run()
			}
			toInject = append(toInject, float64(n))
			nsPerElem = append(nsPerElem, float64(timeMedian(probeIters, func() { run() }))/elems(p))
		}
		return
	}
	var jitNs, interpNs []float64
	r.probe("vm.Prepared.Run", func() {
		var first, toInject []float64
		first, toInject, jitNs = steady(true)
		m["vm.first_run_ms"] = median(first)
		m["vm.runs_to_inject"] = median(toInject)
		m["vm.steady_ns_per_elem"] = median(jitNs)
	})
	r.probe("interp.Prepared.Run", func() {
		_, _, interpNs = steady(false)
		m["interp.ns_per_elem"] = median(interpNs)
	})
	m["jit.speedup"] = ratio(median(interpNs), median(jitNs))

	// Traces of the measured engine's hot programs, at the end of the run.
	for _, p := range w.hot {
		prep, err := w.eng.Prepare(p.src, p.kinds)
		if err != nil {
			continue
		}
		st := prep.Stats()
		m["vm.injected_traces"] += float64(st.InjectedTraces)
		m["vm.reverted_traces"] += float64(st.RevertedTraces)
		m["vm.guard_failures"] += float64(st.GuardFailures)
	}
}

// ---------------------------------------------------------------------------
// server

func (r *runner) probeServer(ctx context.Context, m map[string]float64, w *serveWorkload) {
	d := 5 * time.Second
	if r.cfg.smoke {
		d = 300 * time.Millisecond
	}
	// Independent users: the mix offered open-loop at serveRate. Latency runs
	// from the due time; a generator more than 5 ms late would be measuring
	// itself.
	var open []*opObs
	r.probe("server.open_loop", func() { open = w.openLoop(ctx, r, d) })
	var late, connWait []float64
	for _, o := range open {
		late = append(late, ms(o.arr.late()))
		connWait = append(connWait, ms(o.arr.connWait()))
	}
	m["server.open_p50_ms"] = median(latencies(open, ""))
	m["server.open_p95_ms"] = quantile(latencies(open, ""), 0.95)
	m["server.gen_late_p95_ms"] = quantile(late, 0.95)
	m["server.conn_wait_p95_ms"] = quantile(connWait, 0.95)
	// What the window's and the probe's requests met: admission waits from
	// /metrics, 429s and 504s from the statuses the generator saw.
	var rejected, timeouts float64
	served := append(append([]*opObs(nil), r.window...), open...)
	for _, o := range served {
		switch o.status {
		case 429:
			rejected++
		case 504:
			timeouts++
		}
	}
	if n := float64(len(served)); n > 0 {
		m["server.rejected_ratio"], m["server.timeout_ratio"] = rejected/n, timeouts/n
	}
	r.probe("server.metrics", func() {
		if prom, err := w.scrapeMetrics(ctx); err == nil {
			m["server.admission_wait_p95_ms"] = histQuantile(prom, "advm_admission_wait_seconds", 0.95) * 1e3
		}
	})
	r.probe("server.overhead", func() {
		// The hot q6 shapes over the same table through an embedded session
		// of the served engine: same plans, same tier state, no HTTP.
		sess, err := w.eng.Session()
		if err != nil {
			return
		}
		shapes := entriesOf(r.pool, "q6", hotSetSize)
		var lat []float64
		for i := 0; i < 6*len(shapes); i++ {
			p := shapes[i%len(shapes)].params.(tpch.Q6Params)
			o := &opObs{class: "q6"}
			t0 := time.Now()
			if _, err := queryRows(ctx, sess, &opCtx{obs: o}, func() *advm.Plan { return tpch.PlanQ6(w.li, p) }); err != nil {
				return
			}
			lat = append(lat, ms(o.end.Sub(t0)))
		}
		m["server.overhead_ms"] = m["advm.q6_p50_ms"] - median(lat)
	})
	r.probe("server.capacity", func() {
		m["server.capacity_ops_per_s"] = float64(w.closedLoop2(ctx, r, d)) / d.Seconds()
	})
}

// histQuantile reads a quantile off a scraped Prometheus histogram: the
// upper bound of the first bucket whose cumulative count reaches it.
func histQuantile(prom map[string]float64, name string, q float64) float64 {
	total := prom[name+"_count"]
	if total == 0 {
		return 0
	}
	best := math.Inf(1)
	for series, cum := range prom {
		rest, ok := strings.CutPrefix(series, name+`_bucket{le="`)
		if !ok || cum < q*total {
			continue
		}
		var le float64
		if _, err := fmt.Sscanf(strings.TrimSuffix(rest, `"}`), "%g", &le); err == nil && le < best {
			best = le
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}
