package main

// The benchmark's fixed vocabulary. BENCHMARK.json at the repo root lists
// the same names, units, directions and bounds; the package test fails when
// the two drift apart.

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is set on end-to-end metrics only; per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// workloadSpec names a workload and records, in one line, why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"scan_ram", "in-RAM scan-filter-compute-fold (q6 light, q1 heavy): engine, fused, morsel and primitive do the work; colstore, joins and server do none"},
	{"scan_disk", "the same plans through colstore and compress: q6 prunes segments by zone map, q1 decodes every segment, so skipping and decoding are both priced"},
	{"join_agg", "pipeline breakers (q3 light, q18like heavy): join build and probe, high-cardinality aggregation, tree merge, top-k; operator state sets the memory peak"},
	{"vm_programs", "the paper's loop with no relational layer: 70% hot DSL programs in steady-state traces, 30% never-seen programs that cannot win back compile latency"},
	{"serve_mix", "advm-serve on loopback, one client on a keep-alive connection: HTTP, JSON and NDJSON, admission, hot and never-repeated q6 shapes, prepared exec, heavy q1, q3 and ad-hoc pipelines"},
}

var workloadNames = func() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}()

// contract is the content of BENCHMARK.json at the repo root.
type contract struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func benchmarkContract() contract {
	return contract{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// endToEnd are the metrics a user of advm.Engine or advm-serve feels. Bound
// is the share of the parent's median by which a later change may worsen the
// metric. Failed ops are not in this list — a ratio that is 0 on a healthy
// run cannot carry a relative bound — they are the `failed` / `attempted`
// counts of every result line, and any failed op marks the run incorrect.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"cold_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are measured from outside, by timing calls into each layer's
// public functions and reading the counters the public API exposes. The
// prefix is the module name. README.md says how each is obtained and which
// end-to-end metric, on which workload, it should move.
var perLayer = []metricSpec{
	{"tpch.gen_s", "s", "lower", 0},
	{"tpch.rows", "count", "higher", 0},

	{"colstore.write_s", "s", "lower", 0},
	{"colstore.open_ms", "ms", "lower", 0},
	{"colstore.stored_bytes_per_raw_byte", "ratio", "lower", 0},
	{"colstore.segments_scanned_per_op", "count", "lower", 0},
	{"colstore.segments_skipped_per_op", "count", "higher", 0},
	{"colstore.skip_ratio", "ratio", "higher", 0},
	{"colstore.scan_mb_per_s", "MB/s", "higher", 0},

	{"compress.encode_mb_per_s", "MB/s", "higher", 0},
	{"compress.decode_mb_per_s.dict", "MB/s", "higher", 0},
	{"compress.decode_mb_per_s.rle", "MB/s", "higher", 0},
	{"compress.decode_mb_per_s.for", "MB/s", "higher", 0},

	{"dsl.parse_us", "us", "lower", 0},
	{"nir.normalize_us", "us", "lower", 0},
	{"nir.fingerprint_us", "us", "lower", 0},
	{"nir.instrs_per_prog", "count", "lower", 0},
	{"depgraph.partition_us", "us", "lower", 0},
	{"depgraph.fragments_per_prog", "count", "lower", 0},
	{"jit.compile_ms", "ms", "lower", 0},
	{"jit.speedup", "ratio", "higher", 0},

	{"vm.first_run_ms", "ms", "lower", 0},
	{"vm.runs_to_inject", "count", "lower", 0},
	{"vm.steady_ns_per_elem", "ns", "lower", 0},
	{"vm.injected_traces", "count", "higher", 0},
	{"vm.reverted_traces", "count", "lower", 0},
	{"vm.guard_failures", "count", "lower", 0},
	{"interp.ns_per_elem", "ns", "lower", 0},

	{"primitive.map_ns_per_elem", "ns", "lower", 0},
	{"primitive.select_ns_per_elem", "ns", "lower", 0},
	{"primitive.fold_ns_per_elem", "ns", "lower", 0},
	{"primitive.gather_ns_per_elem", "ns", "lower", 0},

	{"engine.scan_self_ms", "ms", "lower", 0},
	{"engine.filter_self_ms", "ms", "lower", 0},
	{"engine.compute_self_ms", "ms", "lower", 0},
	{"engine.agg_self_ms", "ms", "lower", 0},
	{"engine.join_build_self_ms", "ms", "lower", 0},
	{"engine.probe_self_ms", "ms", "lower", 0},
	{"engine.topk_self_ms", "ms", "lower", 0},
	{"engine.rows_examined_per_row_out", "ratio", "lower", 0},

	{"fused.hot_share", "ratio", "higher", 0},
	{"fused.compiles", "count", "lower", 0},
	{"fused.cache_hits", "count", "higher", 0},
	{"fused.deopts", "count", "lower", 0},
	{"fused.speedup", "ratio", "higher", 0},

	{"morsel.steals_per_op", "count", "lower", 0},
	{"morsel.par_speedup", "ratio", "higher", 0},
	{"morsel.dispatch_ns_per_morsel", "ns", "lower", 0},

	{"device.gpu_morsel_share", "ratio", "higher", 0},
	{"device.auto_vs_cpu_ratio", "ratio", "lower", 0},

	{"advm.q6_p50_ms", "ms", "lower", 0},
	{"advm.q1_p50_ms", "ms", "lower", 0},
	{"advm.q3_p50_ms", "ms", "lower", 0},
	{"advm.q18like_p50_ms", "ms", "lower", 0},
	{"advm.prog_hot_p50_ms", "ms", "lower", 0},
	{"advm.prog_cold_p50_ms", "ms", "lower", 0},
	{"advm.exec_p50_ms", "ms", "lower", 0},
	{"advm.adhoc_p50_ms", "ms", "lower", 0},
	{"advm.p99_ms", "ms", "lower", 0},
	{"advm.plan_open_us", "us", "lower", 0},
	{"advm.first_row_ms", "ms", "lower", 0},
	{"advm.alloc_kb_per_op", "KiB", "lower", 0},
	{"advm.gc_pause_ms", "ms", "lower", 0},
	{"advm.prepare_hit_ratio", "ratio", "higher", 0},
	{"advm.prepare_evictions", "count", "lower", 0},

	{"server.overhead_ms", "ms", "lower", 0},
	{"server.admission_wait_p95_ms", "ms", "lower", 0},
	{"server.rejected_ratio", "ratio", "lower", 0},
	{"server.timeout_ratio", "ratio", "lower", 0},
	{"server.open_p50_ms", "ms", "lower", 0},
	{"server.open_p95_ms", "ms", "lower", 0},
	{"server.gen_late_p95_ms", "ms", "lower", 0},
	{"server.conn_wait_p95_ms", "ms", "lower", 0},
	{"server.capacity_ops_per_s", "1/s", "higher", 0},
	{"server.bytes_out_per_op", "B", "lower", 0},

	{"qtrace.tracing_tax_ratio", "ratio", "lower", 0},
}

func boundOf(metric string) float64 {
	for _, m := range endToEnd {
		if m.Name == metric {
			return m.Bound
		}
	}
	return 0
}
