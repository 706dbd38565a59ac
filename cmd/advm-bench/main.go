// Command advm-bench regenerates the experiment tables and series from
// DESIGN.md's per-experiment index in human-readable form. Each experiment
// id maps to a reproduction target (Table I, Figures 1–3, or an imported
// quantitative claim E1–E14); `go test -bench` provides the statistically
// rigorous numbers, while this tool prints the qualitative artifacts
// (catalogues, transition logs, partitions, decision series).
//
//	advm-bench -exp T1    # skeleton catalogue
//	advm-bench -exp F1    # Figure-1 state machine transition log
//	advm-bench -exp F2    # Figure-2 program: source, IR, outputs
//	advm-bench -exp F3    # Figure-3 dependency-graph partition (Graphviz)
//	advm-bench -exp E1    # TPC-H Q1 strategy table
//	advm-bench -exp E3    # selectivity specialization series
//	advm-bench -exp E5    # compressed execution with scheme drift
//	advm-bench -exp E6    # CPU/GPU placement series (modeled costs)
//	advm-bench -exp E17   # advm-serve throughput, 1 vs 8 concurrent clients
//	advm-bench -exp E18   # disk-backed colstore scans vs in-RAM, zone-map skipping
//	advm-bench -exp E22   # first-execution latency: JIT off / template miss / template hit, cold Q6
//	advm-bench -exp all   # everything
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/advm"
	"repro/internal/compress"
	"repro/internal/depgraph"
	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/interp"
	"repro/internal/jit"
	"repro/internal/nir"
	"repro/internal/server"
	"repro/internal/tpch"
	"repro/internal/vector"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (T1,F1,F2,F3,E1,E3,E5,E6,E15,E16,E17,E18,E19,E20,E21,E22) or all")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor for E1/E15/E20")
	benchjson := flag.String("benchjson", "", "directory to write BENCH_q1/q6/q3/device/server/colstore/fused/multicore/trace/jitcache.json perf records into (runs E15–E22 only)")
	data := flag.String("data", os.Getenv("TPCH_DATA_DIR"),
		"directory of pre-generated TPC-H tables (tpch-gen -binary); generated on the fly when empty or missing")
	traceOut := flag.String("trace-out", "",
		"write a Chrome trace-event JSON of one traced -trace-query run to this file and exit (chrome://tracing, Perfetto)")
	traceQuery := flag.String("trace-query", "q3", "named query for -trace-out (q1, q6, q3)")
	flag.Parse()

	if *traceOut != "" {
		if err := writeTraceOut(*traceQuery, *sf, *data, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "advm-bench: -trace-out:", err)
			os.Exit(1)
		}
		return
	}

	if *benchjson != "" {
		expE15(*sf, *data, *benchjson)
		expE16(*sf, *data, *benchjson)
		expE17(*sf, *data, *benchjson)
		expE18(*data, *benchjson)
		expE19(*data, *benchjson)
		expE20(*sf, *data, *benchjson)
		expE21(*data, *benchjson)
		expE22(*data, *benchjson)
		return
	}

	all := *exp == "all"
	ran := false
	if all || *exp == "T1" {
		expT1()
		ran = true
	}
	if all || *exp == "F1" || *exp == "F2" {
		expF1F2()
		ran = true
	}
	if all || *exp == "F3" {
		expF3()
		ran = true
	}
	if all || *exp == "E1" {
		expE1(*sf)
		ran = true
	}
	if all || *exp == "E3" {
		expE3()
		ran = true
	}
	if all || *exp == "E5" {
		expE5()
		ran = true
	}
	if all || *exp == "E6" {
		expE6()
		ran = true
	}
	if all || *exp == "E15" {
		expE15(*sf, *data, "")
		ran = true
	}
	if all || *exp == "E16" {
		expE16(*sf, *data, "")
		ran = true
	}
	if all || *exp == "E17" {
		expE17(*sf, *data, "")
		ran = true
	}
	if all || *exp == "E18" {
		expE18(*data, "")
		ran = true
	}
	if all || *exp == "E19" {
		expE19(*data, "")
		ran = true
	}
	if all || *exp == "E20" {
		expE20(*sf, *data, "")
		ran = true
	}
	if all || *exp == "E21" {
		expE21(*data, "")
		ran = true
	}
	if all || *exp == "E22" {
		expE22(*data, "")
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "advm-bench: unknown experiment %q (run `go test -bench ExpXX .` for the others)\n", *exp)
		os.Exit(2)
	}
}

func header(s string) {
	fmt.Printf("\n=== %s ===\n\n", s)
}

// expT1 prints the implemented skeleton catalogue (Table I).
func expT1() {
	header("T1 — Table I: data-parallel skeletons")
	rows := [][2]string{
		{"map", "element-wise application of f on ~v (map keyword; lambdas or named fns)"},
		{"filter", "element-wise selection with predicate p; computes a selection vector"},
		{"fold", "reduce ~v with initial value i and reduction function r"},
		{"read", "consecutive read from position i in ~d (dynamic count)"},
		{"write", "consecutive write of ~v to location i of ~d"},
		{"gather", "read from locations ~i in ~d"},
		{"scatter", "write ~v to locations ~i of ~d with conflict fn (last/first/sum/min/max)"},
		{"gen", "fill array with f(0..n-1)"},
		{"condense", "eliminate the selection vector from ~v"},
		{"merge", "abstract merge: join / union / diff / intersect over sorted flows"},
	}
	for _, r := range rows {
		fmt.Printf("  %-10s %s\n", r[0], r[1])
	}
	fmt.Printf("\npre-compiled vectorized kernels backing them: %d\n", advm.KernelCount())
}

// expF1F2 runs Figure 2 and prints the Figure-1 transition log.
func expF1F2() {
	header("F2 — Figure 2 program")
	fmt.Print(dsl.Figure2Source)

	sess := advm.MustCompile(dsl.Figure2Source, map[string]advm.Kind{
		"some_data": advm.I64, "v": advm.I64, "w": advm.I64,
	},
		advm.WithSyncOptimizer(true),
		advm.WithHotThresholds(2, 200*time.Microsecond),
	)

	data := make([]int64, 4096)
	for i := range data {
		data[i] = int64(i%7 - 3)
	}
	for r := 0; r < 3; r++ {
		v := advm.NewVector(advm.I64, 0, 4096)
		w := advm.NewVector(advm.I64, 0, 4096)
		if err := sess.Run(context.Background(), map[string]*advm.Vector{
			"some_data": advm.FromI64(data), "v": v, "w": w,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if r == 2 {
			fmt.Printf("\noutputs after run %d: v=%s w=%s\n", r+1, v, w)
		}
	}

	header("F1 — Figure 1 state machine transitions")
	for _, tr := range sess.Stats().Transitions {
		fmt.Printf("  %v\n", tr)
	}
	fmt.Println("\nfinal plan:")
	fmt.Print(sess.PlanReport())
}

// expF3 prints the Figure-3 dependency graph and greedy partition.
func expF3() {
	header("F3 — Figure 3: dependency graph, greedily partitioned")
	ast := dsl.MustParse(dsl.Figure2Source)
	np, err := nir.Normalize(ast, map[string]vector.Kind{
		"some_data": vector.I64, "v": vector.I64, "w": vector.I64,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	it := interp.New(np)
	var seg *interp.Segment
	for _, s := range it.Segments {
		if seg == nil || len(s.Instrs) > len(seg.Instrs) {
			seg = s
		}
	}
	g := depgraph.Build(seg.Instrs, nil)
	frags := depgraph.Partition(g, depgraph.DefaultConstraints())
	for i, f := range frags {
		fmt.Printf("function %d: %s\n", i+1, f)
		for _, n := range f.Nodes {
			fmt.Printf("    %s\n", g.Nodes[n].Instr)
		}
	}
	fmt.Println("\nexcluded from functions (interpreted): filters and scalar glue")
	fmt.Println("\nGraphviz:")
	fmt.Print(depgraph.Dot(g, frags))
}

// expE1 prints the Q1 strategy table.
func expE1(sf float64) {
	header(fmt.Sprintf("E1 — TPC-H Q1 strategies (SF %.3f)", sf))
	st := tpch.GenLineitem(sf, 42)
	cl := tpch.Compact(st)
	fmt.Printf("%d lineitem rows\n\n", st.Rows())

	measure := func(label string, f func() error) {
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintln(os.Stderr, label, err)
			os.Exit(1)
		}
		fmt.Printf("  %-44s %12v\n", label, time.Since(start).Round(time.Microsecond))
	}
	measure("tuple-at-a-time compiled (HyPer-style)", func() error {
		tpch.Q1HyPer(st, tpch.Q1Cutoff)
		return nil
	})
	measure("vectorized interpreted (X100-style)", func() error {
		_, err := tpch.Q1Engine(context.Background(), st, tpch.Q1Cutoff, tpch.Q1Options{PreAgg: engine.PreAggOff})
		return err
	})
	measure("vectorized + compact types + pre-agg [12]", func() error {
		tpch.Q1Compact(cl, tpch.Q1Cutoff)
		return nil
	})
	measure("adaptive VM (JIT traces, modeled latency)", func() error {
		_, err := tpch.Q1Engine(context.Background(), st, tpch.Q1Cutoff, tpch.Q1Options{
			JIT: true, JITOpt: jit.Options{CompileLatency: jit.DefaultCompileLatency},
		})
		return err
	})
	fmt.Println("\nexpected shape: compact+preagg ≪ compiled < adaptive < plain vectorized")
}

// expE3 prints the selectivity specialization series.
func expE3() {
	header("E3 — selectivity specialization (full vs selective vs adaptive)")
	n := 1 << 19
	rng := rand.New(rand.NewSource(3))
	st := advm.NewTable(advm.NewSchema("key", advm.I64, "val", advm.I64))
	for i := 0; i < n; i++ {
		st.AppendRow(advm.I64Value(rng.Int63n(1000)), advm.I64Value(rng.Int63n(1000)))
	}
	sess, err := advm.NewSession()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("  %-12s %12s %12s %12s\n", "selectivity", "full", "selective", "adaptive")
	for _, sel := range []int64{10, 100, 300, 500, 700, 900, 990} {
		var times [3]time.Duration
		for i, mode := range []advm.EvalMode{advm.EvalFull, advm.EvalSelective, advm.EvalAdaptive} {
			plan := advm.Scan(st, "key", "val").
				FilterMode(advm.EvalFull, fmt.Sprintf(`(\k -> k < %d)`, sel), "key").
				ComputeMode(mode, "out", `(\v -> (v * 3 + 7) * (v - 1))`, advm.I64, "val")
			start := time.Now()
			rows, err := sess.Query(context.Background(), plan)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if _, err := rows.Count(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			times[i] = time.Since(start)
		}
		fmt.Printf("  %-12.3f %12v %12v %12v\n", float64(sel)/1000,
			times[0].Round(time.Microsecond), times[1].Round(time.Microsecond), times[2].Round(time.Microsecond))
	}
}

// expE5 prints the compressed-execution comparison.
func expE5() {
	header("E5 — compressed execution with per-block scheme drift")
	rng := rand.New(rand.NewSource(5))
	var data []int64
	for blk := 0; blk < 64; blk++ {
		switch blk % 3 {
		case 0:
			v := rng.Int63n(100)
			for i := 0; i < compress.DefaultBlockLen; i++ {
				if i%500 == 0 {
					v = rng.Int63n(100)
				}
				data = append(data, v)
			}
		case 1:
			for i := 0; i < compress.DefaultBlockLen; i++ {
				data = append(data, int64(rng.Intn(5))*1000)
			}
		default:
			for i := 0; i < compress.DefaultBlockLen; i++ {
				data = append(data, 1<<20+rng.Int63n(512))
			}
		}
	}
	col, err := compress.BuildColumn(data, compress.DefaultBlockLen, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("  %d blocks, %d scheme changes, %.1f%% of raw size\n\n",
		len(col.Blocks()), col.SchemeChanges(),
		100*float64(col.CompressedBytes())/float64(8*len(data)))
	buf := make([]int64, compress.DefaultBlockLen)
	start := time.Now()
	var t1 int64
	for _, blk := range col.Blocks() {
		blk.Decompress(buf[:blk.Len()])
		for _, v := range buf[:blk.Len()] {
			if v > 100 {
				t1 += v
			}
		}
	}
	d1 := time.Since(start)
	start = time.Now()
	var t2 int64
	for _, blk := range col.Blocks() {
		t2 += blk.SumGreater(100)
	}
	d2 := time.Since(start)
	sc := compress.NewAdaptiveScanner(nil)
	start = time.Now()
	t3 := sc.SumGreater(col, 100)
	d3 := time.Since(start)
	fmt.Printf("  decompress+interpret   %12v\n", d1)
	fmt.Printf("  compressed execution   %12v\n", d2)
	fmt.Printf("  adaptive (VM-style)    %12v   fallbacks=%d specialized=%d\n", d3, sc.Fallbacks, sc.Specialized)
	if t1 != t2 || t2 != t3 {
		fmt.Fprintln(os.Stderr, "results disagree!")
		os.Exit(1)
	}
}

// benchRecord is one BENCH_*.json perf record: serial vs parallel ns/op for
// a query, so future changes have a trajectory to compare against. CalibNs
// measures a fixed scalar workload on the same host in the same process —
// the denominator benchdiff uses to compare records taken on machines of
// different speeds (or under different load) without drowning in noise.
type benchRecord struct {
	Benchmark     string  `json:"benchmark"`
	ScaleFactor   float64 `json:"scale_factor"`
	Rows          int     `json:"rows"`
	Workers       int     `json:"workers"`
	Iters         int     `json:"iters"`
	SerialNsOp    int64   `json:"serial_ns_op"`
	Parallel4NsOp int64   `json:"parallel4_ns_op"`
	Speedup       float64 `json:"speedup"`
	Identical     bool    `json:"identical"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	CalibNs       int64   `json:"calib_ns"`
}

// calibSink defeats dead-code elimination in calibrate.
var calibSink int64

// calibrate times a fixed single-threaded integer workload (best of 3).
func calibrate() int64 {
	var best time.Duration
	for r := 0; r < 3; r++ {
		start := time.Now()
		var acc int64
		for i := int64(0); i < 1<<26; i++ {
			acc += (i * i) >> 7
		}
		calibSink = acc
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best.Nanoseconds()
}

// benchCollect runs the plan to completion and returns every result value.
func benchCollect(sess *advm.Session, plan *advm.Plan) ([][]advm.Value, error) {
	rows, err := sess.Query(context.Background(), plan)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out [][]advm.Value
	n := len(rows.Columns())
	for rows.Next() {
		row := make([]advm.Value, n)
		dests := make([]any, n)
		for i := range row {
			dests[i] = &row[i]
		}
		if err := rows.Scan(dests...); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, rows.Err()
}

// expE15 measures morsel-parallel query execution: Q1, Q6 and the
// three-table Q3 serial vs WithParallelism(4), verifying byte-identical
// results. With outDir != "" it writes BENCH_q1/q6/q3.json there (the CI
// perf trajectory); a result mismatch is fatal either way. dataDir reuses
// pre-generated tables (tpch-gen -binary) instead of regenerating them.
func expE15(sf float64, dataDir, outDir string) {
	const workers = 4
	// Best-of-7: the records feed a ±25% CI gate, and the smallest query
	// (Q6, single-digit ms) needs the extra repetitions to keep scheduler
	// and GC noise out of the minimum.
	const iters = 7
	header(fmt.Sprintf("E15 — morsel-parallel query execution (SF %.3f, %d workers)", sf, workers))
	st, err := tpch.LoadOrGen(dataDir, "lineitem", sf, 42)
	if err != nil {
		fatalE15(err)
	}
	ord, err := tpch.LoadOrGen(dataDir, "orders", sf, 42)
	if err != nil {
		fatalE15(err)
	}
	cust, err := tpch.LoadOrGen(dataDir, "customer", sf, 42)
	if err != nil {
		fatalE15(err)
	}
	calibNs := calibrate()
	fmt.Printf("%d lineitem rows, GOMAXPROCS=%d, calib=%v\n\n",
		st.Rows(), runtime.GOMAXPROCS(0), time.Duration(calibNs).Round(time.Microsecond))

	eng, err := advm.NewEngine(
		advm.WithParallelism(workers),
		advm.WithJITOptions(advm.JITOptions{CompileLatency: advm.NoCompileLatency}))
	if err != nil {
		fatalE15(err)
	}
	defer eng.Close()
	serial, err := eng.Session(advm.WithParallelism(1))
	if err != nil {
		fatalE15(err)
	}
	parallel, err := eng.Session()
	if err != nil {
		fatalE15(err)
	}

	measure := func(sess *advm.Session, plan func(advm.TableSource) *advm.Plan) (time.Duration, [][]advm.Value) {
		var best time.Duration
		var rows [][]advm.Value
		for i := 0; i < iters; i++ {
			start := time.Now()
			r, err := benchCollect(sess, plan(st))
			d := time.Since(start)
			if err != nil {
				fatalE15(err)
			}
			if best == 0 || d < best {
				best, rows = d, r
			}
		}
		return best, rows
	}

	q6p := tpch.DefaultQ6Params()
	q3p := tpch.DefaultQ3Params()
	for _, q := range []struct {
		name string
		plan func(advm.TableSource) *advm.Plan
	}{
		{"q1", tpch.PlanQ1},
		{"q6", func(st advm.TableSource) *advm.Plan { return tpch.PlanQ6(st, q6p) }},
		{"q3", func(st advm.TableSource) *advm.Plan { return tpch.PlanQ3(st, ord, cust, q3p) }},
	} {
		serialNs, want := measure(serial, q.plan)
		parallelNs, got := measure(parallel, q.plan)
		if !sameResults(want, got) {
			fatalE15(fmt.Errorf("%s: parallel result differs from serial", q.name))
		}
		rec := benchRecord{
			Benchmark: q.name, ScaleFactor: sf, Rows: st.Rows(),
			Workers: workers, Iters: iters,
			SerialNsOp: serialNs.Nanoseconds(), Parallel4NsOp: parallelNs.Nanoseconds(),
			Speedup:    float64(serialNs) / float64(parallelNs),
			Identical:  true,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			CalibNs:    calibNs,
		}
		fmt.Printf("  %-4s serial %12v   parallel(%d) %12v   speedup %.2fx   identical=%v\n",
			q.name, serialNs.Round(time.Microsecond), workers,
			parallelNs.Round(time.Microsecond), rec.Speedup, rec.Identical)
		if outDir != "" {
			data, err := json.MarshalIndent(rec, "", "  ")
			if err != nil {
				fatalE15(err)
			}
			path := filepath.Join(outDir, "BENCH_"+q.name+".json")
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				fatalE15(err)
			}
			fmt.Printf("       wrote %s\n", path)
		}
	}
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Println("\n  note: single-core host — expect no parallel speedup here")
	}
}

func fatalE15(err error) {
	fmt.Fprintln(os.Stderr, "advm-bench: E15:", err)
	os.Exit(1)
}

// deviceRecord is the BENCH_device.json perf record: the same parallel Q6
// measured under the CPU-only policy and under adaptive device placement.
// Wall times should be close (the modeled GPU executes on the host; the
// adaptive leg adds only placement bookkeeping), and the morsel counts
// document where the placer actually sent the work.
type deviceRecord struct {
	Benchmark    string  `json:"benchmark"`
	ScaleFactor  float64 `json:"scale_factor"`
	Rows         int     `json:"rows"`
	Workers      int     `json:"workers"`
	Iters        int     `json:"iters"`
	CPUNsOp      int64   `json:"cpu_ns_op"`
	AdaptiveNsOp int64   `json:"adaptive_ns_op"`
	GPUMorsels   int64   `json:"gpu_morsels"`
	CPUMorsels   int64   `json:"cpu_morsels"`
	Identical    bool    `json:"identical"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CalibNs      int64   `json:"calib_ns"`
}

// expE16 measures heterogeneous morsel placement on TPC-H Q6: parallel
// CPU-only vs the adaptive DeviceAuto policy, verifying byte-identical
// results against serial execution and reporting where the morsels ran.
// With outDir != "" it writes BENCH_device.json there for the CI gate.
func expE16(sf float64, dataDir, outDir string) {
	const workers = 4
	const iters = 7
	header(fmt.Sprintf("E16 — adaptive morsel placement on Q6 (SF %.3f, %d workers)", sf, workers))
	st, err := tpch.LoadOrGen(dataDir, "lineitem", sf, 42)
	if err != nil {
		fatalE16(err)
	}
	calibNs := calibrate()
	q6p := tpch.DefaultQ6Params()
	plan := func(st *advm.Table) *advm.Plan { return tpch.PlanQ6(st, q6p) }

	eng, err := advm.NewEngine(
		advm.WithParallelism(workers),
		advm.WithJITOptions(advm.JITOptions{CompileLatency: advm.NoCompileLatency}))
	if err != nil {
		fatalE16(err)
	}
	defer eng.Close()
	serial, err := eng.Session(advm.WithParallelism(1))
	if err != nil {
		fatalE16(err)
	}
	cpuOnly, err := eng.Session(advm.WithDevicePolicy(advm.DeviceCPU))
	if err != nil {
		fatalE16(err)
	}
	adaptive, err := eng.Session(advm.WithDevicePolicy(advm.DeviceAuto))
	if err != nil {
		fatalE16(err)
	}

	measure := func(sess *advm.Session) (time.Duration, [][]advm.Value) {
		var best time.Duration
		var rows [][]advm.Value
		for i := 0; i < iters; i++ {
			start := time.Now()
			r, err := benchCollect(sess, plan(st))
			d := time.Since(start)
			if err != nil {
				fatalE16(err)
			}
			if best == 0 || d < best {
				best, rows = d, r
			}
		}
		return best, rows
	}

	// One serial run suffices for the reference rows (no timing needed).
	want, err := benchCollect(serial, plan(st))
	if err != nil {
		fatalE16(err)
	}
	cpuNs, gotCPU := measure(cpuOnly)
	// Warm the residency cache and the placer bias before measuring the
	// adaptive leg: the paper's offload story is about repeated queries
	// over the same (resident) table.
	if _, err := benchCollect(adaptive, plan(st)); err != nil {
		fatalE16(err)
	}
	adaptiveNs, gotAdaptive := measure(adaptive)

	identical := sameResults(want, gotCPU) && sameResults(want, gotAdaptive)
	if !identical {
		fatalE16(fmt.Errorf("device-policy results differ from serial"))
	}
	place := adaptive.Stats().MorselPlacements
	rec := deviceRecord{
		Benchmark: "device_q6", ScaleFactor: sf, Rows: st.Rows(),
		Workers: workers, Iters: iters,
		CPUNsOp: cpuNs.Nanoseconds(), AdaptiveNsOp: adaptiveNs.Nanoseconds(),
		GPUMorsels: place["gpu"], CPUMorsels: place["cpu"],
		Identical:  true,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CalibNs:    calibNs,
	}
	fmt.Printf("  q6   cpu-only %12v   adaptive %12v   morsels cpu=%d gpu=%d   identical=%v\n",
		cpuNs.Round(time.Microsecond), adaptiveNs.Round(time.Microsecond),
		rec.CPUMorsels, rec.GPUMorsels, rec.Identical)
	fmt.Printf("       modeled transfer %v\n", adaptive.Stats().MorselTransfer.Round(time.Microsecond))
	if outDir != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatalE16(err)
		}
		path := filepath.Join(outDir, "BENCH_device.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fatalE16(err)
		}
		fmt.Printf("       wrote %s\n", path)
	}
}

// sameResults compares two collected result sets exactly.
func sameResults(a, b [][]advm.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			if !a[i][c].Equal(b[i][c]) {
				return false
			}
		}
	}
	return true
}

func fatalE16(err error) {
	fmt.Fprintln(os.Stderr, "advm-bench: E16:", err)
	os.Exit(1)
}

// expE17 measures advm-serve end to end over loopback HTTP: TPC-H Q6
// through POST /v1/query with 1 client and with 8 concurrent clients
// against one engine, checking that every streamed response is
// byte-identical to the single-client reference. With outDir != "" it
// writes BENCH_server.json (query-record flavor: serial = 1-client ns per
// query, parallel = per-query ns at 8 clients) for the CI gate.
func expE17(sf float64, dataDir, outDir string) {
	const clients = 8
	const itersPerClient = 12
	header(fmt.Sprintf("E17 — advm-serve throughput (SF %.3f, 1 vs %d clients)", sf, clients))
	li, err := tpch.LoadOrGen(dataDir, "lineitem", sf, 42)
	if err != nil {
		fatalE17(err)
	}
	calibNs := calibrate()

	eng, err := advm.NewEngine(
		advm.WithParallelism(4),
		advm.WithJITOptions(advm.JITOptions{CompileLatency: advm.NoCompileLatency}))
	if err != nil {
		fatalE17(err)
	}
	defer eng.Close()
	srv := server.New(eng, server.Config{MaxConcurrent: clients, MaxQueue: 4 * clients})
	srv.RegisterTable("lineitem", li)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const reqBody = `{"query":"q6","opts":{"parallelism":4}}`
	query := func() (string, error) {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(reqBody))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("status %d: %s", resp.StatusCode, b)
		}
		return string(b), nil
	}

	// Warm up (JIT, residency, connection pool), and fix the reference body.
	want, err := query()
	if err != nil {
		fatalE17(err)
	}

	run := func(clients int) (nsPerQuery int64, identical bool) {
		identical = true
		bodies := make([][]string, clients)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < itersPerClient; i++ {
					b, err := query()
					if err != nil {
						fatalE17(err)
					}
					bodies[c] = append(bodies[c], b)
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(start)
		for _, bs := range bodies {
			for _, b := range bs {
				if b != want {
					identical = false
				}
			}
		}
		return wall.Nanoseconds() / int64(clients*itersPerClient), identical
	}

	oneNs, oneSame := run(1)
	eightNs, eightSame := run(clients)
	identical := oneSame && eightSame
	if !identical {
		fatalE17(fmt.Errorf("concurrent responses differ from the single-client reference"))
	}
	rec := benchRecord{
		Benchmark: "server_q6", ScaleFactor: sf, Rows: li.Rows(),
		Workers: clients, Iters: itersPerClient,
		SerialNsOp: oneNs, Parallel4NsOp: eightNs,
		Speedup:    float64(oneNs) / float64(eightNs),
		Identical:  identical,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CalibNs:    calibNs,
	}
	fmt.Printf("  q6   1 client %12v/query   %d clients %12v/query   throughput ×%.2f   identical=%v\n",
		time.Duration(oneNs).Round(time.Microsecond), clients,
		time.Duration(eightNs).Round(time.Microsecond), rec.Speedup, identical)
	fmt.Printf("       engine: %+v\n", eng.Stats())
	if outDir != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatalE17(err)
		}
		path := filepath.Join(outDir, "BENCH_server.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fatalE17(err)
		}
		fmt.Printf("       wrote %s\n", path)
	}
}

func fatalE17(err error) {
	fmt.Fprintln(os.Stderr, "advm-bench: E17:", err)
	os.Exit(1)
}

// colstoreRecord is the BENCH_colstore.json perf record: TPC-H Q1 and Q6
// measured serially over the in-RAM generated table, over the compressed
// colstore directory with zone-map pruning disabled (every segment decoded
// from disk), and with pruning on — documenting what disk-backed execution
// costs and what the zone maps claw back. All six legs are serial, so
// benchdiff gates them all (calibration-normalized).
type colstoreRecord struct {
	Benchmark       string  `json:"benchmark"`
	ScaleFactor     float64 `json:"scale_factor"`
	Rows            int     `json:"rows"`
	Iters           int     `json:"iters"`
	Q1RAMNsOp       int64   `json:"q1_ram_ns_op"`
	Q1ColdNsOp      int64   `json:"q1_cold_ns_op"`
	Q1SkipNsOp      int64   `json:"q1_skip_ns_op"`
	Q6RAMNsOp       int64   `json:"q6_ram_ns_op"`
	Q6ColdNsOp      int64   `json:"q6_cold_ns_op"`
	Q6SkipNsOp      int64   `json:"q6_skip_ns_op"`
	SegmentsScanned int64   `json:"segments_scanned"`
	SegmentsSkipped int64   `json:"segments_skipped"`
	Identical       bool    `json:"identical"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	CalibNs         int64   `json:"calib_ns"`
}

// expE18 measures disk-backed columnar execution: Q1 and Q6 over the in-RAM
// lineitem table vs the same queries streaming from a compressed colstore
// directory, with zone-map segment skipping off ("cold": every segment is
// decoded) and on. The scale factor is pinned at 0.1 so the record tracks a
// fixed workload regardless of -sf. Results must be byte-identical across
// all legs, and the skipping legs must actually prune segments. With
// outDir != "" it writes BENCH_colstore.json there for the CI gate.
func expE18(dataDir, outDir string) {
	const sf = 0.1
	// Best-of-7, matching E15: the records feed the ±25% CI gate and the
	// serial legs need the repetitions to keep scheduler noise out of the
	// minimum.
	const iters = 7
	header(fmt.Sprintf("E18 — disk-backed colstore scans (SF %.3f, serial)", sf))
	root := dataDir
	if root == "" {
		tmp, err := os.MkdirTemp("", "advm-colstore")
		if err != nil {
			fatalE18(err)
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}
	st, err := tpch.LoadOrGen(root, "lineitem", sf, 42)
	if err != nil {
		fatalE18(err)
	}
	dir, err := tpch.LoadOrGenColstore(root, "lineitem", sf, 42)
	if err != nil {
		fatalE18(err)
	}
	calibNs := calibrate()

	eng, err := advm.NewEngine(
		advm.WithJITOptions(advm.JITOptions{CompileLatency: advm.NoCompileLatency}))
	if err != nil {
		fatalE18(err)
	}
	defer eng.Close()
	ram, err := eng.Session(advm.WithParallelism(1))
	if err != nil {
		fatalE18(err)
	}
	cold, err := eng.Session(advm.WithParallelism(1), advm.WithScanPruning(false))
	if err != nil {
		fatalE18(err)
	}
	skip, err := eng.Session(advm.WithParallelism(1))
	if err != nil {
		fatalE18(err)
	}
	stored, err := eng.OpenTable(dir)
	if err != nil {
		fatalE18(err)
	}
	fmt.Printf("%d lineitem rows, colstore %s\n\n", st.Rows(), dir)

	measure := func(sess *advm.Session, plan *advm.Plan) (time.Duration, [][]advm.Value) {
		var best time.Duration
		var rows [][]advm.Value
		for i := 0; i < iters; i++ {
			start := time.Now()
			r, err := benchCollect(sess, plan)
			d := time.Since(start)
			if err != nil {
				fatalE18(err)
			}
			if best == 0 || d < best {
				best, rows = d, r
			}
		}
		return best, rows
	}

	q6p := tpch.DefaultQ6Params()
	rec := colstoreRecord{
		Benchmark: "colstore", ScaleFactor: sf, Rows: st.Rows(), Iters: iters,
		Identical:  true,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CalibNs:    calibNs,
	}
	for _, q := range []struct {
		name            string
		plan            func(advm.TableSource) *advm.Plan
		ramNs, coldNs   *int64
		skipNs          *int64
		wantSkipSkipped bool
	}{
		{"q1", tpch.PlanQ1, &rec.Q1RAMNsOp, &rec.Q1ColdNsOp, &rec.Q1SkipNsOp, false},
		{"q6", func(src advm.TableSource) *advm.Plan { return tpch.PlanQ6(src, q6p) },
			&rec.Q6RAMNsOp, &rec.Q6ColdNsOp, &rec.Q6SkipNsOp, true},
	} {
		ramD, want := measure(ram, q.plan(st))
		coldD, gotCold := measure(cold, q.plan(stored))
		before := sessSkipped(skip)
		skipD, gotSkip := measure(skip, q.plan(stored))
		if !sameResults(want, gotCold) || !sameResults(want, gotSkip) {
			fatalE18(fmt.Errorf("%s: colstore result differs from in-RAM", q.name))
		}
		if q.wantSkipSkipped && sessSkipped(skip) == before {
			fatalE18(fmt.Errorf("%s: zone maps skipped no segments", q.name))
		}
		*q.ramNs, *q.coldNs, *q.skipNs = ramD.Nanoseconds(), coldD.Nanoseconds(), skipD.Nanoseconds()
		fmt.Printf("  %-4s ram %12v   colstore %12v   +skipping %12v\n",
			q.name, ramD.Round(time.Microsecond), coldD.Round(time.Microsecond),
			skipD.Round(time.Microsecond))
	}
	sst := skip.Stats()
	rec.SegmentsScanned, rec.SegmentsSkipped = sst.SegmentsScanned, sst.SegmentsSkipped
	fmt.Printf("       skipping legs: %d segments decoded, %d pruned by zone maps\n",
		rec.SegmentsScanned, rec.SegmentsSkipped)
	if outDir != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatalE18(err)
		}
		path := filepath.Join(outDir, "BENCH_colstore.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fatalE18(err)
		}
		fmt.Printf("       wrote %s\n", path)
	}
}

// sessSkipped reads a session's lifetime zone-map skip counter.
func sessSkipped(sess *advm.Session) int64 {
	return sess.Stats().SegmentsSkipped
}

func fatalE18(err error) {
	fmt.Fprintln(os.Stderr, "advm-bench: E18:", err)
	os.Exit(1)
}

// fusedRecord is the BENCH_fused.json perf record: serial Q1 and Q6 run by
// the vectorized interpreter (tiered execution off) vs the same plans with
// tiering forced hot, so every execution runs its scan→filter→compute
// segment as one specialized fused loop. Q6FusedNsOp doubles as the flavor
// marker benchdiff dispatches on. All legs are serial, so benchdiff gates
// them all (calibration-normalized).
type fusedRecord struct {
	Benchmark    string  `json:"benchmark"`
	ScaleFactor  float64 `json:"scale_factor"`
	Rows         int     `json:"rows"`
	Iters        int     `json:"iters"`
	Q1InterpNsOp int64   `json:"q1_interp_ns_op"`
	Q1FusedNsOp  int64   `json:"q1_fused_ns_op"`
	Q6InterpNsOp int64   `json:"q6_interp_ns_op"`
	Q6FusedNsOp  int64   `json:"q6_fused_ns_op"`
	FusedQueries int64   `json:"fused_queries"`
	FusedDeopts  int64   `json:"fused_deopts"`
	Identical    bool    `json:"identical"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CalibNs      int64   `json:"calib_ns"`
}

// expE19 measures tiered execution: serial Q1 and Q6 interpreted (tiering
// off) vs forced hot (WithTierThresholds(1, 1) — fused loops from the first
// execution). The scale factor is pinned at 0.1 so the record tracks a fixed
// workload regardless of -sf. Results must be byte-identical across the
// tiers, and the hot legs must actually mount fused loops. With outDir != ""
// it writes BENCH_fused.json there for the CI gate.
func expE19(dataDir, outDir string) {
	const sf = 0.1
	// Best-of-7, matching E15/E18: the records feed the ±25% CI gate.
	const iters = 7
	header(fmt.Sprintf("E19 — tiered execution: fused loops vs interpreter (SF %.3f, serial)", sf))
	st, err := tpch.LoadOrGen(dataDir, "lineitem", sf, 42)
	if err != nil {
		fatalE19(err)
	}
	calibNs := calibrate()

	eng, err := advm.NewEngine(
		advm.WithJITOptions(advm.JITOptions{CompileLatency: advm.NoCompileLatency}))
	if err != nil {
		fatalE19(err)
	}
	defer eng.Close()
	interp, err := eng.Session(advm.WithParallelism(1), advm.WithTieredExecution(false))
	if err != nil {
		fatalE19(err)
	}
	hot, err := eng.Session(advm.WithParallelism(1), advm.WithTierThresholds(1, 1))
	if err != nil {
		fatalE19(err)
	}
	fmt.Printf("%d lineitem rows, GOMAXPROCS=%d, calib=%v\n\n",
		st.Rows(), runtime.GOMAXPROCS(0), time.Duration(calibNs).Round(time.Microsecond))

	measure := func(sess *advm.Session, plan func() *advm.Plan) (time.Duration, [][]advm.Value) {
		var best time.Duration
		var rows [][]advm.Value
		for i := 0; i < iters; i++ {
			start := time.Now()
			r, err := benchCollect(sess, plan())
			d := time.Since(start)
			if err != nil {
				fatalE19(err)
			}
			if best == 0 || d < best {
				best, rows = d, r
			}
		}
		return best, rows
	}

	q6p := tpch.DefaultQ6Params()
	rec := fusedRecord{
		Benchmark: "fused", ScaleFactor: sf, Rows: st.Rows(), Iters: iters,
		Identical:  true,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CalibNs:    calibNs,
	}
	for _, q := range []struct {
		name              string
		plan              func() *advm.Plan
		interpNs, fusedNs *int64
	}{
		{"q1", func() *advm.Plan { return tpch.PlanQ1(st) }, &rec.Q1InterpNsOp, &rec.Q1FusedNsOp},
		{"q6", func() *advm.Plan { return tpch.PlanQ6(st, q6p) }, &rec.Q6InterpNsOp, &rec.Q6FusedNsOp},
	} {
		before := hot.Stats().FusedQueries
		interpD, want := measure(interp, q.plan)
		fusedD, got := measure(hot, q.plan)
		if !sameResults(want, got) {
			fatalE19(fmt.Errorf("%s: fused result differs from interpreted", q.name))
		}
		if hot.Stats().FusedQueries == before {
			fatalE19(fmt.Errorf("%s: forced-hot leg mounted no fused loops", q.name))
		}
		*q.interpNs, *q.fusedNs = interpD.Nanoseconds(), fusedD.Nanoseconds()
		fmt.Printf("  %-4s interpreted %12v   fused %12v   ratio %.2f   identical=%v\n",
			q.name, interpD.Round(time.Microsecond), fusedD.Round(time.Microsecond),
			float64(fusedD)/float64(interpD), rec.Identical)
	}
	hst := hot.Stats()
	rec.FusedQueries, rec.FusedDeopts = hst.FusedQueries, hst.FusedDeopts
	fmt.Printf("       hot legs: %d fused queries, %d deopts\n", rec.FusedQueries, rec.FusedDeopts)
	if outDir != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatalE19(err)
		}
		path := filepath.Join(outDir, "BENCH_fused.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fatalE19(err)
		}
		fmt.Printf("       wrote %s\n", path)
	}
}

func fatalE19(err error) {
	fmt.Fprintln(os.Stderr, "advm-bench: E19:", err)
	os.Exit(1)
}

// multicoreRecord is the BENCH_multicore.json perf record: Q1, Q3 and Q6
// serial vs WithParallelism(4) in one record, taken with the intended
// GOMAXPROCS for the parallel legs. Q1SerialNsOp doubles as the flavor
// marker benchdiff dispatches on. Unlike the per-query records (whose
// parallel legs are informational), this record's speedups are *gated*:
// benchdiff fails when a speedup drops below its floor while the recording
// host actually had NumCPU ≥ Workers cores — an undersubscribed host (such
// as a single-core container) skips the speedup gate instead of failing it.
type multicoreRecord struct {
	Benchmark    string  `json:"benchmark"`
	ScaleFactor  float64 `json:"scale_factor"`
	Rows         int     `json:"rows"`
	Workers      int     `json:"workers"`
	Iters        int     `json:"iters"`
	Q1SerialNsOp int64   `json:"q1_serial_ns_op"`
	Q1ParNsOp    int64   `json:"q1_par_ns_op"`
	Q1Speedup    float64 `json:"q1_speedup"`
	Q3SerialNsOp int64   `json:"q3_serial_ns_op"`
	Q3ParNsOp    int64   `json:"q3_par_ns_op"`
	Q3Speedup    float64 `json:"q3_speedup"`
	Q6SerialNsOp int64   `json:"q6_serial_ns_op"`
	Q6ParNsOp    int64   `json:"q6_par_ns_op"`
	Q6Speedup    float64 `json:"q6_speedup"`
	HCSerialNsOp int64   `json:"hc_serial_ns_op,omitempty"`
	HCParNsOp    int64   `json:"hc_par_ns_op,omitempty"`
	HCSpeedup    float64 `json:"hc_speedup,omitempty"`
	MorselSteals int64   `json:"morsel_steals"`
	Identical    bool    `json:"identical"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	CalibNs      int64   `json:"calib_ns"`
	// Per-query speedup floors, read by benchdiff from the BASELINE record
	// only: raising one is a checked-in, reviewed act, not something a
	// current run can weaken. Zero means benchdiff's default floor applies.
	Q1SpeedupFloor float64 `json:"q1_speedup_floor,omitempty"`
	Q3SpeedupFloor float64 `json:"q3_speedup_floor,omitempty"`
	Q6SpeedupFloor float64 `json:"q6_speedup_floor,omitempty"`
	HCSpeedupFloor float64 `json:"hc_speedup_floor,omitempty"`
}

// expE20 measures multi-core scaling of the work-stealing morsel scheduler:
// Q1, Q3 and Q6 serial vs WithParallelism(4), byte-identity enforced, all
// three speedups in one record together with the host's GOMAXPROCS and CPU
// count — the context benchdiff needs to decide whether the speedup floor
// applies. With outDir != "" it writes BENCH_multicore.json there.
func expE20(sf float64, dataDir, outDir string) {
	const workers = 4
	const iters = 7
	header(fmt.Sprintf("E20 — multi-core scaling, work-stealing dispatch (SF %.3f, %d workers)", sf, workers))
	st, err := tpch.LoadOrGen(dataDir, "lineitem", sf, 42)
	if err != nil {
		fatalE20(err)
	}
	ord, err := tpch.LoadOrGen(dataDir, "orders", sf, 42)
	if err != nil {
		fatalE20(err)
	}
	cust, err := tpch.LoadOrGen(dataDir, "customer", sf, 42)
	if err != nil {
		fatalE20(err)
	}
	calibNs := calibrate()
	fmt.Printf("%d lineitem rows, GOMAXPROCS=%d, NumCPU=%d, calib=%v\n\n",
		st.Rows(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		time.Duration(calibNs).Round(time.Microsecond))

	eng, err := advm.NewEngine(
		advm.WithParallelism(workers),
		advm.WithJITOptions(advm.JITOptions{CompileLatency: advm.NoCompileLatency}))
	if err != nil {
		fatalE20(err)
	}
	defer eng.Close()
	serial, err := eng.Session(advm.WithParallelism(1))
	if err != nil {
		fatalE20(err)
	}
	parallel, err := eng.Session()
	if err != nil {
		fatalE20(err)
	}

	measure := func(sess *advm.Session, plan func(advm.TableSource) *advm.Plan) (time.Duration, [][]advm.Value) {
		var best time.Duration
		var rows [][]advm.Value
		for i := 0; i < iters; i++ {
			start := time.Now()
			r, err := benchCollect(sess, plan(st))
			d := time.Since(start)
			if err != nil {
				fatalE20(err)
			}
			if best == 0 || d < best {
				best, rows = d, r
			}
		}
		return best, rows
	}

	q6p := tpch.DefaultQ6Params()
	q3p := tpch.DefaultQ3Params()
	// hc is a Q1-shaped grouped aggregation whose key pair (l_orderkey,
	// l_quantity) is near-unique per row — ~100k groups at SF 0.02 — so it
	// stresses per-morsel aggregation-table footprint rather than arithmetic.
	// Both key columns live in the store, which also exercises the zone-map
	// distinct-estimate table sizing.
	hcPlan := func(st advm.TableSource) *advm.Plan {
		return advm.Scan(st, "l_orderkey", "l_quantity", "l_extendedprice", "l_discount").
			Compute("disc_price", `(\p d -> p * (1.0 - d))`, advm.F64, "l_extendedprice", "l_discount").
			Aggregate([]string{"l_orderkey", "l_quantity"},
				advm.Agg{Func: advm.AggSum, Col: "disc_price", As: "revenue"},
				advm.Agg{Func: advm.AggAvg, Col: "l_quantity", As: "avg_qty"},
				advm.Agg{Func: advm.AggCount, As: "cnt"})
	}
	rec := multicoreRecord{
		Benchmark: "multicore", ScaleFactor: sf, Rows: st.Rows(),
		Workers: workers, Iters: iters,
		Identical:  true,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CalibNs:    calibNs,
		// Q3's parallel plan must beat serial outright: the floor was raised
		// to 1.0 when the overlapped build + parallel top-k work landed.
		Q3SpeedupFloor: 1.0,
	}
	for _, q := range []struct {
		name            string
		plan            func(advm.TableSource) *advm.Plan
		serialNs, parNs *int64
		speedup         *float64
	}{
		{"q1", tpch.PlanQ1, &rec.Q1SerialNsOp, &rec.Q1ParNsOp, &rec.Q1Speedup},
		{"q3", func(st advm.TableSource) *advm.Plan { return tpch.PlanQ3(st, ord, cust, q3p) },
			&rec.Q3SerialNsOp, &rec.Q3ParNsOp, &rec.Q3Speedup},
		{"q6", func(st advm.TableSource) *advm.Plan { return tpch.PlanQ6(st, q6p) },
			&rec.Q6SerialNsOp, &rec.Q6ParNsOp, &rec.Q6Speedup},
		{"hc", hcPlan, &rec.HCSerialNsOp, &rec.HCParNsOp, &rec.HCSpeedup},
	} {
		serialD, want := measure(serial, q.plan)
		parD, got := measure(parallel, q.plan)
		if !sameResults(want, got) {
			fatalE20(fmt.Errorf("%s: parallel result differs from serial", q.name))
		}
		*q.serialNs, *q.parNs = serialD.Nanoseconds(), parD.Nanoseconds()
		*q.speedup = float64(serialD) / float64(parD)
		fmt.Printf("  %-4s serial %12v   parallel(%d) %12v   speedup %.2fx   identical=%v\n",
			q.name, serialD.Round(time.Microsecond), workers,
			parD.Round(time.Microsecond), *q.speedup, rec.Identical)
	}
	rec.MorselSteals = parallel.Stats().MorselSteals
	fmt.Printf("       parallel legs: %d morsels stolen across all runs\n", rec.MorselSteals)
	if runtime.NumCPU() < workers {
		fmt.Printf("       note: host has %d CPUs for %d workers — speedups here are not gateable\n",
			runtime.NumCPU(), workers)
	}
	if outDir != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatalE20(err)
		}
		path := filepath.Join(outDir, "BENCH_multicore.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fatalE20(err)
		}
		fmt.Printf("       wrote %s\n", path)
	}
}

func fatalE20(err error) {
	fmt.Fprintln(os.Stderr, "advm-bench: E20:", err)
	os.Exit(1)
}

// expE6 prints the device placement series.
func expE6() {
	header("E6 — adaptive CPU/GPU placement (modeled costs)")
	g := gpu.New(gpu.DefaultConfig())
	cpu := device.NewCPU()
	placer := device.NewPlacer(cpu, g)
	fmt.Printf("  %-10s %-9s %14s %14s   %s\n", "elems", "resident", "cpu model", "gpu model", "placement")
	for _, resident := range []bool{false, true} {
		for _, elems := range []int{1 << 8, 1 << 12, 1 << 16, 1 << 20, 1 << 24} {
			name := fmt.Sprintf("c%d%v", elems, resident)
			k := device.Kernel{
				Name: name, Elems: elems, BytesIn: elems * 8, BytesOut: elems * 8,
				OpsPerElem: 4, Inputs: []string{name},
			}
			if resident {
				g.MakeResident(name, k.BytesIn)
			}
			d := placer.Choose(k)
			fmt.Printf("  %-10d %-9v %14v %14v   → %s\n",
				elems, resident, cpu.Estimate(k).Modeled, g.Estimate(k).Modeled, d.Name())
		}
	}
	fmt.Printf("\n  decisions: %v\n", placer.Decisions)
}

// traceRecord is the BENCH_trace.json perf record: serial Q6 with tracing
// off — the production default every query pays — plus the fully traced leg
// for context. Benchdiff gates only the off leg: the tracing hooks must
// stay free when disabled (a nil-check per call site), within
// TraceMaxRegress of the baseline.
type traceRecord struct {
	Benchmark      string  `json:"benchmark"`
	ScaleFactor    float64 `json:"scale_factor"`
	Rows           int     `json:"rows"`
	Iters          int     `json:"iters"`
	Q6TraceOffNsOp int64   `json:"q6_trace_off_ns_op"`
	Q6TraceOnNsOp  int64   `json:"q6_trace_on_ns_op,omitempty"`
	Identical      bool    `json:"identical"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	CalibNs        int64   `json:"calib_ns"`
	// TraceMaxRegress is the off-leg regression gate, read by benchdiff from
	// the BASELINE record only (a current run cannot weaken it). Zero means
	// benchdiff's default regression threshold applies.
	TraceMaxRegress float64 `json:"trace_max_regress,omitempty"`
}

// expE21 measures the tracing tax on serial Q6: tracing off (gated — must
// stay within a few percent of the pre-tracing baseline) vs morsel-level
// tracing (informational). The scale factor is pinned at 0.02 to track a
// fixed workload regardless of -sf. With outDir != "" it writes
// BENCH_trace.json there for the CI gate.
func expE21(dataDir, outDir string) {
	const sf = 0.02
	const iters = 15
	header(fmt.Sprintf("E21 — tracing overhead: Q6 off vs morsel-traced (SF %.3f, serial)", sf))
	st, err := tpch.LoadOrGen(dataDir, "lineitem", sf, 42)
	if err != nil {
		fatalE21(err)
	}
	calibNs := calibrate()

	eng, err := advm.NewEngine(
		advm.WithJITOptions(advm.JITOptions{CompileLatency: advm.NoCompileLatency}))
	if err != nil {
		fatalE21(err)
	}
	defer eng.Close()
	sess, err := eng.Session(advm.WithParallelism(1))
	if err != nil {
		fatalE21(err)
	}
	fmt.Printf("%d lineitem rows, GOMAXPROCS=%d, calib=%v\n\n",
		st.Rows(), runtime.GOMAXPROCS(0), time.Duration(calibNs).Round(time.Microsecond))

	q6 := func() *advm.Plan { return tpch.PlanQ6(st, tpch.DefaultQ6Params()) }
	measure := func(level advm.TraceLevel) time.Duration {
		var best time.Duration
		for i := 0; i < iters; i++ {
			start := time.Now()
			rows, err := sess.QueryTraced(context.Background(), q6(), level)
			if err != nil {
				fatalE21(err)
			}
			if _, err := rows.Count(); err != nil {
				fatalE21(err)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	offD := measure(advm.TraceOff)
	onD := measure(advm.TraceMorsels)

	// Tracing must be observation only: the traced leg returns the same rows.
	want, err := benchCollect(sess, q6())
	if err != nil {
		fatalE21(err)
	}
	traced, err := eng.Session(advm.WithParallelism(1), advm.WithTracing(advm.TraceMorsels))
	if err != nil {
		fatalE21(err)
	}
	got, err := benchCollect(traced, q6())
	if err != nil {
		fatalE21(err)
	}

	rec := traceRecord{
		Benchmark: "trace", ScaleFactor: sf, Rows: st.Rows(), Iters: iters,
		Q6TraceOffNsOp:  offD.Nanoseconds(),
		Q6TraceOnNsOp:   onD.Nanoseconds(),
		Identical:       sameResults(want, got),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		CalibNs:         calibNs,
		TraceMaxRegress: 0.02,
	}
	if !rec.Identical {
		fatalE21(fmt.Errorf("traced Q6 result differs from untraced"))
	}
	fmt.Printf("  q6   trace-off %12v   trace-morsels %12v   tax %+.1f%%   identical=%v\n",
		offD.Round(time.Microsecond), onD.Round(time.Microsecond),
		100*(float64(onD)/float64(offD)-1), rec.Identical)
	if outDir != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatalE21(err)
		}
		path := filepath.Join(outDir, "BENCH_trace.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fatalE21(err)
		}
		fmt.Printf("       wrote %s\n", path)
	}
}

func fatalE21(err error) {
	fmt.Fprintln(os.Stderr, "advm-bench: E21:", err)
	os.Exit(1)
}

// writeTraceOut runs one named TPC-H query traced at the morsels level on
// four workers and writes its Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto to see per-worker morsel timelines).
func writeTraceOut(name string, sf float64, dataDir, path string) error {
	li, err := tpch.LoadOrGen(dataDir, "lineitem", sf, 42)
	if err != nil {
		return err
	}
	var mkPlan func() *advm.Plan
	switch name {
	case "q1":
		mkPlan = func() *advm.Plan { return tpch.PlanQ1(li) }
	case "q6":
		mkPlan = func() *advm.Plan { return tpch.PlanQ6(li, tpch.DefaultQ6Params()) }
	case "q3":
		ord, err := tpch.LoadOrGen(dataDir, "orders", sf, 42)
		if err != nil {
			return err
		}
		cust, err := tpch.LoadOrGen(dataDir, "customer", sf, 42)
		if err != nil {
			return err
		}
		mkPlan = func() *advm.Plan { return tpch.PlanQ3(li, ord, cust, tpch.DefaultQ3Params()) }
	default:
		return fmt.Errorf("unknown -trace-query %q (have q1, q6, q3)", name)
	}
	eng, err := advm.NewEngine(
		advm.WithParallelism(4),
		advm.WithJITOptions(advm.JITOptions{CompileLatency: advm.NoCompileLatency}))
	if err != nil {
		return err
	}
	defer eng.Close()
	sess, err := eng.Session()
	if err != nil {
		return err
	}
	rows, err := sess.QueryTraced(context.Background(), mkPlan(), advm.TraceMorsels)
	if err != nil {
		return err
	}
	n, err := rows.Count()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rows.Trace().WriteChromeJSON(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s, %d result rows, parallelism 4)\n", path, name, n)
	return nil
}
