// Command benchdiff is the CI perf-regression gate: it compares freshly
// measured BENCH_*.json perf records (written by `advm-bench -benchjson`)
// against the checked-in baseline and fails when any query's serial or
// parallel ns/op regressed beyond the threshold.
//
//	benchdiff -baseline bench/baseline -current . -max-regress 0.25
//
// The diff is printed as a Markdown table on stdout and, when the
// GITHUB_STEP_SUMMARY environment variable points at a file (as it does
// inside GitHub Actions), appended there so the job summary shows the
// trajectory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchRecord mirrors the BENCH_*.json schema written by advm-bench. Seven
// record flavors share it (trace and jitcache records are described at their
// fields): query records carry serial vs parallel ns/op,
// device records (BENCH_device.json) carry CPU-only vs adaptive-placement
// ns/op for the same parallel query, colstore records (BENCH_colstore.json)
// carry serial in-RAM vs disk-backed legs of Q1/Q6, fused records
// (BENCH_fused.json) carry serial interpreted vs forced-hot fused legs of
// Q1/Q6 under tiered execution, and multicore records
// (BENCH_multicore.json) carry Q1/Q3/Q6 serial vs parallel legs with their
// speedups, gated against a floor when the recording host had enough cores.
type benchRecord struct {
	Benchmark     string  `json:"benchmark"`
	ScaleFactor   float64 `json:"scale_factor"`
	Rows          int     `json:"rows"`
	Workers       int     `json:"workers"`
	SerialNsOp    int64   `json:"serial_ns_op"`
	Parallel4NsOp int64   `json:"parallel4_ns_op"`
	Speedup       float64 `json:"speedup"`
	Identical     bool    `json:"identical"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	CalibNs       int64   `json:"calib_ns"`

	// Device-record fields (non-zero CPUNsOp marks the flavor).
	CPUNsOp      int64 `json:"cpu_ns_op,omitempty"`
	AdaptiveNsOp int64 `json:"adaptive_ns_op,omitempty"`
	GPUMorsels   int64 `json:"gpu_morsels,omitempty"`
	CPUMorsels   int64 `json:"cpu_morsels,omitempty"`

	// Colstore-record fields (non-zero Q6SkipNsOp marks the flavor). All
	// legs are serial measurements, so every one is gated.
	Q1RAMNsOp  int64 `json:"q1_ram_ns_op,omitempty"`
	Q1ColdNsOp int64 `json:"q1_cold_ns_op,omitempty"`
	Q1SkipNsOp int64 `json:"q1_skip_ns_op,omitempty"`
	Q6RAMNsOp  int64 `json:"q6_ram_ns_op,omitempty"`
	Q6ColdNsOp int64 `json:"q6_cold_ns_op,omitempty"`
	Q6SkipNsOp int64 `json:"q6_skip_ns_op,omitempty"`

	// Fused-record fields (non-zero Q6FusedNsOp marks the flavor). All legs
	// are serial measurements, so every one is gated.
	Q1InterpNsOp int64 `json:"q1_interp_ns_op,omitempty"`
	Q1FusedNsOp  int64 `json:"q1_fused_ns_op,omitempty"`
	Q6InterpNsOp int64 `json:"q6_interp_ns_op,omitempty"`
	Q6FusedNsOp  int64 `json:"q6_fused_ns_op,omitempty"`

	// Multicore-record fields (non-zero Q1SerialNsOp marks the flavor). The
	// serial legs are calibration-gated like any serial measurement; the
	// speedups are gated against a floor — but only when the *current* host
	// actually had NumCPU ≥ Workers, because an undersubscribed host cannot
	// exhibit parallel speedup no matter how healthy the scheduler is.
	Q1SerialNsOp int64   `json:"q1_serial_ns_op,omitempty"`
	Q1ParNsOp    int64   `json:"q1_par_ns_op,omitempty"`
	Q1Speedup    float64 `json:"q1_speedup,omitempty"`
	Q3SerialNsOp int64   `json:"q3_serial_ns_op,omitempty"`
	Q3ParNsOp    int64   `json:"q3_par_ns_op,omitempty"`
	Q3Speedup    float64 `json:"q3_speedup,omitempty"`
	Q6SerialNsOp int64   `json:"q6_serial_ns_op,omitempty"`
	Q6ParNsOp    int64   `json:"q6_par_ns_op,omitempty"`
	Q6Speedup    float64 `json:"q6_speedup,omitempty"`
	// The high-cardinality grouped-aggregation leg (Q1-shaped plan,
	// ~100k groups): present in records from advm-bench ≥ the leg's
	// introduction, gated like the other multicore legs when present on
	// either side.
	HCSerialNsOp int64   `json:"hc_serial_ns_op,omitempty"`
	HCParNsOp    int64   `json:"hc_par_ns_op,omitempty"`
	HCSpeedup    float64 `json:"hc_speedup,omitempty"`
	NumCPU       int     `json:"num_cpu,omitempty"`

	// Trace-record fields (non-zero Q6TraceOffNsOp marks the flavor). The
	// off leg is the one that matters: it is serial Q6 with the tracing
	// hooks compiled in but disabled, gated against the pre-tracing baseline
	// with the tighter TraceMaxRegress threshold from the baseline record
	// (observability must be free when off). The traced leg is reported but
	// not gated — its cost is the price of asking for a trace.
	Q6TraceOffNsOp  int64   `json:"q6_trace_off_ns_op,omitempty"`
	Q6TraceOnNsOp   int64   `json:"q6_trace_on_ns_op,omitempty"`
	TraceMaxRegress float64 `json:"trace_max_regress,omitempty"`

	// Jitcache-record fields (non-zero ProgHitNsOp marks the flavor): the
	// latency of a never-seen program (Prepare + two runs) with the JIT
	// off, as a template miss and as a template hit, and of a cold Q6 with
	// the JIT on and off. Every leg is a one-caller latency and gated
	// against the baseline; HitVsJITOff (JIT-off ÷ hit, from the current
	// record alone) is additionally gated against the baseline's
	// HitVsJITOffFloor — running compiled from the template cache must not
	// cost more than not compiling.
	ProgJITOffNsOp   int64   `json:"prog_jit_off_ns_op,omitempty"`
	ProgMissNsOp     int64   `json:"prog_template_miss_ns_op,omitempty"`
	ProgHitNsOp      int64   `json:"prog_template_hit_ns_op,omitempty"`
	Q6ColdJITOnNsOp  int64   `json:"q6_cold_jit_on_ns_op,omitempty"`
	Q6ColdJITOffNsOp int64   `json:"q6_cold_jit_off_ns_op,omitempty"`
	HitVsJITOff      float64 `json:"hit_vs_jit_off,omitempty"`
	HitVsJITOffFloor float64 `json:"hit_vs_jit_off_floor,omitempty"`

	// Per-query speedup floors, read from the *baseline* record: when the
	// checked-in baseline carries e.g. "q3_speedup_floor": 1.0, the current
	// record's q3_speedup is gated against that floor instead of the default
	// 1 − max-regress. Raising a floor is therefore a reviewed, checked-in
	// act, exactly like re-baselining an ns/op.
	Q1SpeedupFloor float64 `json:"q1_speedup_floor,omitempty"`
	Q3SpeedupFloor float64 `json:"q3_speedup_floor,omitempty"`
	Q6SpeedupFloor float64 `json:"q6_speedup_floor,omitempty"`
	HCSpeedupFloor float64 `json:"hc_speedup_floor,omitempty"`
}

// diffRow is one benchmark × metric comparison. Ratio is
// calibration-normalized when both records carry a calib_ns measurement —
// (cur/curCalib)/(base/baseCalib) — so records taken on hosts of different
// speed (or under different load) compare meaningfully; raw otherwise.
type diffRow struct {
	Bench, Metric  string
	BaseNs, CurNs  int64
	Ratio          float64
	Normalized     bool
	Regressed      bool
	Skipped        string // non-empty = not gated, with the reason
	NotReproducing bool   // current record reports non-identical results

	// Speedup rows (multicore and jitcache records) compare dimensionless
	// speedup factors against an absolute floor instead of ns/op against the
	// baseline.
	IsSpeedup    bool
	BaseX, CurX  float64 // baseline / current speedup factors
	SpeedupFloor float64 // gate floor the current speedup must clear

	// Undersubscribed-host skips carry the numbers for the explicit
	// "SKIPPED (num_cpu=N < required M)" line in the step summary.
	SkipCPUs, SkipWorkers int
}

// gateCounts summarizes a run for machines: CI history can distinguish
// "passed" from "didn't measure" by the skipped counter instead of parsing
// the Markdown.
type gateCounts struct {
	Gated     int `json:"gated"`
	Skipped   int `json:"skipped"`
	Regressed int `json:"regressed"`
}

func main() {
	baseline := flag.String("baseline", "bench/baseline", "directory of checked-in BENCH_*.json baselines")
	current := flag.String("current", ".", "directory of freshly measured BENCH_*.json records")
	maxRegress := flag.Float64("max-regress", 0.25, "fail when ns/op exceeds baseline by more than this fraction")
	summaryJSON := flag.String("summary-json", "", "write {gated,skipped,regressed} counters to this JSON file (\"\" = don't)")
	flag.Parse()

	rows, err := diffDirs(*baseline, *current, *maxRegress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	counts, skipLines := summarize(rows)
	table := renderTable(rows, *maxRegress)
	report := table
	for _, l := range skipLines {
		report += "\n" + l
	}
	report += fmt.Sprintf("\n\nbenchdiff: %d metrics gated, %d skipped, %d regressed\n",
		counts.Gated, counts.Skipped, counts.Regressed)
	fmt.Print(report)
	if summary := os.Getenv("GITHUB_STEP_SUMMARY"); summary != "" {
		f, err := os.OpenFile(summary, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintln(f, "## Bench perf gate")
			fmt.Fprintln(f)
			fmt.Fprint(f, report)
			f.Close()
		}
	}
	if *summaryJSON != "" {
		data, _ := json.Marshal(counts)
		if err := os.WriteFile(*summaryJSON, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}

	failed := false
	for _, r := range rows {
		if r.Regressed && r.IsSpeedup {
			failed = true
			fmt.Fprintf(os.Stderr, "benchdiff: %s %s is %.2fx, below the %.2fx floor\n",
				r.Bench, r.Metric, r.CurX, r.SpeedupFloor)
		} else if r.Regressed {
			failed = true
			fmt.Fprintf(os.Stderr, "benchdiff: %s %s regressed %.1f%% (%d → %d ns/op, threshold %.0f%%)\n",
				r.Bench, r.Metric, (r.Ratio-1)*100, r.BaseNs, r.CurNs, *maxRegress*100)
		}
		if r.NotReproducing {
			failed = true
			fmt.Fprintf(os.Stderr, "benchdiff: %s reports non-identical parallel results\n", r.Bench)
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("\nbenchdiff: all gated records within %.0f%% of baseline\n", *maxRegress*100)
}

// summarize counts the gate outcome per metric row and renders one explicit
// line per skipped metric — a skipped gate must read as "didn't measure",
// never as a pass, in both the step summary and the counters JSON.
func summarize(rows []diffRow) (gateCounts, []string) {
	var c gateCounts
	var lines []string
	for _, r := range rows {
		switch {
		case r.Skipped != "":
			c.Skipped++
			if r.SkipCPUs > 0 || r.SkipWorkers > 0 {
				lines = append(lines, fmt.Sprintf("SKIPPED (num_cpu=%d < required %d): %s %s not gated — %s",
					r.SkipCPUs, r.SkipWorkers, r.Bench, r.Metric, r.Skipped))
			} else {
				lines = append(lines, fmt.Sprintf("SKIPPED: %s %s not gated — %s", r.Bench, r.Metric, r.Skipped))
			}
		default:
			c.Gated++
		}
		if r.Regressed || r.NotReproducing {
			c.Regressed++
		}
	}
	return c, lines
}

// diffDirs loads every BENCH_*.json under baseline and compares it with the
// same-named record under current. A baseline record without a current
// counterpart is an error: the gate must not silently narrow.
func diffDirs(baseline, current string, maxRegress float64) ([]diffRow, error) {
	paths, err := filepath.Glob(filepath.Join(baseline, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no BENCH_*.json baselines under %s", baseline)
	}
	sort.Strings(paths)
	var rows []diffRow
	for _, basePath := range paths {
		base, err := loadRecord(basePath)
		if err != nil {
			return nil, err
		}
		curPath := filepath.Join(current, filepath.Base(basePath))
		cur, err := loadRecord(curPath)
		if err != nil {
			return nil, fmt.Errorf("baseline %s has no current record: %w", filepath.Base(basePath), err)
		}
		rows = append(rows, diffRecords(base, cur, maxRegress)...)
	}
	// The reverse direction must not narrow silently either: a freshly
	// emitted record without a checked-in baseline is an ungated benchmark.
	curPaths, err := filepath.Glob(filepath.Join(current, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	for _, curPath := range curPaths {
		basePath := filepath.Join(baseline, filepath.Base(curPath))
		if _, err := os.Stat(basePath); os.IsNotExist(err) {
			return nil, fmt.Errorf("current record %s has no baseline under %s — check one in so the gate covers it",
				filepath.Base(curPath), baseline)
		}
	}
	return rows, nil
}

// diffRecords compares one baseline/current record pair.
func diffRecords(base, cur benchRecord, maxRegress float64) []diffRow {
	normalize := base.CalibNs > 0 && cur.CalibNs > 0
	mk := func(metric string, baseNs, curNs int64) diffRow {
		r := diffRow{Bench: base.Benchmark, Metric: metric, BaseNs: baseNs, CurNs: curNs}
		if baseNs > 0 {
			r.Ratio = float64(curNs) / float64(baseNs)
			if normalize {
				r.Ratio *= float64(base.CalibNs) / float64(cur.CalibNs)
				r.Normalized = true
			}
			r.Regressed = r.Ratio > 1+maxRegress
		}
		return r
	}
	// Calibration normalizes single-thread speed, not core count: a parallel
	// measurement from a host with a different GOMAXPROCS says nothing about
	// a regression, so such legs are reported but not gated.
	skipParallel := func(r diffRow) diffRow {
		if base.GOMAXPROCS != cur.GOMAXPROCS {
			r.Regressed = false
			r.Skipped = fmt.Sprintf("cores differ (%d vs %d)", base.GOMAXPROCS, cur.GOMAXPROCS)
		}
		return r
	}

	var rows []diffRow
	if base.CPUNsOp > 0 || cur.CPUNsOp > 0 {
		// Device record: both legs run the parallel query (CPU-only policy
		// vs adaptive placement), so both are parallel measurements.
		rows = []diffRow{
			skipParallel(mk("cpu-only", base.CPUNsOp, cur.CPUNsOp)),
			skipParallel(mk("adaptive", base.AdaptiveNsOp, cur.AdaptiveNsOp)),
		}
	} else if base.Q6SkipNsOp > 0 || cur.Q6SkipNsOp > 0 {
		// Colstore record: serial Q1/Q6 over the in-RAM table, the colstore
		// directory decoding every segment, and with zone-map skipping on.
		rows = []diffRow{
			mk("q1-ram", base.Q1RAMNsOp, cur.Q1RAMNsOp),
			mk("q1-colstore", base.Q1ColdNsOp, cur.Q1ColdNsOp),
			mk("q1-skipping", base.Q1SkipNsOp, cur.Q1SkipNsOp),
			mk("q6-ram", base.Q6RAMNsOp, cur.Q6RAMNsOp),
			mk("q6-colstore", base.Q6ColdNsOp, cur.Q6ColdNsOp),
			mk("q6-skipping", base.Q6SkipNsOp, cur.Q6SkipNsOp),
		}
	} else if base.Q6FusedNsOp > 0 || cur.Q6FusedNsOp > 0 {
		// Fused record: serial Q1/Q6 through the vectorized interpreter vs
		// forced-hot tiered execution running specialized fused loops.
		rows = []diffRow{
			mk("q1-interpreted", base.Q1InterpNsOp, cur.Q1InterpNsOp),
			mk("q1-fused", base.Q1FusedNsOp, cur.Q1FusedNsOp),
			mk("q6-interpreted", base.Q6InterpNsOp, cur.Q6InterpNsOp),
			mk("q6-fused", base.Q6FusedNsOp, cur.Q6FusedNsOp),
		}
	} else if base.Q6TraceOffNsOp > 0 || cur.Q6TraceOffNsOp > 0 {
		// Trace record: serial Q6 with tracing compiled in but off. Gated
		// with the baseline's trace_max_regress when present (tighter than
		// the general threshold: disabled tracing must cost nothing), else
		// the default. The traced leg is informational — it reports what a
		// client asking for a trace pays, but tracing-on cost is a feature
		// knob, not a regression.
		thr := maxRegress
		if base.TraceMaxRegress > 0 {
			thr = base.TraceMaxRegress
		}
		off := mk("q6-trace-off", base.Q6TraceOffNsOp, cur.Q6TraceOffNsOp)
		if base.Q6TraceOffNsOp > 0 {
			off.Regressed = off.Ratio > 1+thr
		}
		on := mk("q6-trace-morsels", base.Q6TraceOnNsOp, cur.Q6TraceOnNsOp)
		on.Regressed = false
		if base.Q6TraceOnNsOp == 0 {
			on.Skipped = "no traced-leg baseline"
		} else {
			on.Skipped = "informational (price of tracing on)"
		}
		rows = []diffRow{off, on}
	} else if base.ProgHitNsOp > 0 || cur.ProgHitNsOp > 0 {
		// Jitcache record: five one-caller latencies, plus the current
		// record's own JIT-off ÷ template-hit ratio against the baseline's
		// floor (default 1 − max-regress).
		ratio := diffRow{
			Bench: base.Benchmark, Metric: "hit-vs-jit-off", IsSpeedup: true,
			BaseX: base.HitVsJITOff, CurX: cur.HitVsJITOff, SpeedupFloor: 1 - maxRegress,
		}
		if base.HitVsJITOffFloor > 0 {
			ratio.SpeedupFloor = base.HitVsJITOffFloor
		}
		if ratio.BaseX > 0 {
			ratio.Ratio = ratio.CurX / ratio.BaseX
		}
		ratio.Regressed = ratio.CurX < ratio.SpeedupFloor
		rows = []diffRow{
			mk("prog-jit-off", base.ProgJITOffNsOp, cur.ProgJITOffNsOp),
			mk("prog-template-miss", base.ProgMissNsOp, cur.ProgMissNsOp),
			mk("prog-template-hit", base.ProgHitNsOp, cur.ProgHitNsOp),
			ratio,
			mk("q6-cold-jit-on", base.Q6ColdJITOnNsOp, cur.Q6ColdJITOnNsOp),
			mk("q6-cold-jit-off", base.Q6ColdJITOffNsOp, cur.Q6ColdJITOffNsOp),
		}
	} else if base.Q1SerialNsOp > 0 || cur.Q1SerialNsOp > 0 {
		// Multicore record: Q1/Q3/Q6 serial legs are calibration-gated like
		// any serial measurement; the parallel legs are reported (skipped on
		// a core-count mismatch like every parallel leg); the speedups are
		// gated against an absolute floor. The floor uses only the *current*
		// record: a baseline taken on a small host must not exempt a real
		// multi-core regression, and a current record from an undersubscribed
		// host (NumCPU < Workers) skips the floor instead of failing it —
		// such a host cannot exhibit parallel speedup regardless of scheduler
		// health.
		// Each query's floor defaults to 1 − max-regress; a baseline record
		// carrying a per-query floor (e.g. "q3_speedup_floor": 1.0) overrides
		// it, so a proven speedup cannot silently erode back below 1x.
		defFloor := 1 - maxRegress
		mkSpeedup := func(metric string, baseX, curX, baseFloor float64) diffRow {
			floor := defFloor
			if baseFloor > 0 {
				floor = baseFloor
			}
			r := diffRow{
				Bench: base.Benchmark, Metric: metric,
				IsSpeedup: true, BaseX: baseX, CurX: curX, SpeedupFloor: floor,
			}
			if baseX > 0 {
				r.Ratio = curX / baseX
			}
			if cur.NumCPU < cur.Workers {
				r.Skipped = fmt.Sprintf("host undersubscribed (%d CPUs for %d workers)", cur.NumCPU, cur.Workers)
				r.SkipCPUs, r.SkipWorkers = cur.NumCPU, cur.Workers
				return r
			}
			r.Regressed = curX < floor
			return r
		}
		rows = []diffRow{
			mk("q1-serial", base.Q1SerialNsOp, cur.Q1SerialNsOp),
			skipParallel(mk("q1-parallel", base.Q1ParNsOp, cur.Q1ParNsOp)),
			mkSpeedup("q1-speedup", base.Q1Speedup, cur.Q1Speedup, base.Q1SpeedupFloor),
			mk("q3-serial", base.Q3SerialNsOp, cur.Q3SerialNsOp),
			skipParallel(mk("q3-parallel", base.Q3ParNsOp, cur.Q3ParNsOp)),
			mkSpeedup("q3-speedup", base.Q3Speedup, cur.Q3Speedup, base.Q3SpeedupFloor),
			mk("q6-serial", base.Q6SerialNsOp, cur.Q6SerialNsOp),
			skipParallel(mk("q6-parallel", base.Q6ParNsOp, cur.Q6ParNsOp)),
			mkSpeedup("q6-speedup", base.Q6Speedup, cur.Q6Speedup, base.Q6SpeedupFloor),
		}
		if base.HCSerialNsOp > 0 || cur.HCSerialNsOp > 0 {
			rows = append(rows,
				mk("hc-serial", base.HCSerialNsOp, cur.HCSerialNsOp),
				skipParallel(mk("hc-parallel", base.HCParNsOp, cur.HCParNsOp)),
				mkSpeedup("hc-speedup", base.HCSpeedup, cur.HCSpeedup, base.HCSpeedupFloor))
		}
	} else {
		rows = []diffRow{
			mk("serial", base.SerialNsOp, cur.SerialNsOp),
			skipParallel(mk(fmt.Sprintf("parallel%d", base.Workers), base.Parallel4NsOp, cur.Parallel4NsOp)),
		}
	}
	if !cur.Identical {
		rows[0].NotReproducing = true
	}
	return rows
}

func loadRecord(path string) (benchRecord, error) {
	var rec benchRecord
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// renderTable formats the diff as a Markdown table.
func renderTable(rows []diffRow, maxRegress float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "| bench | metric | baseline ns/op | current ns/op | Δ | gate (>%.0f%%) |\n", maxRegress*100)
	sb.WriteString("|---|---|---:|---:|---:|---|\n")
	for _, r := range rows {
		status := "ok"
		if r.Skipped != "" {
			status = "skipped: " + r.Skipped
		}
		if r.Regressed {
			status = "REGRESSED"
		}
		if r.NotReproducing {
			status = "NOT IDENTICAL"
		}
		delta := fmt.Sprintf("%+.1f%%", (r.Ratio-1)*100)
		if r.Normalized {
			delta += " (calib-normalized)"
		}
		if r.IsSpeedup {
			if status == "ok" {
				status = fmt.Sprintf("ok (floor %.2fx)", r.SpeedupFloor)
			}
			fmt.Fprintf(&sb, "| %s | %s | %.2fx | %.2fx | %s | %s |\n",
				r.Bench, r.Metric, r.BaseX, r.CurX, delta, status)
			continue
		}
		fmt.Fprintf(&sb, "| %s | %s | %d | %d | %s | %s |\n",
			r.Bench, r.Metric, r.BaseNs, r.CurNs, delta, status)
	}
	return sb.String()
}
