// Command benchdiff is the micro-gate over the BENCH_multicore.json record
// `advm-bench -benchjson` writes (E20: Q1/Q3/Q6 and a high-cardinality
// aggregation, serial vs parallel, with speedup floors). It compares it
// against the checked-in baseline and fails when a serial ns/op regressed
// beyond the threshold, a speedup fell below its floor, or the record
// reports non-identical results. End-to-end performance is measured by the
// repo benchmark (BENCHMARK.json, benchmark/), not here.
//
// CI does not run it: parallel speedup is read from the repo benchmark's
// morsel.par_speedup. Run it by hand:
//
//	advm-bench -sf 0.02 -benchjson .
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

// benchRecord mirrors the BENCH_*.json schema written by advm-bench. Its
// `benchmark` field names the record: "multicore" (BENCH_multicore.json);
// any other name is an error, so a stale or foreign record cannot pass the
// gate by matching no rule.
type benchRecord struct {
	Benchmark  string `json:"benchmark"`
	Workers    int    `json:"workers"`
	Identical  bool   `json:"identical"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CalibNs    int64  `json:"calib_ns"`

	// Multicore-record fields. The serial legs are calibration-gated like
	// any serial measurement; the speedups are gated against a floor — but
	// only when the *current* host actually had NumCPU ≥ Workers, because an
	// undersubscribed host cannot exhibit parallel speedup no matter how
	// healthy the scheduler is.
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

	// Speedup rows (multicore record) compare dimensionless speedup factors
	// against an absolute floor instead of ns/op against the baseline.
	IsSpeedup    bool
	BaseX, CurX  float64 // baseline / current speedup factors
	SpeedupFloor float64 // gate floor the current speedup must clear

	// Undersubscribed-host skips carry the numbers for the explicit
	// "SKIPPED (num_cpu=N < required M)" line in the step summary.
	SkipCPUs, SkipWorkers int
}

// gateCounts summarizes a run for machines: a history of runs can distinguish
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
			fmt.Fprintf(os.Stderr, "benchdiff: %s reports non-identical results\n", r.Bench)
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
		recRows, err := diffRecords(base, cur, maxRegress)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(basePath), err)
		}
		rows = append(rows, recRows...)
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

// diffRecords compares one baseline/current record pair. A pair that is not
// two multicore records is an error: gating it by no rule would report rows
// that can never regress.
func diffRecords(base, cur benchRecord, maxRegress float64) ([]diffRow, error) {
	if base.Benchmark != cur.Benchmark {
		return nil, fmt.Errorf("baseline record %q compared with current record %q", base.Benchmark, cur.Benchmark)
	}
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

	var rows []diffRow
	switch base.Benchmark {
	case "multicore":
		// Multicore record: Q1/Q3/Q6 serial legs are calibration-gated like
		// any serial measurement; the parallel legs are reported (skipped on
		// a core-count mismatch, see skipParallel); the speedups are gated
		// against an absolute floor. The floor uses only the *current*
		// record: a baseline taken on a small host must not exempt a real
		// multi-core regression, and a current record from an undersubscribed
		// host (NumCPU < Workers) skips the floor instead of failing it —
		// such a host cannot exhibit parallel speedup regardless of scheduler
		// health.
		// Each query's floor defaults to 1 − max-regress; a baseline record
		// carrying a per-query floor (e.g. "q3_speedup_floor": 1.0) overrides
		// it, so a proven speedup cannot silently erode back below 1x.
		//
		// Calibration normalizes single-thread speed, not core count: a
		// parallel measurement from a host with a different GOMAXPROCS says
		// nothing about a regression, so such legs are reported but not gated.
		skipParallel := func(r diffRow) diffRow {
			if base.GOMAXPROCS != cur.GOMAXPROCS {
				r.Regressed = false
				r.Skipped = fmt.Sprintf("cores differ (%d vs %d)", base.GOMAXPROCS, cur.GOMAXPROCS)
			}
			return r
		}
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
	default:
		return nil, fmt.Errorf("unknown record %q: benchdiff gates only the multicore record", base.Benchmark)
	}
	if !cur.Identical {
		rows[0].NotReproducing = true
	}
	return rows, nil
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
