// Command benchdiff is the micro-gate over a BENCH_multicore.json record
// (E20: Q1/Q3/Q6, serial vs parallel). It compares it against the
// checked-in baseline and fails when a serial ns/op regressed beyond the
// threshold or the record reports non-identical results. End-to-end
// performance is measured by the repo benchmark (BENCHMARK.json,
// benchmark/), not here.
//
// The record's writer is gone: parallel speedup is read from the repo
// benchmark's morsel.par_speedup, and bench/baseline holds the last record
// written. CI does not run benchdiff. Run it by hand on a record of that
// schema:
//
//	benchdiff -baseline bench/baseline -current DIR -max-regress 0.25
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

// benchRecord mirrors the BENCH_*.json record schema. Its
// `benchmark` field names the record: "multicore" (BENCH_multicore.json);
// any other name is an error, so a stale or foreign record cannot pass the
// gate by matching no rule.
type benchRecord struct {
	Benchmark  string `json:"benchmark"`
	Identical  bool   `json:"identical"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// Multicore-record fields: the serial and the parallel ns/op of each
	// query.
	Q1SerialNsOp int64 `json:"q1_serial_ns_op,omitempty"`
	Q1ParNsOp    int64 `json:"q1_par_ns_op,omitempty"`
	Q3SerialNsOp int64 `json:"q3_serial_ns_op,omitempty"`
	Q3ParNsOp    int64 `json:"q3_par_ns_op,omitempty"`
	Q6SerialNsOp int64 `json:"q6_serial_ns_op,omitempty"`
	Q6ParNsOp    int64 `json:"q6_par_ns_op,omitempty"`
}

// diffRow is one benchmark × metric comparison; Ratio is current over
// baseline ns/op.
type diffRow struct {
	Bench, Metric  string
	BaseNs, CurNs  int64
	Ratio          float64
	Regressed      bool
	Skipped        string // non-empty = not gated, with the reason
	NotReproducing bool   // current record reports non-identical results
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
		if r.Regressed {
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
		if r.Skipped != "" {
			c.Skipped++
			lines = append(lines, fmt.Sprintf("SKIPPED: %s %s not gated — %s", r.Bench, r.Metric, r.Skipped))
		} else {
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
	mk := func(metric string, baseNs, curNs int64) diffRow {
		r := diffRow{Bench: base.Benchmark, Metric: metric, BaseNs: baseNs, CurNs: curNs}
		if baseNs > 0 {
			r.Ratio = float64(curNs) / float64(baseNs)
			r.Regressed = r.Ratio > 1+maxRegress
		}
		return r
	}

	var rows []diffRow
	switch base.Benchmark {
	case "multicore":
		// Multicore record: the serial legs are gated against the
		// baseline; a parallel leg is gated too unless the two records
		// come from hosts with a different GOMAXPROCS, where it says
		// nothing about a regression and is reported only.
		skipParallel := func(r diffRow) diffRow {
			if base.GOMAXPROCS != cur.GOMAXPROCS {
				r.Regressed = false
				r.Skipped = fmt.Sprintf("cores differ (%d vs %d)", base.GOMAXPROCS, cur.GOMAXPROCS)
			}
			return r
		}
		rows = []diffRow{
			mk("q1-serial", base.Q1SerialNsOp, cur.Q1SerialNsOp),
			skipParallel(mk("q1-parallel", base.Q1ParNsOp, cur.Q1ParNsOp)),
			mk("q3-serial", base.Q3SerialNsOp, cur.Q3SerialNsOp),
			skipParallel(mk("q3-parallel", base.Q3ParNsOp, cur.Q3ParNsOp)),
			mk("q6-serial", base.Q6SerialNsOp, cur.Q6SerialNsOp),
			skipParallel(mk("q6-parallel", base.Q6ParNsOp, cur.Q6ParNsOp)),
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
		fmt.Fprintf(&sb, "| %s | %s | %d | %d | %+.1f%% | %s |\n",
			r.Bench, r.Metric, r.BaseNs, r.CurNs, (r.Ratio-1)*100, status)
	}
	return sb.String()
}
