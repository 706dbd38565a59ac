package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeRecord(t *testing.T, dir, name string, rec benchRecord) {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDiffDirsGate(t *testing.T) {
	base := t.TempDir()
	cur := t.TempDir()
	writeRecord(t, base, "BENCH_q1.json", benchRecord{
		Benchmark: "q1", Workers: 4, SerialNsOp: 1000, Parallel4NsOp: 400, Identical: true,
	})
	writeRecord(t, base, "BENCH_q3.json", benchRecord{
		Benchmark: "q3", Workers: 4, SerialNsOp: 2000, Parallel4NsOp: 800, Identical: true,
	})
	// q1 within threshold, q3 serial regressed 50%.
	writeRecord(t, cur, "BENCH_q1.json", benchRecord{
		Benchmark: "q1", Workers: 4, SerialNsOp: 1200, Parallel4NsOp: 380, Identical: true,
	})
	writeRecord(t, cur, "BENCH_q3.json", benchRecord{
		Benchmark: "q3", Workers: 4, SerialNsOp: 3000, Parallel4NsOp: 900, Identical: true,
	})

	rows, err := diffDirs(base, cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	regressed := map[string]bool{}
	for _, r := range rows {
		if r.Regressed {
			regressed[r.Bench+"/"+r.Metric] = true
		}
	}
	if len(regressed) != 1 || !regressed["q3/serial"] {
		t.Fatalf("regressions = %v, want only q3/serial", regressed)
	}
	table := renderTable(rows, 0.25)
	if !strings.Contains(table, "REGRESSED") || !strings.Contains(table, "| q1 | serial |") {
		t.Fatalf("table missing expected content:\n%s", table)
	}
}

func TestDiffDirsMissingCurrent(t *testing.T) {
	base := t.TempDir()
	writeRecord(t, base, "BENCH_q6.json", benchRecord{Benchmark: "q6", Workers: 4, SerialNsOp: 10, Parallel4NsOp: 10, Identical: true})
	if _, err := diffDirs(base, t.TempDir(), 0.25); err == nil {
		t.Fatal("missing current record accepted")
	}
}

// TestDiffRecordsCalibrationNormalized: a 2× slower host (calib_ns doubled)
// with 2× slower queries is no regression; the same slowdown without the
// calibration excuse is.
func TestDiffRecordsCalibrationNormalized(t *testing.T) {
	base := benchRecord{Benchmark: "q1", Workers: 4, SerialNsOp: 1000, Parallel4NsOp: 500, Identical: true, CalibNs: 100}
	slowHost := benchRecord{Benchmark: "q1", Workers: 4, SerialNsOp: 2000, Parallel4NsOp: 1000, Identical: true, CalibNs: 200}
	for _, r := range diffRecords(base, slowHost, 0.25) {
		if !r.Normalized || r.Regressed {
			t.Fatalf("slow-host row regressed despite calibration: %+v", r)
		}
	}
	realRegression := benchRecord{Benchmark: "q1", Workers: 4, SerialNsOp: 2000, Parallel4NsOp: 1000, Identical: true, CalibNs: 100}
	rows := diffRecords(base, realRegression, 0.25)
	if !rows[0].Regressed || !rows[1].Regressed {
		t.Fatalf("same-speed host 2x slowdown not flagged: %+v", rows)
	}
}

// TestDiffRecordsSkipsParallelOnCoreMismatch: a parallel measurement from a
// host with a different core count is not comparable — gate serial only.
func TestDiffRecordsSkipsParallelOnCoreMismatch(t *testing.T) {
	base := benchRecord{Benchmark: "q1", Workers: 4, SerialNsOp: 1000, Parallel4NsOp: 1500, Identical: true, GOMAXPROCS: 1}
	cur := benchRecord{Benchmark: "q1", Workers: 4, SerialNsOp: 1000, Parallel4NsOp: 5000, Identical: true, GOMAXPROCS: 4}
	rows := diffRecords(base, cur, 0.25)
	if rows[0].Skipped != "" || rows[1].Skipped == "" {
		t.Fatalf("want only the parallel leg skipped: %+v", rows)
	}
	if rows[1].Regressed {
		t.Fatalf("cross-core parallel leg must not gate: %+v", rows[1])
	}
}

// TestDiffDirsExtraCurrentFails: a fresh record without a checked-in
// baseline must fail the gate instead of silently going ungated.
func TestDiffDirsExtraCurrentFails(t *testing.T) {
	base := t.TempDir()
	cur := t.TempDir()
	rec := benchRecord{Benchmark: "q1", Workers: 4, SerialNsOp: 100, Parallel4NsOp: 50, Identical: true}
	writeRecord(t, base, "BENCH_q1.json", rec)
	writeRecord(t, cur, "BENCH_q1.json", rec)
	writeRecord(t, cur, "BENCH_q4.json", benchRecord{Benchmark: "q4", Workers: 4, SerialNsOp: 9, Parallel4NsOp: 9, Identical: true})
	if _, err := diffDirs(base, cur, 0.25); err == nil {
		t.Fatal("current record without baseline accepted")
	}
}

func TestDiffDirsNonIdenticalFails(t *testing.T) {
	base := t.TempDir()
	cur := t.TempDir()
	writeRecord(t, base, "BENCH_q1.json", benchRecord{Benchmark: "q1", Workers: 4, SerialNsOp: 100, Parallel4NsOp: 50, Identical: true})
	writeRecord(t, cur, "BENCH_q1.json", benchRecord{Benchmark: "q1", Workers: 4, SerialNsOp: 100, Parallel4NsOp: 50, Identical: false})
	rows, err := diffDirs(base, cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rows {
		if r.NotReproducing {
			found = true
		}
	}
	if !found {
		t.Fatal("non-identical current record not flagged")
	}
}

// TestDiffRecordsDeviceFlavor: BENCH_device.json records gate the CPU-only
// and adaptive legs instead of serial/parallel, and both legs skip on a
// core-count mismatch (they are parallel measurements).
func TestDiffRecordsDeviceFlavor(t *testing.T) {
	base := benchRecord{
		Benchmark: "device_q6", Workers: 4, GOMAXPROCS: 8, Identical: true,
		CPUNsOp: 1000, AdaptiveNsOp: 1100, CalibNs: 100,
	}
	cur := base
	cur.AdaptiveNsOp = 1500 // adaptive leg regressed ~36%
	rows := diffRecords(base, cur, 0.25)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	byMetric := map[string]diffRow{}
	for _, r := range rows {
		byMetric[r.Metric] = r
	}
	if r := byMetric["cpu-only"]; r.Regressed {
		t.Fatalf("cpu-only leg wrongly regressed: %+v", r)
	}
	if r := byMetric["adaptive"]; !r.Regressed {
		t.Fatalf("adaptive leg not flagged: %+v", r)
	}

	cur.GOMAXPROCS = 2
	for _, r := range diffRecords(base, cur, 0.25) {
		if r.Regressed || r.Skipped == "" {
			t.Fatalf("device leg should skip on core mismatch: %+v", r)
		}
	}
}

// multicoreBase is a healthy BENCH_multicore.json record from a 4-core host.
func multicoreBase() benchRecord {
	return benchRecord{
		Benchmark: "multicore", Workers: 4, GOMAXPROCS: 4, NumCPU: 4,
		Identical: true, CalibNs: 100,
		Q1SerialNsOp: 4000, Q1ParNsOp: 2000, Q1Speedup: 2.0,
		Q3SerialNsOp: 3000, Q3ParNsOp: 1500, Q3Speedup: 2.0,
		Q6SerialNsOp: 1000, Q6ParNsOp: 500, Q6Speedup: 2.0,
	}
}

// TestDiffRecordsMulticoreFlavor: multicore records gate the serial legs
// (calibration-normalized) and the speedups against an absolute floor.
func TestDiffRecordsMulticoreFlavor(t *testing.T) {
	base := multicoreBase()
	cur := multicoreBase()
	cur.Q3Speedup = 0.6 // parallel Q3 barely above half of serial — below 0.75 floor
	rows := diffRecords(base, cur, 0.25)
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	byMetric := map[string]diffRow{}
	for _, r := range rows {
		byMetric[r.Metric] = r
	}
	for _, m := range []string{"q1-speedup", "q6-speedup"} {
		if r := byMetric[m]; r.Regressed || r.Skipped != "" || !r.IsSpeedup {
			t.Fatalf("%s wrongly gated: %+v", m, r)
		}
	}
	if r := byMetric["q3-speedup"]; !r.Regressed {
		t.Fatalf("q3 speedup below floor not flagged: %+v", r)
	}
	for _, m := range []string{"q1-serial", "q3-serial", "q6-serial"} {
		if r := byMetric[m]; r.Regressed || !r.Normalized {
			t.Fatalf("%s: want calibration-normalized pass: %+v", m, r)
		}
	}
	table := renderTable(rows, 0.25)
	if !strings.Contains(table, "2.00x") || !strings.Contains(table, "floor 0.75x") {
		t.Fatalf("table missing speedup rendering:\n%s", table)
	}
}

// TestDiffRecordsMulticoreSerialGated: a serial-leg regression in the
// multicore record fails like any serial measurement, host size regardless.
func TestDiffRecordsMulticoreSerialGated(t *testing.T) {
	base := multicoreBase()
	cur := multicoreBase()
	cur.Q1SerialNsOp = 8000 // 2× slower, same calib
	rows := diffRecords(base, cur, 0.25)
	found := false
	for _, r := range rows {
		if r.Metric == "q1-serial" && r.Regressed {
			found = true
		}
	}
	if !found {
		t.Fatalf("q1 serial regression not flagged: %+v", rows)
	}
}

// TestDiffRecordsMulticoreUndersubscribedSkips: a current record taken on a
// host with fewer CPUs than workers cannot exhibit speedup — the floor
// skips instead of failing, and the parallel ns/op legs skip on the
// GOMAXPROCS mismatch as usual.
func TestDiffRecordsMulticoreUndersubscribedSkips(t *testing.T) {
	base := multicoreBase()
	cur := multicoreBase()
	cur.GOMAXPROCS, cur.NumCPU = 1, 1
	cur.Q1Speedup, cur.Q3Speedup, cur.Q6Speedup = 0.7, 0.5, 0.8
	for _, r := range diffRecords(base, cur, 0.25) {
		if strings.HasSuffix(r.Metric, "-speedup") {
			if r.Regressed || r.Skipped == "" {
				t.Fatalf("undersubscribed speedup leg should skip: %+v", r)
			}
		}
		if strings.HasSuffix(r.Metric, "-parallel") && (r.Regressed || r.Skipped == "") {
			t.Fatalf("cross-core parallel leg should skip: %+v", r)
		}
	}
	// The floor keys on the current host only: a 1-CPU *baseline* must not
	// exempt a regression measured on a genuinely multi-core current host.
	base.GOMAXPROCS, base.NumCPU = 1, 1
	base.Q1Speedup = 0.7
	cur = multicoreBase()
	cur.Q1Speedup = 0.5
	rows := diffRecords(base, cur, 0.25)
	found := false
	for _, r := range rows {
		if r.Metric == "q1-speedup" && r.Regressed {
			found = true
		}
	}
	if !found {
		t.Fatalf("multi-core current speedup below floor not flagged despite 1-CPU baseline: %+v", rows)
	}
}

// TestDiffRecordsMulticoreNotReproducing: a multicore record reporting
// non-identical parallel results fails the gate.
func TestDiffRecordsMulticoreNotReproducing(t *testing.T) {
	base := multicoreBase()
	cur := multicoreBase()
	cur.Identical = false
	rows := diffRecords(base, cur, 0.25)
	if !rows[0].NotReproducing {
		t.Fatal("non-identical multicore record not flagged")
	}
}

// TestDiffRecordsMulticorePerQueryFloor: a baseline record carrying a
// per-query speedup floor overrides the default 1 − max-regress floor for
// that query only.
func TestDiffRecordsMulticorePerQueryFloor(t *testing.T) {
	base := multicoreBase()
	base.Q3SpeedupFloor = 1.0
	cur := multicoreBase()
	cur.Q3Speedup = 0.9 // clears the default 0.75 floor, not the raised 1.0
	cur.Q1Speedup = 0.9 // q1 keeps the default floor: must pass
	rows := diffRecords(base, cur, 0.25)
	byMetric := map[string]diffRow{}
	for _, r := range rows {
		byMetric[r.Metric] = r
	}
	if r := byMetric["q3-speedup"]; !r.Regressed || r.SpeedupFloor != 1.0 {
		t.Fatalf("q3 speedup below raised floor not flagged: %+v", r)
	}
	if r := byMetric["q1-speedup"]; r.Regressed || r.SpeedupFloor != 0.75 {
		t.Fatalf("q1 speedup wrongly gated against raised floor: %+v", r)
	}
}

// TestDiffRecordsMulticoreHCLeg: the high-cardinality grouped-agg leg is
// gated like the other multicore legs when present, and absent legs do not
// add rows (old baselines keep working).
func TestDiffRecordsMulticoreHCLeg(t *testing.T) {
	base := multicoreBase()
	cur := multicoreBase()
	if n := len(diffRecords(base, cur, 0.25)); n != 9 {
		t.Fatalf("rows without hc leg = %d, want 9", n)
	}
	base.HCSerialNsOp, base.HCParNsOp, base.HCSpeedup = 5000, 2500, 2.0
	cur.HCSerialNsOp, cur.HCParNsOp, cur.HCSpeedup = 5000, 10000, 0.5
	rows := diffRecords(base, cur, 0.25)
	if len(rows) != 12 {
		t.Fatalf("rows with hc leg = %d, want 12", len(rows))
	}
	found := false
	for _, r := range rows {
		if r.Metric == "hc-speedup" && r.Regressed && r.IsSpeedup {
			found = true
		}
	}
	if !found {
		t.Fatalf("hc speedup below floor not flagged: %+v", rows)
	}
}

// TestSummarizeSkipLines: skipped metrics produce an explicit SKIPPED line
// (with the num_cpu detail for undersubscribed hosts) and a nonzero skip
// counter, so CI history can tell "passed" from "didn't measure".
func TestSummarizeSkipLines(t *testing.T) {
	base := multicoreBase()
	cur := multicoreBase()
	cur.GOMAXPROCS, cur.NumCPU = 1, 1
	rows := diffRecords(base, cur, 0.25)
	counts, lines := summarize(rows)
	if counts.Skipped == 0 || counts.Regressed != 0 {
		t.Fatalf("counts = %+v, want skipped > 0 and no regressions", counts)
	}
	if counts.Gated+counts.Skipped != len(rows) {
		t.Fatalf("counts %+v don't partition %d rows", counts, len(rows))
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "SKIPPED (num_cpu=1 < required 4)") {
		t.Fatalf("missing explicit undersubscribed skip line:\n%s", joined)
	}
	if len(lines) != counts.Skipped {
		t.Fatalf("%d skip lines for %d skipped metrics", len(lines), counts.Skipped)
	}

	// A healthy same-host run skips nothing.
	counts, lines = summarize(diffRecords(multicoreBase(), multicoreBase(), 0.25))
	if counts.Skipped != 0 || len(lines) != 0 {
		t.Fatalf("healthy run reports skips: %+v %v", counts, lines)
	}
}

// TestDiffRecordsDeviceNotReproducing: a device record reporting
// non-identical results fails the gate.
func TestDiffRecordsDeviceNotReproducing(t *testing.T) {
	base := benchRecord{Benchmark: "device_q6", Workers: 4, Identical: true, CPUNsOp: 1000, AdaptiveNsOp: 1000}
	cur := base
	cur.Identical = false
	rows := diffRecords(base, cur, 0.25)
	if !rows[0].NotReproducing {
		t.Fatal("non-identical device record not flagged")
	}
}

// TestDiffRecordsTraceFlavor: trace records gate the tracing-off leg with
// the baseline's tighter trace_max_regress and leave the traced leg
// informational.
func TestDiffRecordsTraceFlavor(t *testing.T) {
	base := benchRecord{
		Benchmark: "trace", GOMAXPROCS: 1, Identical: true, CalibNs: 100,
		Q6TraceOffNsOp: 1000, TraceMaxRegress: 0.02,
	}
	cur := base
	cur.Q6TraceOffNsOp = 1010 // +1%: inside the 2% trace gate
	cur.Q6TraceOnNsOp = 1200
	rows := diffRecords(base, cur, 0.25)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	byMetric := map[string]diffRow{}
	for _, r := range rows {
		byMetric[r.Metric] = r
	}
	if r := byMetric["q6-trace-off"]; r.Regressed || r.Skipped != "" || !r.Normalized {
		t.Fatalf("in-threshold off leg wrongly gated: %+v", r)
	}
	if r := byMetric["q6-trace-morsels"]; r.Regressed || r.Skipped == "" {
		t.Fatalf("traced leg must stay informational: %+v", r)
	}

	// +5% on the off leg breaks the 2% trace gate even though the global
	// threshold is 25%.
	cur.Q6TraceOffNsOp = 1050
	rows = diffRecords(base, cur, 0.25)
	for _, r := range rows {
		if r.Metric == "q6-trace-off" && !r.Regressed {
			t.Fatalf("off leg beyond trace_max_regress not flagged: %+v", r)
		}
	}

	// Without a baseline trace_max_regress the global threshold applies.
	base.TraceMaxRegress = 0
	rows = diffRecords(base, cur, 0.25)
	for _, r := range rows {
		if r.Metric == "q6-trace-off" && r.Regressed {
			t.Fatalf("off leg within global threshold wrongly flagged: %+v", r)
		}
	}
}

func TestDiffRecordsJitcacheFlavor(t *testing.T) {
	base := benchRecord{
		Benchmark: "jitcache", GOMAXPROCS: 2, Identical: true, CalibNs: 100,
		ProgJITOffNsOp: 4700, ProgMissNsOp: 4700, ProgHitNsOp: 3600,
		Q6ColdJITOnNsOp: 2600, Q6ColdJITOffNsOp: 2300,
		HitVsJITOff: 1.3, HitVsJITOffFloor: 0.8,
	}
	cur := base
	rows := diffRecords(base, cur, 0.25)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Regressed || r.Skipped != "" {
			t.Fatalf("identical records wrongly gated: %+v", r)
		}
	}

	// The hit leg at 1.3× the JIT-off leg of the same record: every leg is
	// still within 25% of its baseline except the hit leg, and the ratio
	// falls through the 0.8 floor.
	cur.ProgHitNsOp = 6100
	cur.HitVsJITOff = 4700.0 / 6100
	byMetric := map[string]diffRow{}
	for _, r := range diffRecords(base, cur, 0.25) {
		byMetric[r.Metric] = r
	}
	if r := byMetric["hit-vs-jit-off"]; !r.Regressed || !r.IsSpeedup || r.SpeedupFloor != 0.8 {
		t.Fatalf("hit leg slower than 1.25× JIT-off not flagged: %+v", r)
	}
	if r := byMetric["prog-template-hit"]; !r.Regressed {
		t.Fatalf("hit leg +69%% over its baseline not flagged: %+v", r)
	}
	if r := byMetric["prog-jit-off"]; r.Regressed {
		t.Fatalf("unchanged leg flagged: %+v", r)
	}

	// A slow host moves every leg and the calibration together: nothing
	// regresses, and the ratio — taken within one record — does not move.
	slow := base
	slow.CalibNs = 200
	slow.ProgJITOffNsOp, slow.ProgMissNsOp, slow.ProgHitNsOp = 9400, 9400, 7200
	slow.Q6ColdJITOnNsOp, slow.Q6ColdJITOffNsOp = 5200, 4600
	for _, r := range diffRecords(base, slow, 0.25) {
		if r.Regressed {
			t.Fatalf("calibration-normalized slow host flagged: %+v", r)
		}
	}

	// Without a baseline floor the default 1 − max-regress applies.
	base.HitVsJITOffFloor = 0
	for _, r := range diffRecords(base, cur, 0.25) {
		if r.Metric == "hit-vs-jit-off" && (r.SpeedupFloor != 0.75 || r.Regressed) {
			t.Fatalf("default floor: %+v", r)
		}
	}
}
