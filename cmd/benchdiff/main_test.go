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

// mustDiff is diffRecords at the default 25% threshold for a pair the test
// expects to be comparable.
func mustDiff(t *testing.T, base, cur benchRecord) []diffRow {
	t.Helper()
	rows, err := diffRecords(base, cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	return rows
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

// slower multiplies every ns/op leg of a multicore record by f.
func slower(r benchRecord, f int64) benchRecord {
	r.Q1SerialNsOp *= f
	r.Q1ParNsOp *= f
	r.Q3SerialNsOp *= f
	r.Q3ParNsOp *= f
	r.Q6SerialNsOp *= f
	r.Q6ParNsOp *= f
	return r
}

func TestDiffDirsGate(t *testing.T) {
	base := t.TempDir()
	cur := t.TempDir()
	writeRecord(t, base, "BENCH_multicore.json", multicoreBase())
	// q1 serial within the gate (+10%), q3 serial regressed 50%.
	mc := multicoreBase()
	mc.Q1SerialNsOp = 4400
	mc.Q3SerialNsOp = 4500
	writeRecord(t, cur, "BENCH_multicore.json", mc)

	rows, err := diffDirs(base, cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	regressed := map[string]bool{}
	for _, r := range rows {
		if r.Regressed {
			regressed[r.Bench+"/"+r.Metric] = true
		}
	}
	if len(regressed) != 1 || !regressed["multicore/q3-serial"] {
		t.Fatalf("regressions = %v, want only multicore/q3-serial", regressed)
	}
	table := renderTable(rows, 0.25)
	if !strings.Contains(table, "REGRESSED") || !strings.Contains(table, "| multicore | q1-serial |") {
		t.Fatalf("table missing expected content:\n%s", table)
	}
}

func TestDiffDirsMissingCurrent(t *testing.T) {
	base := t.TempDir()
	writeRecord(t, base, "BENCH_multicore.json", multicoreBase())
	if _, err := diffDirs(base, t.TempDir(), 0.25); err == nil {
		t.Fatal("missing current record accepted")
	}
}

// TestDiffRecordsCalibrationNormalized: a 2× slower host (calib_ns doubled)
// with 2× slower queries is no regression; the same slowdown without the
// calibration excuse is.
func TestDiffRecordsCalibrationNormalized(t *testing.T) {
	base := multicoreBase()
	slowHost := slower(multicoreBase(), 2)
	slowHost.CalibNs = 200
	for _, r := range mustDiff(t, base, slowHost) {
		if r.IsSpeedup {
			continue
		}
		if !r.Normalized || r.Regressed {
			t.Fatalf("slow-host row regressed despite calibration: %+v", r)
		}
	}
	realRegression := slower(multicoreBase(), 2)
	for _, r := range mustDiff(t, base, realRegression) {
		if !r.IsSpeedup && !r.Regressed {
			t.Fatalf("same-speed host 2x slowdown not flagged: %+v", r)
		}
	}
}

// TestDiffRecordsSkipsParallelOnCoreMismatch: a parallel measurement from a
// host with a different core count is not comparable — gate serial only.
func TestDiffRecordsSkipsParallelOnCoreMismatch(t *testing.T) {
	base := multicoreBase()
	base.GOMAXPROCS = 1
	cur := multicoreBase()
	cur.Q1ParNsOp = 10000
	byMetric := map[string]diffRow{}
	for _, r := range mustDiff(t, base, cur) {
		byMetric[r.Metric] = r
	}
	if byMetric["q1-serial"].Skipped != "" || byMetric["q1-parallel"].Skipped == "" {
		t.Fatalf("want only the parallel leg skipped: %+v", byMetric)
	}
	if r := byMetric["q1-parallel"]; r.Regressed {
		t.Fatalf("cross-core parallel leg must not gate: %+v", r)
	}
}

// TestDiffDirsExtraCurrentFails: a fresh record without a checked-in
// baseline must fail the gate instead of silently going ungated.
func TestDiffDirsExtraCurrentFails(t *testing.T) {
	base := t.TempDir()
	cur := t.TempDir()
	writeRecord(t, base, "BENCH_multicore.json", multicoreBase())
	writeRecord(t, cur, "BENCH_multicore.json", multicoreBase())
	writeRecord(t, cur, "BENCH_extra.json", multicoreBase())
	if _, err := diffDirs(base, cur, 0.25); err == nil {
		t.Fatal("current record without baseline accepted")
	}
}

func TestDiffDirsNonIdenticalFails(t *testing.T) {
	base := t.TempDir()
	cur := t.TempDir()
	writeRecord(t, base, "BENCH_multicore.json", multicoreBase())
	diverged := multicoreBase()
	diverged.Identical = false
	writeRecord(t, cur, "BENCH_multicore.json", diverged)
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

// TestDiffDirsUnknownRecordFails: a record that is not multicore is an error
// naming its file — not rows that can never regress.
func TestDiffDirsUnknownRecordFails(t *testing.T) {
	base := t.TempDir()
	cur := t.TempDir()
	bogus := []byte(`{"benchmark":"bogus","identical":true}`)
	for _, dir := range []string{base, cur} {
		if err := os.WriteFile(filepath.Join(dir, "BENCH_bogus.json"), bogus, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := diffDirs(base, cur, 0.25)
	if err == nil || !strings.Contains(err.Error(), "BENCH_bogus.json") {
		t.Fatalf("unknown record: err = %v, want an error naming BENCH_bogus.json", err)
	}

	// Records of different kinds under one name do not compare.
	other := multicoreBase()
	other.Benchmark = "bogus"
	if _, err := diffRecords(multicoreBase(), other, 0.25); err == nil {
		t.Fatal("multicore baseline compared with a bogus record")
	}
}

// TestCheckedInBaselineHoldsOnlyTheGates: bench/baseline holds exactly the
// multicore record, and it gates clean against itself, so a retired record
// cannot linger there.
func TestCheckedInBaselineHoldsOnlyTheGates(t *testing.T) {
	dir := filepath.Join("..", "..", "bench", "baseline")
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range paths {
		rec, err := loadRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := "BENCH_" + rec.Benchmark + ".json"; filepath.Base(p) != want {
			t.Fatalf("%s holds a %q record", p, rec.Benchmark)
		}
		names = append(names, rec.Benchmark)
	}
	if strings.Join(names, ",") != "multicore" {
		t.Fatalf("checked-in baselines = %v, want [multicore]", names)
	}
	rows, err := diffDirs(dir, dir, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if counts, _ := summarize(rows); counts.Regressed != 0 {
		t.Fatalf("baseline regresses against itself: %+v", counts)
	}
}

// TestDiffRecordsMulticoreFlavor: multicore records gate the serial legs
// (calibration-normalized) and the speedups against an absolute floor.
func TestDiffRecordsMulticoreFlavor(t *testing.T) {
	base := multicoreBase()
	cur := multicoreBase()
	cur.Q3Speedup = 0.6 // parallel Q3 barely above half of serial — below 0.75 floor
	rows := mustDiff(t, base, cur)
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
	rows := mustDiff(t, base, cur)
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
	for _, r := range mustDiff(t, base, cur) {
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
	rows := mustDiff(t, base, cur)
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
	rows := mustDiff(t, base, cur)
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
	rows := mustDiff(t, base, cur)
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
	if n := len(mustDiff(t, base, cur)); n != 9 {
		t.Fatalf("rows without hc leg = %d, want 9", n)
	}
	base.HCSerialNsOp, base.HCParNsOp, base.HCSpeedup = 5000, 2500, 2.0
	cur.HCSerialNsOp, cur.HCParNsOp, cur.HCSpeedup = 5000, 10000, 0.5
	rows := mustDiff(t, base, cur)
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
	rows := mustDiff(t, base, cur)
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
	counts, lines = summarize(mustDiff(t, multicoreBase(), multicoreBase()))
	if counts.Skipped != 0 || len(lines) != 0 {
		t.Fatalf("healthy run reports skips: %+v %v", counts, lines)
	}
}
