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
		Benchmark: "multicore", GOMAXPROCS: 4, Identical: true,
		Q1SerialNsOp: 4000, Q1ParNsOp: 2000,
		Q3SerialNsOp: 3000, Q3ParNsOp: 1500,
		Q6SerialNsOp: 1000, Q6ParNsOp: 500,
	}
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
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
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

// TestDiffRecordsMulticoreFlavor: a multicore record yields one serial and
// one parallel row per query, each gated on its raw ns/op ratio.
func TestDiffRecordsMulticoreFlavor(t *testing.T) {
	base := multicoreBase()
	cur := multicoreBase()
	cur.Q3ParNsOp = 3000 // 2× slower parallel q3 on the same host
	rows := mustDiff(t, base, cur)
	var metrics []string
	for _, r := range rows {
		metrics = append(metrics, r.Metric)
		if r.Regressed != (r.Metric == "q3-parallel") {
			t.Fatalf("%s: regressed = %v: %+v", r.Metric, r.Regressed, r)
		}
	}
	if got := strings.Join(metrics, ","); got != "q1-serial,q1-parallel,q3-serial,q3-parallel,q6-serial,q6-parallel" {
		t.Fatalf("rows = %s", got)
	}
	table := renderTable(rows, 0.25)
	if !strings.Contains(table, "| multicore | q3-parallel | 1500 | 3000 | +100.0% | REGRESSED |") {
		t.Fatalf("table missing the regressed parallel leg:\n%s", table)
	}
}

// TestDiffRecordsMulticoreSerialGated: a serial-leg regression in the
// multicore record fails like any serial measurement, host size regardless.
func TestDiffRecordsMulticoreSerialGated(t *testing.T) {
	base := multicoreBase()
	cur := multicoreBase()
	cur.Q1SerialNsOp = 8000 // 2× slower
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

// TestSummarizeSkipLines: skipped metrics produce an explicit SKIPPED line
// naming the metric and the reason, and a nonzero skip counter, so CI
// history can tell "passed" from "didn't measure".
func TestSummarizeSkipLines(t *testing.T) {
	base := multicoreBase()
	cur := multicoreBase()
	cur.GOMAXPROCS = 1
	rows := mustDiff(t, base, cur)
	counts, lines := summarize(rows)
	if counts.Skipped == 0 || counts.Regressed != 0 {
		t.Fatalf("counts = %+v, want skipped > 0 and no regressions", counts)
	}
	if counts.Gated+counts.Skipped != len(rows) {
		t.Fatalf("counts %+v don't partition %d rows", counts, len(rows))
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "SKIPPED: multicore q1-parallel not gated — cores differ (4 vs 1)") {
		t.Fatalf("missing explicit cross-core skip line:\n%s", joined)
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
