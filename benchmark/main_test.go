package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// BENCHMARK.json and the names the code emits must not drift apart: the
// file is exactly what spec.go says (go test -run TestBenchmarkJSON -update
// rewrites it).
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want, err := json.MarshalIndent(benchmarkContract(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from spec.go; run go test -run TestBenchmarkJSON -update\nfile:\n%s\nspec:\n%s", got, want)
	}
}

func TestContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	c := benchmarkContract()
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
	}
	for _, w := range c.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range c.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, m := range c.PerLayer {
		check(m.Name, m.Unit)
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(c.EndToEnd) > 16 || len(c.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(c.EndToEnd), len(c.PerLayer))
	}
	// 4 + 22 runs per workload, two builds, 3420 s in all.
	runs := 4 + 22*len(c.Workloads)
	perRun := float64(c.RunSeconds) + warmupTime.Seconds() + 6 // set-up rounds, cold passes, build check
	if total := float64(runs)*perRun + 2*120; total > 3420 {
		t.Errorf("%d runs of ~%.0fs and two builds need %.0fs", runs, perRun, total)
	}
}

func smokeConfig(t *testing.T, workload string, traced bool) *runConfig {
	return &runConfig{workload: workload, seed: 1, window: 600 * time.Millisecond, traced: traced,
		smoke: true, outDir: t.TempDir()}
}

// Every end-to-end metric is emitted, and is never 0, for every workload;
// every op's result agrees with its reference.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, err := runWorkload(smokeConfig(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d ops failed: %v", res.failed, res.attempted, res.firstErr)
			}
			for _, m := range endToEnd {
				if v, ok := res.metrics[m.Name]; !ok || v <= 0 {
					t.Errorf("%s = %v (emitted: %v)", m.Name, v, ok)
				}
			}
		})
	}
}

// -corrupt-ref: a perturbed reference must fail ops, on every workload — a
// wrong answer cannot produce a performance number.
func TestCorruptReferenceFails(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := smokeConfig(t, w, false)
			cfg.window = 200 * time.Millisecond
			cfg.corruptRef = true
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed == 0 {
				t.Fatalf("corrupted reference went unnoticed over %d ops", res.attempted)
			}
		})
	}
}

// The traced run emits every per-layer metric and writes a trace file in
// which every parent id resolves and no span has negative self time.
func TestSmokeTraced(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := smokeConfig(t, w, true)
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Fatalf("%d ops failed: %v", res.failed, res.firstErr)
			}
			for _, m := range perLayer {
				if _, ok := res.metrics[m.Name]; !ok {
					t.Errorf("%s not emitted", m.Name)
				}
			}
			for name := range res.metrics {
				if !isSpecName(name) {
					t.Errorf("metric %q is emitted but not in spec.go", name)
				}
			}
			checkTraceFile(t, filepath.Join(cfg.outDir, "trace-"+w+".json"))
		})
	}
}

func isSpecName(name string) bool {
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if m.Name == name {
			return true
		}
	}
	return false
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Args struct {
				ID     int32    `json:"id"`
				Parent int32    `json:"parent"`
				SelfUS *float64 `json:"self_us"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	ids := map[int32]bool{}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			ids[ev.Args.ID] = true
			spans++
		}
	}
	if spans == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Ts == nil || ev.Dur == nil || *ev.Ts < 0 || *ev.Dur < 0 {
			t.Fatalf("%s: span %q has bad ts/dur", path, ev.Name)
		}
		if ev.Args.Parent != 0 && !ids[ev.Args.Parent] {
			t.Fatalf("%s: span %q: parent %d does not resolve", path, ev.Name, ev.Args.Parent)
		}
		if ev.Args.SelfUS == nil || *ev.Args.SelfUS < 0 {
			t.Fatalf("%s: span %q has negative or missing self time", path, ev.Name)
		}
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps span 2: [10,60) is covered once
		{ID: 4, Parent: 3, Start: 35, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{1: 50, 2: 30, 3: 20, 4: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}
