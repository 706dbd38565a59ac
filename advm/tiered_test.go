package advm_test

import (
	"context"
	"fmt"
	"testing"

	"repro/advm"
	"repro/internal/tpch"
)

// TestTieredQueryTiersUp: repeated executions of one plan must climb the
// cold → warm → hot ladder, observable through Rows.Tier and the engine's
// tier counters, and the hot executions must mount fused loops.
func TestTieredQueryTiersUp(t *testing.T) {
	eng := hotEngine(t, advm.WithTierThresholds(2, 3))
	defer eng.Close()
	sess, err := eng.Session()
	if err != nil {
		t.Fatal(err)
	}
	st := tpch.GenLineitem(0.01, 42)
	plan := q6Plan(st)

	wantTiers := []string{"cold", "warm", "hot", "hot"}
	for i, want := range wantTiers {
		rows, err := sess.Query(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if got := rows.Tier(); got != want {
			t.Fatalf("execution %d ran at tier %q, want %q", i+1, got, want)
		}
		if wantFused := want == "hot"; rows.Fused() != wantFused {
			t.Fatalf("execution %d (tier %s): Fused() = %v, want %v", i+1, want, rows.Fused(), wantFused)
		}
		if _, err := rows.Count(); err != nil {
			t.Fatal(err)
		}
	}

	es := eng.Stats()
	if es.TierUps != 2 {
		t.Fatalf("TierUps = %d, want 2 (cold→warm and warm→hot)", es.TierUps)
	}
	if es.FusedCompiles != 1 {
		t.Fatalf("FusedCompiles = %d, want 1 (one segment, compiled once at warm)", es.FusedCompiles)
	}
	if es.FusedCacheHits < 2 {
		t.Fatalf("FusedCacheHits = %d, want ≥ 2 (hot executions reuse the cached program)", es.FusedCacheHits)
	}
	if es.FusedQueries != 2 {
		t.Fatalf("FusedQueries = %d, want 2", es.FusedQueries)
	}
	if len(es.Tiers) != 1 {
		t.Fatalf("Tiers = %+v, want exactly one fingerprint", es.Tiers)
	}
	ti := es.Tiers[0]
	if ti.Tier != "hot" || ti.Execs != 4 || ti.FusedRuns != 2 {
		t.Fatalf("tier info = %+v, want hot/4 execs/2 fused runs", ti)
	}

	if ss := sess.Stats(); ss.FusedQueries != 2 {
		t.Fatalf("session FusedQueries = %d, want 2", ss.FusedQueries)
	}
}

// TestTieredOffNeverFuses: WithTieredExecution(false) must keep every
// execution untiered — Rows.Tier empty, no fused telemetry.
func TestTieredOffNeverFuses(t *testing.T) {
	eng := hotEngine(t, advm.WithTieredExecution(false))
	defer eng.Close()
	sess, err := eng.Session()
	if err != nil {
		t.Fatal(err)
	}
	st := tpch.GenLineitem(0.01, 42)
	for i := 0; i < 10; i++ {
		rows, err := sess.Query(context.Background(), q6Plan(st))
		if err != nil {
			t.Fatal(err)
		}
		if rows.Tier() != "" || rows.Fused() {
			t.Fatalf("tiering off, got tier %q fused=%v", rows.Tier(), rows.Fused())
		}
		if _, err := rows.Count(); err != nil {
			t.Fatal(err)
		}
	}
	if es := eng.Stats(); es.TierUps != 0 || es.FusedQueries != 0 || len(es.Tiers) != 0 {
		t.Fatalf("tiering off leaked engine tier state: %+v", es)
	}
}

// TestForcedHotByteIdentical: with thresholds forced to 1, the very first
// execution runs fused — and its result must match interpreted execution
// value-for-value on Q1, Q6 and a join plan, serial and parallel.
func TestForcedHotByteIdentical(t *testing.T) {
	st := tpch.GenLineitem(0.01, 7)
	ord := tpch.GenOrders(0.01, 7)
	joinPlan := func() *advm.Plan {
		build := advm.Scan(ord, "o_orderkey", "o_orderdate").
			Filter(`(\d -> d < 2400)`, "o_orderdate")
		return advm.Scan(st, "l_orderkey", "l_extendedprice", "l_shipdate").
			Filter(`(\d -> d > 300)`, "l_shipdate").
			Join(build, "l_orderkey", "o_orderkey", "o_orderdate")
	}
	plans := map[string]func() *advm.Plan{
		"q1":   func() *advm.Plan { return q1Plan(st) },
		"q6":   func() *advm.Plan { return q6Plan(st) },
		"join": joinPlan,
	}

	ref, err := advm.NewSession(advm.WithTieredExecution(false))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	for _, par := range []int{1, 4} {
		hot, err := advm.NewSession(advm.WithTierThresholds(1, 1), advm.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		for name, mk := range plans {
			want := collectRows(t, ref, mk())
			rows, err := hot.Query(context.Background(), mk())
			if err != nil {
				t.Fatal(err)
			}
			if rows.Tier() != "hot" {
				t.Fatalf("%s par=%d: tier %q, want hot", name, par, rows.Tier())
			}
			rows.Close()
			got := collectRows(t, hot, mk())
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s par=%d: fused result differs from interpreted", name, par)
			}
		}
		hot.Close()
	}
}

// shiftTable builds a table whose selectivity shifts mid-stream: a long
// region where no row passes the filter, followed by a dense region where
// every row passes.
func shiftTable() *advm.Table {
	const low, high = 40960, 8192
	st := advm.NewTable(advm.NewSchema("v", advm.I64, "w", advm.I64))
	for i := 0; i < low; i++ {
		st.AppendRow(advm.I64Value(1_000_000+int64(i)), advm.I64Value(int64(i)))
	}
	for i := 0; i < high; i++ {
		st.AppendRow(advm.I64Value(int64(i%90)), advm.I64Value(int64(i)))
	}
	return st
}

func shiftPlan(st *advm.Table) *advm.Plan {
	return advm.Scan(st, "v", "w").
		Filter(`(\v -> v < 100)`, "v").
		Compute("y", `(\v w -> v + w * 3)`, advm.I64, "v", "w")
}

// TestFusedShiftingSelectivityByteIdentical: a fused loop over data whose
// selectivity shifts mid-stream produces the interpreter's bytes at every
// parallelism.
func TestFusedShiftingSelectivityByteIdentical(t *testing.T) {
	st := shiftTable()

	ref, err := advm.NewSession(advm.WithTieredExecution(false))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := collectRows(t, ref, shiftPlan(st))
	if len(want) == 0 {
		t.Fatal("shift table produced no matching rows")
	}

	for par := 1; par <= 8; par++ {
		sess, err := advm.NewSession(advm.WithTierThresholds(1, 1), advm.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sess.Query(context.Background(), shiftPlan(st))
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Fused() {
			t.Fatalf("par=%d: query did not mount fused loops", par)
		}
		got := collectAllRows(t, rows)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("par=%d: fused result differs from interpreted", par)
		}
		sess.Close()
	}
}

// collectAllRows drains an already-open cursor into scanned values.
func collectAllRows(t *testing.T, rows *advm.Rows) [][]advm.Value {
	t.Helper()
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
			t.Fatal(err)
		}
		out = append(out, row)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLiteralVariantsShareTierUp: hotness is counted per plan shape, so Q6
// plans that differ only in their constants climb one cold → warm → hot
// ladder together — the eighth variant runs fused at its first execution —
// while each variant compiles and runs its own program, byte-identical to
// untiered execution. A plan that differs in an operator, a column or a
// literal's kind is another shape with its own entry.
func TestLiteralVariantsShareTierUp(t *testing.T) {
	st := tpch.GenLineitem(0.01, 42)
	eng, err := advm.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sess, err := eng.Session()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := advm.NewSession(advm.WithTieredExecution(false))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	run := func(plan *advm.Plan) *advm.Rows {
		t.Helper()
		want := collectRows(t, ref, plan)
		rows, err := sess.Query(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		tier, fusedRun := rows.Tier(), rows.Fused()
		if got := collectAllRows(t, rows); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("tier %s: result %v differs from untiered %v", tier, got, want)
		}
		if fusedRun != (tier == "hot") {
			t.Fatalf("tier %s: Fused() = %v", tier, fusedRun)
		}
		return rows
	}

	bands := [][2]float64{{0.02, 0.04}, {0.03, 0.05}, {0.04, 0.06}, {0.05, 0.07}, {0.06, 0.08}}
	for i := 0; i < 10; i++ {
		lo := int64(100 + 170*i)
		p := tpch.Q6Params{ShipLo: lo, ShipHi: lo + int64(60+30*i), DiscLo: bands[i%5][0], DiscHi: bands[i%5][1], QtyMax: int64(20 + i)}
		want := "hot"
		switch n := i + 1; {
		case n < 4:
			want = "cold"
		case n < 8:
			want = "warm"
		}
		if got := run(tpch.PlanQ6(st, p)).Tier(); got != want {
			t.Fatalf("variant %d ran at tier %q, want %q", i+1, got, want)
		}
	}
	es := eng.Stats()
	if len(es.Tiers) != 1 || es.Tiers[0].Execs != 10 || es.Tiers[0].FusedRuns != 3 {
		t.Fatalf("Tiers = %+v, want one shape with 10 execs and 3 fused runs", es.Tiers)
	}
	if es.FusedCompiles != 7 {
		t.Fatalf("FusedCompiles = %d, want 7 (one program per variant from the warm threshold on)", es.FusedCompiles)
	}

	q6Like := func(qtyFilter, qtyCol string, discLo string) *advm.Plan {
		return advm.Scan(st, "l_quantity", "l_extendedprice", "l_discount", "l_shipdate").
			Filter(`(\d -> (d >= 730) && (d < 1095))`, "l_shipdate").
			Filter(`(\x -> (x >= `+discLo+`) && (x <= 0.07))`, "l_discount").
			Filter(qtyFilter, qtyCol).
			Compute("revenue", `(\p d -> p * d)`, advm.F64, "l_extendedprice", "l_discount").
			Aggregate(nil, advm.Agg{Func: advm.AggSum, Col: "revenue", As: "revenue"})
	}
	if got := run(q6Like(`(\q -> q < 24)`, "l_quantity", "0.05")).Tier(); got != "hot" {
		t.Fatalf("a Q6 spelled by hand ran at tier %q, want hot: it is the same shape", got)
	}
	others := map[string]*advm.Plan{
		"operator":     q6Like(`(\q -> q <= 24)`, "l_quantity", "0.05"),
		"column":       q6Like(`(\q -> q < 24)`, "l_shipdate", "0.05"),
		"literal kind": q6Like(`(\q -> q < 24)`, "l_quantity", "0"),
	}
	for name, plan := range others {
		if got := run(plan).Tier(); got != "cold" {
			t.Fatalf("%s variant ran at tier %q, want cold: it is another shape", name, got)
		}
	}
	if n := len(eng.Stats().Tiers); n != 1+len(others) {
		t.Fatalf("%d shapes, want %d", n, 1+len(others))
	}
}
