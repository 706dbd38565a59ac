package advm_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/advm"
)

// joinFixture builds a fact table (fk ∈ [0, dimDomain·2): half the probes
// miss), a dimension table keyed 0..dimDomain-1 with an i64 and a str
// payload, and the join→aggregate→topk plan over them.
type joinFixture struct {
	fact, dim *advm.Table
}

func newJoinFixture(rows, dimDomain int, seed int64) *joinFixture {
	rng := rand.New(rand.NewSource(seed))
	fact := advm.NewTable(advm.NewSchema("fk", advm.I64, "val", advm.I64, "f", advm.F64))
	for i := 0; i < rows; i++ {
		fact.AppendRow(
			advm.I64Value(rng.Int63n(int64(dimDomain*2))),
			advm.I64Value(rng.Int63n(1000)),
			advm.F64Value(rng.Float64()*100),
		)
	}
	dim := advm.NewTable(advm.NewSchema("dk", advm.I64, "weight", advm.I64, "name", advm.Str))
	for i := 0; i < dimDomain; i++ {
		dim.AppendRow(
			advm.I64Value(int64(i)),
			advm.I64Value(int64(i%7)),
			advm.StrValue(fmt.Sprintf("d%03d", i)),
		)
	}
	return &joinFixture{fact: fact, dim: dim}
}

// plan: filter fact → probe dim (carrying payloads) → compute → group by a
// dim payload with float sums → top-k. Exercises every new plan node.
func (fx *joinFixture) plan() *advm.Plan {
	build := advm.Scan(fx.dim, "dk", "weight", "name").
		Filter(`(\k -> k % 3 != 1)`, "dk")
	return advm.Scan(fx.fact, "fk", "val", "f").
		Filter(`(\v -> v < 900)`, "val").
		Join(build, "fk", "dk", "weight", "name").
		Compute("wf", `(\x w -> x * (1.0 + w))`, advm.F64, "f", "weight").
		Aggregate([]string{"weight"},
			advm.Agg{Func: advm.AggSum, Col: "wf", As: "sum_wf"},
			advm.Agg{Func: advm.AggFirst, Col: "name", As: "first_name"},
			advm.Agg{Func: advm.AggCount, As: "n"}).
		TopK(4, advm.Order{Col: "sum_wf", Desc: true}, advm.Order{Col: "weight"})
}

func mustRowsEqualBitwise(t *testing.T, got, want [][]advm.Value, label string) {
	t.Helper()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%s: %d rows vs %d baseline (baseline must be non-empty)", label, len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			w, g := want[i][c], got[i][c]
			if w.Kind == advm.F64 {
				if math.Float64bits(w.F) != math.Float64bits(g.F) {
					t.Fatalf("%s: row %d col %d = %v, want %v (must be bit-identical)", label, i, c, g.F, w.F)
				}
			} else if !g.Equal(w) {
				t.Fatalf("%s: row %d col %d = %v, want %v", label, i, c, g, w)
			}
		}
	}
}

// TestJoinAggTopKParallelByteIdentical: the full join→aggregate→topk plan
// must produce byte-identical results at WithParallelism(1..8).
func TestJoinAggTopKParallelByteIdentical(t *testing.T) {
	fx := newJoinFixture(60_000, 1000, 17)
	eng := hotEngine(t, advm.WithParallelism(8))
	defer eng.Close()
	serial, err := eng.Session(advm.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	want := collectRows(t, serial, fx.plan())
	for workers := 2; workers <= 8; workers++ {
		sess, err := eng.Session(advm.WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		got := collectRows(t, sess, fx.plan())
		mustRowsEqualBitwise(t, got, want, fmt.Sprintf("workers=%d", workers))
	}
	if use := eng.Stats().PoolInUse; use != 0 {
		t.Fatalf("workers leaked: PoolInUse = %d", use)
	}
}

// TestJoinStreamParallelByteIdentical: a plan that RETURNS join rows (no
// aggregation above) fans the probe out through the exchange and must stream
// the serial row order.
func TestJoinStreamParallelByteIdentical(t *testing.T) {
	fx := newJoinFixture(40_000, 500, 19)
	plan := func() *advm.Plan {
		return advm.Scan(fx.fact, "fk", "f").
			Join(advm.Scan(fx.dim, "dk", "weight"), "fk", "dk", "weight")
	}
	eng := hotEngine(t, advm.WithParallelism(4))
	defer eng.Close()
	serial, err := eng.Session(advm.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := eng.Session(advm.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	want := collectRows(t, serial, plan())
	got := collectRows(t, parallel, plan())
	mustRowsEqualBitwise(t, got, want, "streamed join")
}

// TestJoinEmptyBuildSide: a build side whose filter selects nothing yields
// zero rows on both serial and parallel paths.
func TestJoinEmptyBuildSide(t *testing.T) {
	fx := newJoinFixture(20_000, 200, 23)
	plan := func() *advm.Plan {
		build := advm.Scan(fx.dim, "dk", "weight").Filter(`(\k -> k < 0)`, "dk")
		return advm.Scan(fx.fact, "fk", "f").
			Join(build, "fk", "dk", "weight").
			Aggregate(nil, advm.Agg{Func: advm.AggCount, As: "n"})
	}
	for _, workers := range []int{1, 4} {
		sess, err := advm.NewSession(advm.WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sess.Query(context.Background(), plan())
		if err != nil {
			t.Fatal(err)
		}
		n, err := rows.Count()
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("workers=%d: %d result groups over an empty join, want 0", workers, n)
		}
		sess.Close()
	}
}

// TestJoinAllProbeRowsFiltered: a probe side filtered to nothing must yield
// an empty join on both paths.
func TestJoinAllProbeRowsFiltered(t *testing.T) {
	fx := newJoinFixture(20_000, 200, 29)
	plan := func() *advm.Plan {
		return advm.Scan(fx.fact, "fk", "val").
			Filter(`(\v -> v < 0)`, "val").
			Join(advm.Scan(fx.dim, "dk", "weight"), "fk", "dk", "weight")
	}
	for _, workers := range []int{1, 4} {
		sess, err := advm.NewSession(advm.WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sess.Query(context.Background(), plan())
		if err != nil {
			t.Fatal(err)
		}
		n, err := rows.Count()
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("workers=%d: %d join rows from an empty probe, want 0", workers, n)
		}
		sess.Close()
	}
}

// TestWorkStealingUnderSkew: a plan whose per-morsel cost is wildly skewed —
// every row that survives the filter (and therefore feeds the compute chain)
// lives in the first eighth of the table, inside worker 0's initial range —
// must (a) trigger the work-stealing scheduler, observable through
// Rows.Steals and Stats.MorselSteals, and (b) still produce results
// byte-identical to serial execution at the same morsel length: stealing
// moves whole morsels between workers, and per-morsel aggregation tables are
// merged in morsel sequence order regardless of who ran them.
func TestWorkStealingUnderSkew(t *testing.T) {
	const rows = 1 << 18
	hot := make([]int64, rows)
	vs := make([]float64, rows)
	for i := range hot {
		if i < rows/8 {
			hot[i] = 1
		}
		vs[i] = float64(i%1000) * 0.125
	}
	table := advm.NewTable(advm.NewSchema("hot", advm.I64, "v", advm.F64))
	c := &advm.Chunk{}
	c.Add("hot", advm.FromI64(hot))
	c.Add("v", advm.FromF64(vs))
	table.AppendChunk(c)

	// Stack several computes on top of the filter: with adaptive evaluation
	// the selected rows are condensed first, so morsels outside the hot
	// region cost almost nothing while hot morsels pay the full chain.
	plan := advm.Scan(table, "hot", "v").
		Filter(`(\h -> h == 1)`, "hot").
		Compute("a", `(\v -> v * 1.0001 + 0.5)`, advm.F64, "v").
		Compute("b", `(\a v -> a * v + a)`, advm.F64, "a", "v").
		Compute("d", `(\b a -> b * 0.5 + a * a)`, advm.F64, "b", "a").
		Aggregate(nil,
			advm.Agg{Func: advm.AggSum, Col: "d", As: "sum_d"},
			advm.Agg{Func: advm.AggCount, As: "n"})

	serial, err := advm.NewSession(advm.WithParallelism(1), advm.WithMorselLen(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	want := collectRows(t, serial, plan)
	if serial.Stats().MorselSteals != 0 {
		t.Fatalf("serial session recorded %d steals", serial.Stats().MorselSteals)
	}

	sess, err := advm.NewSession(advm.WithParallelism(4), advm.WithMorselLen(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rs, err := sess.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]advm.Value
	for rs.Next() {
		row := make([]advm.Value, len(rs.Columns()))
		dests := make([]any, len(row))
		for i := range row {
			dests[i] = &row[i]
		}
		if err := rs.Scan(dests...); err != nil {
			t.Fatal(err)
		}
		got = append(got, row)
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	mustRowsEqualBitwise(t, got, want, "skewed aggregation")
	if rs.Steals() == 0 {
		t.Fatal("skewed load triggered no morsel steals")
	}
	if st := sess.Stats().MorselSteals; st != rs.Steals() {
		t.Fatalf("Stats.MorselSteals = %d, Rows.Steals = %d", st, rs.Steals())
	}
}

// TestPlanValidationErrors: wiring mistakes in the new nodes classify under
// ErrBind at Query time.
func TestPlanValidationErrors(t *testing.T) {
	fx := newJoinFixture(100, 10, 31)
	sess, err := advm.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	cases := map[string]*advm.Plan{
		"topk unknown column": advm.Scan(fx.fact).TopK(3, advm.Order{Col: "nope"}),
		"topk k=0":            advm.Scan(fx.fact).TopK(0, advm.Order{Col: "val"}),
		"join bad probe key": advm.Scan(fx.fact, "f").
			Join(advm.Scan(fx.dim, "dk"), "f", "dk"),
		"join missing payload": advm.Scan(fx.fact, "fk").
			Join(advm.Scan(fx.dim, "dk"), "fk", "dk", "nope"),
		"agg 3 keys": advm.Scan(fx.fact).
			Aggregate([]string{"fk", "val", "f"}, advm.Agg{Func: advm.AggCount, As: "n"}),
	}
	for name, plan := range cases {
		if _, err := sess.Query(context.Background(), plan); !errors.Is(err, advm.ErrBind) {
			t.Fatalf("%s: err = %v, want ErrBind", name, err)
		}
	}
}

// TestUnknownEvalModeRejected: a filter or compute whose evaluation flavor
// is none of the EvalMode constants fails under ErrBind before it counts
// toward a tier, at every tier, on the probe and the build side alike, and
// the mode prints as EvalMode(n) instead of panicking.
func TestUnknownEvalModeRejected(t *testing.T) {
	fx := newJoinFixture(100, 10, 31)
	for _, m := range []advm.EvalMode{advm.EvalMode(7), advm.EvalMode(-1)} {
		if got, want := m.String(), fmt.Sprintf("EvalMode(%d)", int(m)); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		cases := map[string]*advm.Plan{
			"filter":  advm.Scan(fx.fact, "fk", "val").FilterMode(m, `(\v -> v > 1)`, "val"),
			"compute": advm.Scan(fx.fact, "fk", "val").ComputeMode(m, "y", `(\k -> k + 1)`, advm.I64, "fk"),
			"build side": advm.Scan(fx.fact, "fk").Join(
				advm.Scan(fx.dim, "dk").FilterMode(m, `(\k -> k < 5)`, "dk"), "fk", "dk"),
		}
		for _, opts := range [][]advm.Option{nil, {advm.WithTierThresholds(1, 1)}} {
			sess, err := advm.NewSession(opts...)
			if err != nil {
				t.Fatal(err)
			}
			for name, plan := range cases {
				if _, err := sess.Query(context.Background(), plan); !errors.Is(err, advm.ErrBind) {
					t.Fatalf("%v %s: err = %v, want ErrBind", m, name, err)
				}
			}
			if tiers := sess.Engine().Stats().Tiers; len(tiers) != 0 {
				t.Fatalf("%v: rejected plans were counted toward tiers: %+v", m, tiers)
			}
			sess.Close()
		}
	}
	for m, want := range map[advm.EvalMode]string{advm.EvalAdaptive: "adaptive", advm.EvalFull: "full", advm.EvalSelective: "selective"} {
		if got := m.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

// TestParallelGlobalCountOnly is the regression test for a pure COUNT(*)
// under morsel-parallel aggregation: with no key columns and no aggregate
// inputs, the parallel fold's bucket projection carried zero columns, so
// every bucket chunk had length zero and the count silently came out empty
// (serial execution returned the row). Parallel and serial must agree.
func TestParallelGlobalCountOnly(t *testing.T) {
	table := advm.NewTable(advm.NewSchema("k", advm.I64))
	const rows = 1 << 18
	ks := make([]int64, rows)
	for i := range ks {
		ks[i] = int64(i % 97)
	}
	c := &advm.Chunk{}
	c.Add("k", advm.FromI64(ks))
	table.AppendChunk(c)

	plan := advm.Scan(table).
		Filter(`(\k -> k < 90)`, "k").
		Aggregate(nil, advm.Agg{Func: advm.AggCount, As: "n"})
	var want int64
	for _, workers := range []int{1, 4} {
		sess, err := advm.NewSession(advm.WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := sess.Query(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		var got int64
		emitted := 0
		for rs.Next() {
			if err := rs.Scan(&got); err != nil {
				t.Fatal(err)
			}
			emitted++
		}
		if err := rs.Err(); err != nil {
			t.Fatal(err)
		}
		sess.Close()
		if emitted != 1 {
			t.Fatalf("workers=%d emitted %d rows, want 1", workers, emitted)
		}
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d count=%d, serial=%d", workers, got, want)
		}
	}
}
