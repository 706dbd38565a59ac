package tpch

import (
	"math"
	"os"
	"testing"

	"repro/advm"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/vector"
)

func TestGeneratorDistributions(t *testing.T) {
	st := GenLineitem(0.002, 1)
	n := st.Rows()
	sf := 0.002
	if n != int(sf*LineitemRows) {
		t.Fatalf("rows = %d", n)
	}
	qty := st.Col(ColQuantity).I64()
	ship := st.Col(ColShipdate).I64()
	disc := st.Col(ColDiscount).F64()
	var q1Pass int
	for i := 0; i < n; i++ {
		if qty[i] < 1 || qty[i] > 50 {
			t.Fatalf("quantity out of range: %d", qty[i])
		}
		if disc[i] < 0 || disc[i] > 0.10 {
			t.Fatalf("discount out of range: %v", disc[i])
		}
		if ship[i] <= Q1Cutoff {
			q1Pass++
		}
	}
	sel := float64(q1Pass) / float64(n)
	if sel < 0.93 || sel > 0.99 {
		t.Fatalf("Q1 predicate selectivity = %v, want ≈0.96", sel)
	}
}

// strategySessions are the execution strategies PlanQ1 and PlanQ6 must
// agree under: vectorized interpretation only (no JIT traces, no fused
// tier), and the default adaptive VM.
func strategySessions(t *testing.T) map[string]*advm.Session {
	t.Helper()
	out := map[string]*advm.Session{}
	for name, opts := range map[string][]advm.Option{
		"vectorized": {advm.WithJIT(false), advm.WithTieredExecution(false)},
		"adaptive":   nil,
	} {
		sess, err := advm.NewSession(opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		out[name] = sess
	}
	return out
}

// strategyRuns runs each plan often enough to pass the default tier
// thresholds, so the adaptive session answers cold, compiled and fused.
const strategyRuns = 10

func TestQ1StrategiesAgree(t *testing.T) {
	st := GenLineitem(0.002, 42)
	hyper := Q1HyPer(st, Q1Cutoff)
	if len(hyper) != 4 {
		t.Fatalf("Q1 groups = %d, want 4", len(hyper))
	}
	for name, sess := range strategySessions(t) {
		for run := 0; run < strategyRuns; run++ {
			got, err := QueryQ1(t.Context(), sess, st)
			if err != nil {
				t.Fatal(err)
			}
			if err := hyper.Equal(got, 1e-9); err != nil {
				t.Fatalf("%s run %d differs from tuple-at-a-time: %v", name, run, err)
			}
		}
	}
}

func TestQ6StrategiesAgree(t *testing.T) {
	st := GenLineitem(0.002, 11)
	p := DefaultQ6Params()
	want := Q6HyPer(st, p.ShipLo, p.ShipHi, p.DiscLo, p.DiscHi, p.QtyMax)
	if want == 0 {
		t.Fatal("Q6 revenue must be non-zero on generated data")
	}
	for name, sess := range strategySessions(t) {
		for run := 0; run < strategyRuns; run++ {
			rows, err := sess.Query(t.Context(), PlanQ6(st, p))
			if err != nil {
				t.Fatal(err)
			}
			var got float64
			if !rows.Next() {
				t.Fatalf("%s: Q6 returned no row: %v", name, rows.Err())
			}
			if err := rows.Scan(&got); err != nil {
				t.Fatal(err)
			}
			rows.Close()
			if rel := (got - want) / want; rel < -1e-9 || rel > 1e-9 {
				t.Fatalf("%s run %d: Q6 = %v, hyper = %v", name, run, got, want)
			}
		}
	}
}

func TestQ6SelectivityIsLow(t *testing.T) {
	st := GenLineitem(0.002, 13)
	p := DefaultQ6Params()
	qty := st.Col(ColQuantity).I64()
	disc := st.Col(ColDiscount).F64()
	ship := st.Col(ColShipdate).I64()
	pass := 0
	for i := 0; i < st.Rows(); i++ {
		if ship[i] >= p.ShipLo && ship[i] < p.ShipHi && disc[i] >= p.DiscLo && disc[i] <= p.DiscHi && qty[i] < p.QtyMax {
			pass++
		}
	}
	sel := float64(pass) / float64(st.Rows())
	if sel < 0.005 || sel > 0.05 {
		t.Fatalf("Q6 selectivity = %v, want ≈0.02", sel)
	}
}

func TestGenOrdersJoinable(t *testing.T) {
	li := GenLineitem(0.001, 5)
	ord := GenOrders(0.001, 5)
	if ord.Rows() == 0 {
		t.Fatal("no orders")
	}
	probe, err := engine.NewScan(li, "l_orderkey", "l_quantity")
	if err != nil {
		t.Fatal(err)
	}
	build, err := engine.NewScan(ord, "o_orderkey", "o_orderdate")
	if err != nil {
		t.Fatal(err)
	}
	j := engine.NewHashJoin(probe, build, "l_orderkey", "o_orderkey", "o_orderdate")
	out, err := engine.Collect(t.Context(), j)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() == 0 {
		t.Fatal("join produced nothing; keys incompatible")
	}
}

func TestGenCustomerJoinable(t *testing.T) {
	ord := GenOrders(0.002, 5)
	cust := GenCustomer(0.002, 5)
	if cust.Rows() == 0 {
		t.Fatal("no customers")
	}
	csch := cust.Schema()
	custkey := cust.Col(csch.ColumnIndex("c_custkey")).I64()
	segkey := cust.Col(csch.ColumnIndex("c_segkey")).I64()
	seg := cust.Col(csch.ColumnIndex("c_mktsegment")).Str()
	keys := map[int64]bool{}
	for i := range custkey {
		keys[custkey[i]] = true
		if seg[i] != MktSegments[segkey[i]] {
			t.Fatalf("segment name %q does not match code %d", seg[i], segkey[i])
		}
	}
	osch := ord.Schema()
	ocust := ord.Col(osch.ColumnIndex("o_custkey")).I64()
	matched := 0
	for _, k := range ocust {
		if keys[k] {
			matched++
		}
	}
	if matched == 0 {
		t.Fatal("no order references a generated customer")
	}
	prio := ord.Col(osch.ColumnIndex("o_shippriority")).I64()
	for _, p := range prio {
		if p < 0 || p > 2 {
			t.Fatalf("shippriority out of range: %d", p)
		}
	}
}

// collectQ3 drains a Q3 plan through the public cursor.
func collectQ3(t *testing.T, workers int, li, ord, cust *vector.DSMStore, p Q3Params) Q3Result {
	t.Helper()
	sess, err := advm.NewSession(
		advm.WithParallelism(workers))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rows, err := sess.Query(t.Context(), PlanQ3(li, ord, cust, p))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var out Q3Result
	for rows.Next() {
		var r Q3Row
		if err := rows.Scan(&r.Orderkey, &r.Revenue, &r.Orderdate, &r.Shippriority); err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestQ3StrategiesAgree: the engine's Q3 plan must agree with the
// hand-written tuple-at-a-time reference, serially and in parallel.
func TestQ3StrategiesAgree(t *testing.T) {
	li := GenLineitem(0.005, 42)
	ord := GenOrders(0.005, 42)
	cust := GenCustomer(0.005, 42)
	p := DefaultQ3Params()
	want := Q3HyPer(li, ord, cust, p)
	if len(want) != p.TopK {
		t.Fatalf("reference rows = %d, want %d (tune params for the generator)", len(want), p.TopK)
	}
	for _, workers := range []int{1, 4} {
		got := collectQ3(t, workers, li, ord, cust, p)
		if err := want.Equal(got, 1e-9); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, table := range []string{"lineitem", "orders", "customer"} {
		want, err := Gen(table, 0.001, 9)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + TableFile(table, 0.001, 9)
		if err := SaveTable(path, want); err != nil {
			t.Fatal(err)
		}
		got, err := LoadTable(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows() != want.Rows() {
			t.Fatalf("%s: rows %d vs %d", table, got.Rows(), want.Rows())
		}
		sch := want.Schema()
		gsch := got.Schema()
		for c := range sch.Names {
			if gsch.Names[c] != sch.Names[c] || gsch.Kinds[c] != sch.Kinds[c] {
				t.Fatalf("%s: schema col %d %s/%v vs %s/%v", table, c,
					gsch.Names[c], gsch.Kinds[c], sch.Names[c], sch.Kinds[c])
			}
			for r := 0; r < want.Rows(); r++ {
				if !got.Col(c).Get(r).Equal(want.Col(c).Get(r)) {
					t.Fatalf("%s: col %s row %d differs", table, sch.Names[c], r)
				}
			}
		}
	}
}

func TestLoadOrGenReuses(t *testing.T) {
	dir := t.TempDir()
	a, err := LoadOrGen(dir, "customer", 0.002, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadOrGen(dir, "customer", 0.002, 3) // second call loads the saved file
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows() != b.Rows() {
		t.Fatalf("rows %d vs %d", a.Rows(), b.Rows())
	}
	if _, err := LoadOrGen(dir, "nope", 0.002, 3); err == nil {
		t.Fatal("unknown table accepted")
	}
	// A corrupted cache file is regenerated, not fatal.
	path := dir + "/" + TableFile("customer", 0.002, 3)
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadOrGen(dir, "customer", 0.002, 3)
	if err != nil {
		t.Fatalf("corrupted cache not regenerated: %v", err)
	}
	if c.Rows() != a.Rows() {
		t.Fatalf("regenerated rows %d vs %d", c.Rows(), a.Rows())
	}
	if reloaded, err := LoadTable(path); err != nil || reloaded.Rows() != a.Rows() {
		t.Fatalf("cache not repaired: %v", err)
	}
}

// TestFloatLitParsesBack: every Q6 bound is written as a float literal
// that the DSL reads back to the same bits — whole numbers included, which
// %v would print as integer literals.
func TestFloatLitParsesBack(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -3, 0.05, 0.07, 1e-7, 1e21, 123456789, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		lit := floatLit(v)
		e, err := dsl.ParseLambda(`(\x -> x >= ` + lit + `)`)
		if err != nil {
			t.Fatalf("%v: %q does not parse: %v", v, lit, err)
		}
		c, ok := e.Body.(*dsl.Bin).R.(*dsl.Const)
		if !ok || c.Val.Kind != vector.F64 || math.Float64bits(c.Val.F) != math.Float64bits(v) {
			t.Fatalf("%v: %q parses to %#v, want the f64 %v", v, lit, e.Body.(*dsl.Bin).R, v)
		}
	}
}

// TestQ6WholeNumberBoundsFuse: a Q6 whose discount bounds are whole numbers
// keeps the plan shape of every other Q6, so at the hot tier it runs as a
// fused loop, and its revenue matches an untiered session's bit for bit.
func TestQ6WholeNumberBoundsFuse(t *testing.T) {
	st := GenLineitem(0.002, 11)
	hot, err := advm.NewSession(advm.WithTierThresholds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer hot.Close()
	ref, err := advm.NewSession(advm.WithTieredExecution(false))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	revenue := func(sess *advm.Session, p Q6Params) float64 {
		rows, err := sess.Query(t.Context(), PlanQ6(st, p))
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var got float64
		if !rows.Next() {
			t.Fatalf("Q6 returned no row: %v", rows.Err())
		}
		if err := rows.Scan(&got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, p := range []Q6Params{
		{ShipLo: 730, ShipHi: 1095, DiscLo: 0, DiscHi: 0.07, QtyMax: 24},
		{ShipLo: 730, ShipHi: 1095, DiscLo: 0.05, DiscHi: 1, QtyMax: 24},
	} {
		before := hot.Stats().FusedQueries
		got := revenue(hot, p)
		if hot.Stats().FusedQueries == before {
			t.Errorf("%+v: the hot Q6 did not run fused", p)
		}
		if want := revenue(ref, p); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%+v: hot Q6 = %v, untiered %v", p, got, want)
		}
	}
}
