package tpch

import (
	"os"
	"testing"

	"repro/advm"
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

func TestQ1StrategiesAgree(t *testing.T) {
	st := GenLineitem(0.002, 42)
	hyper := Q1HyPer(st, Q1Cutoff)
	if len(hyper) != 4 {
		t.Fatalf("Q1 groups = %d, want 4", len(hyper))
	}

	vect, err := Q1Engine(t.Context(), st, Q1Cutoff, Q1Options{JIT: false})
	if err != nil {
		t.Fatal(err)
	}
	if err := hyper.Equal(vect, 1e-9); err != nil {
		t.Fatalf("vectorized differs from tuple-at-a-time: %v", err)
	}

	adaptive, err := Q1Engine(t.Context(), st, Q1Cutoff, Q1Options{
		JIT: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := hyper.Equal(adaptive, 1e-9); err != nil {
		t.Fatalf("adaptive differs: %v", err)
	}

	compact := Q1Compact(Compact(st), Q1Cutoff)
	if err := hyper.Equal(compact, 1e-9); err != nil {
		t.Fatalf("compact differs: %v", err)
	}
}

func TestQ1EngineFlavorCombinations(t *testing.T) {
	st := GenLineitem(0.001, 7)
	want := Q1HyPer(st, Q1Cutoff)
	for _, mode := range []engine.EvalMode{engine.EvalFull, engine.EvalSelective, engine.EvalAdaptive} {
		for _, pre := range []engine.PreAggMode{engine.PreAggOn, engine.PreAggOff, engine.PreAggAdaptive} {
			got, err := Q1Engine(t.Context(), st, Q1Cutoff, Q1Options{Mode: mode, PreAgg: pre})
			if err != nil {
				t.Fatalf("mode=%v pre=%v: %v", mode, pre, err)
			}
			if err := want.Equal(got, 1e-9); err != nil {
				t.Fatalf("mode=%v pre=%v: %v", mode, pre, err)
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
	got, err := Q6Engine(t.Context(), st, p, Q1Options{})
	if err != nil {
		t.Fatal(err)
	}
	rel := (got - want) / want
	if rel < -1e-9 || rel > 1e-9 {
		t.Fatalf("Q6 engine = %v, hyper = %v", got, want)
	}
	gotJIT, err := Q6Engine(t.Context(), st, p, Q1Options{JIT: true})
	if err != nil {
		t.Fatal(err)
	}
	rel = (gotJIT - want) / want
	if rel < -1e-9 || rel > 1e-9 {
		t.Fatalf("Q6 adaptive = %v, hyper = %v", gotJIT, want)
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

func TestCompactEncodingRoundTrip(t *testing.T) {
	st := GenLineitem(0.001, 3)
	cl := Compact(st)
	if cl.N != st.Rows() {
		t.Fatal("row count")
	}
	price := st.Col(ColExtendedprice).F64()
	for i := 0; i < cl.N; i++ {
		if float64(cl.PriceC[i])/100 != price[i] {
			t.Fatalf("price not exact cents at %d: %v vs %v", i, float64(cl.PriceC[i])/100, price[i])
		}
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

func BenchmarkQ1Compact(b *testing.B) {
	cl := Compact(GenLineitem(0.01, 42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Q1Compact(cl, Q1Cutoff)
	}
}
