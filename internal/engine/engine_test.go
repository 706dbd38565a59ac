package engine

import (
	"math/rand"
	"testing"

	"repro/internal/dsl"
	"repro/internal/vector"
)

// testTable builds a small table: id i64, val i64, price f64, tag str.
func testTable(n int, seed int64) *vector.DSMStore {
	rng := rand.New(rand.NewSource(seed))
	st := vector.NewDSMStore(vector.NewSchema(
		"id", vector.I64, "val", vector.I64, "price", vector.F64, "tag", vector.Str,
	))
	tags := []string{"A", "B", "C"}
	for i := 0; i < n; i++ {
		st.AppendRow(
			vector.I64Value(int64(i)),
			vector.I64Value(rng.Int63n(100)),
			vector.F64Value(float64(rng.Intn(1000))/10),
			vector.StrValue(tags[rng.Intn(len(tags))]),
		)
	}
	return st
}

func TestScanRoundTrip(t *testing.T) {
	st := testTable(2500, 1)
	scan, err := NewScan(st, "id", "val")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := CountRows(t.Context(), scan)
	if err != nil {
		t.Fatal(err)
	}
	if rows != 2500 {
		t.Fatalf("rows = %d", rows)
	}
	if _, err := NewScan(st, "nope"); err == nil {
		t.Fatal("unknown column must error")
	}
}

func TestComputeDerivedColumn(t *testing.T) {
	st := testTable(3000, 2)
	scan, _ := NewScan(st, "val", "price")
	comp := NewCompute(scan, "scaled", dsl.MustParseLambda(`(\v p -> p * 2.0 + v)`), vector.F64, "val", "price")
	out, err := Collect(t.Context(), comp)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 3000 {
		t.Fatalf("rows = %d", out.Rows())
	}
	vals := st.Col(1).I64()
	prices := st.Col(2).F64()
	scaled := out.Col(out.Schema().ColumnIndex("scaled")).F64()
	for i := range scaled {
		want := prices[i]*2 + float64(vals[i])
		if scaled[i] != want {
			t.Fatalf("scaled[%d] = %v, want %v", i, scaled[i], want)
		}
	}
}

func TestFilterSelectivityAndCorrectness(t *testing.T) {
	st := testTable(5000, 3)
	scan, _ := NewScan(st, "id", "val")
	f := NewFilter(scan, dsl.MustParseLambda(`(\v -> v < 50)`), "val")
	out, err := Collect(t.Context(), f)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, v := range st.Col(1).I64() {
		if v < 50 {
			want++
		}
	}
	if out.Rows() != want {
		t.Fatalf("filtered rows = %d, want %d", out.Rows(), want)
	}
	got := f.Selectivity()
	if got < 0.4 || got > 0.6 {
		t.Fatalf("observed selectivity %v implausible for uniform 0..99 < 50", got)
	}
	for _, v := range out.Col(1).I64() {
		if v >= 50 {
			t.Fatalf("row with val=%d passed the filter", v)
		}
	}
}

func TestFilterFlavorsAgree(t *testing.T) {
	st := testTable(4000, 4)
	for _, mode := range []EvalMode{EvalFull, EvalSelective, EvalAdaptive} {
		scan, _ := NewScan(st, "id", "val")
		f1 := NewFilter(scan, dsl.MustParseLambda(`(\v -> v < 30)`), "val").SetMode(EvalFull)
		f2 := NewFilter(f1, dsl.MustParseLambda(`(\v -> v % 2 == 0)`), "val").SetMode(mode)
		out, err := Collect(t.Context(), f2)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		want := 0
		for _, v := range st.Col(1).I64() {
			if v < 30 && v%2 == 0 {
				want++
			}
		}
		if out.Rows() != want {
			t.Fatalf("mode %v: rows = %d, want %d", mode, out.Rows(), want)
		}
		if mode == EvalSelective && f2.SelEvals == 0 {
			t.Fatalf("selective mode never used selection-vector evaluation")
		}
		if mode == EvalFull && f2.MaskEvals == 0 {
			t.Fatalf("full mode never used mask evaluation")
		}
	}
}

func TestComputeFlavorsAgree(t *testing.T) {
	st := testTable(4000, 5)
	for _, mode := range []EvalMode{EvalFull, EvalSelective, EvalAdaptive} {
		scan, _ := NewScan(st, "id", "val")
		f := NewFilter(scan, dsl.MustParseLambda(`(\v -> v < 10)`), "val") // ~10% selectivity
		c := NewCompute(f, "sq", dsl.MustParseLambda(`(\v -> v * v)`), vector.I64, "val").SetMode(mode)
		out, err := Collect(t.Context(), c)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		sq := out.Col(out.Schema().ColumnIndex("sq")).I64()
		vals := out.Col(out.Schema().ColumnIndex("val")).I64()
		for i := range sq {
			if sq[i] != vals[i]*vals[i] {
				t.Fatalf("mode %v: sq[%d]=%d val=%d", mode, i, sq[i], vals[i])
			}
		}
		if mode == EvalSelective && c.SelectiveEvals == 0 {
			t.Fatal("selective mode unused")
		}
	}
}

func TestAdaptiveComputePicksSelectiveAtLowSelectivity(t *testing.T) {
	st := testTable(40000, 6)
	scan, _ := NewScan(st, "id", "val")
	f := NewFilter(scan, dsl.MustParseLambda(`(\v -> v < 2)`), "val")                 // ~2% selectivity
	c := NewCompute(f, "sq", dsl.MustParseLambda(`(\v -> v * v)`), vector.I64, "val") // adaptive
	if _, err := Collect(t.Context(), c); err != nil {
		t.Fatal(err)
	}
	if c.SelectiveEvals == 0 {
		t.Fatalf("adaptive compute never chose selective at 2%% selectivity (full=%d sel=%d)",
			c.FullEvals, c.SelectiveEvals)
	}
}

func TestHashJoinInner(t *testing.T) {
	dim := vector.NewDSMStore(vector.NewSchema("k", vector.I64, "name", vector.Str))
	for i := 0; i < 10; i++ {
		dim.AppendRow(vector.I64Value(int64(i)), vector.StrValue(string(rune('a'+i))))
	}
	fact := vector.NewDSMStore(vector.NewSchema("fk", vector.I64, "x", vector.I64))
	// fks 0..19: half match, half miss.
	for i := 0; i < 2000; i++ {
		fact.AppendRow(vector.I64Value(int64(i%20)), vector.I64Value(int64(i)))
	}
	probe, _ := NewScan(fact, "fk", "x")
	build, _ := NewScan(dim, "k", "name")
	j := NewHashJoin(probe, build, "fk", "k", "name")
	out, err := Collect(t.Context(), j)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 1000 {
		t.Fatalf("join rows = %d, want 1000", out.Rows())
	}
	fks := out.Col(0).I64()
	names := out.Col(out.Schema().ColumnIndex("name")).Str()
	for i := range fks {
		if names[i] != string(rune('a'+fks[i])) {
			t.Fatalf("payload mismatch at %d: fk=%d name=%q", i, fks[i], names[i])
		}
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	dim := vector.NewDSMStore(vector.NewSchema("k", vector.I64, "p", vector.I64))
	dim.AppendRow(vector.I64Value(1), vector.I64Value(10))
	dim.AppendRow(vector.I64Value(1), vector.I64Value(11))
	fact := vector.NewDSMStore(vector.NewSchema("fk", vector.I64))
	fact.AppendRow(vector.I64Value(1))
	fact.AppendRow(vector.I64Value(2))
	probe, _ := NewScan(fact, "fk")
	build, _ := NewScan(dim, "k", "p")
	j := NewHashJoin(probe, build, "fk", "k", "p")
	out, err := Collect(t.Context(), j)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 2 {
		t.Fatalf("duplicate keys should produce 2 rows, got %d", out.Rows())
	}
}

// TestComputeOverWideJoinChunks: multi-match joins emit chunks wider than
// the expression VM's default read count (every probe row fans out to its
// whole match list), so a compute stacked on the probe must window its
// evaluation instead of truncating at DefaultChunkLen. Regression test for
// a bug found by the differential harness.
func TestComputeOverWideJoinChunks(t *testing.T) {
	dim := vector.NewDSMStore(vector.NewSchema("k", vector.I64, "p", vector.I64))
	for i := 0; i < 12; i++ {
		// Every key matches 4 build rows → probe chunks quadruple on emit.
		dim.AppendRow(vector.I64Value(int64(i%3)), vector.I64Value(int64(i)))
	}
	fact := vector.NewDSMStore(vector.NewSchema("fk", vector.I64, "x", vector.I64))
	for i := 0; i < 3000; i++ {
		fact.AppendRow(vector.I64Value(int64(i%3)), vector.I64Value(int64(i)))
	}
	probe, _ := NewScan(fact, "fk", "x")
	build, _ := NewScan(dim, "k", "p")
	j := NewHashJoin(probe, build, "fk", "k", "p")
	c := NewCompute(j, "y", dsl.MustParseLambda(`(\x p -> x * 10 + p)`), vector.I64, "x", "p")
	out, err := Collect(t.Context(), c)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 12000 {
		t.Fatalf("join×compute rows = %d, want 12000", out.Rows())
	}
	xs := out.Col(out.Schema().ColumnIndex("x")).I64()
	ps := out.Col(out.Schema().ColumnIndex("p")).I64()
	ys := out.Col(out.Schema().ColumnIndex("y")).I64()
	for i := range ys {
		if ys[i] != xs[i]*10+ps[i] {
			t.Fatalf("row %d: y=%d, want %d", i, ys[i], xs[i]*10+ps[i])
		}
	}
}

func TestBloomAdaptiveToggle(t *testing.T) {
	dim := vector.NewDSMStore(vector.NewSchema("k", vector.I64))
	for i := 0; i < 100; i++ {
		dim.AppendRow(vector.I64Value(int64(i)))
	}
	// Selective probe: 1% hit rate → bloom should stay on and skip probes.
	fact := vector.NewDSMStore(vector.NewSchema("fk", vector.I64))
	for i := 0; i < 50000; i++ {
		fact.AppendRow(vector.I64Value(int64(i % 10000)))
	}
	probe, _ := NewScan(fact, "fk")
	build, _ := NewScan(dim, "k")
	j := NewHashJoin(probe, build, "fk", "k")
	if _, err := Collect(t.Context(), j); err != nil {
		t.Fatal(err)
	}
	if !j.BloomEnabled() {
		t.Fatal("selective join should keep the Bloom filter on")
	}
	if j.BloomSkips == 0 {
		t.Fatal("bloom never skipped a probe")
	}

	// Non-selective probe: ~100% hit rate → bloom must toggle off.
	fact2 := vector.NewDSMStore(vector.NewSchema("fk", vector.I64))
	for i := 0; i < 50000; i++ {
		fact2.AppendRow(vector.I64Value(int64(i % 100)))
	}
	probe2, _ := NewScan(fact2, "fk")
	build2, _ := NewScan(dim, "k")
	j2 := NewHashJoin(probe2, build2, "fk", "k")
	if _, err := Collect(t.Context(), j2); err != nil {
		t.Fatal(err)
	}
	if j2.BloomEnabled() {
		t.Fatal("non-selective join should disable the Bloom filter")
	}
}

func TestBloomFilterNoFalseNegatives(t *testing.T) {
	b := NewBloomFilter(1000)
	for i := int64(0); i < 1000; i++ {
		b.Add(i * 7)
	}
	for i := int64(0); i < 1000; i++ {
		if !b.MayContain(i * 7) {
			t.Fatalf("false negative for %d", i*7)
		}
	}
	fp := 0
	for i := int64(0); i < 10000; i++ {
		if b.MayContain(1<<40 + i) {
			fp++
		}
	}
	if fp > 2000 {
		t.Fatalf("false positive rate too high: %d/10000", fp)
	}
}

func TestHashAggSumCountMinMaxAvg(t *testing.T) {
	st := testTable(10000, 7)
	scan, _ := NewScan(st, "tag", "val", "price")
	agg := NewHashAgg(scan, []string{"tag"}, []Aggregate{
		{Func: AggSum, Col: "val", As: "sum_val"},
		{Func: AggCount, As: "cnt"},
		{Func: AggMin, Col: "val", As: "min_val"},
		{Func: AggMax, Col: "val", As: "max_val"},
		{Func: AggAvg, Col: "price", As: "avg_price"},
	})
	out, err := Collect(t.Context(), agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 3 {
		t.Fatalf("groups = %d, want 3", out.Rows())
	}

	// Reference aggregation.
	type ref struct {
		sum, cnt, min, max int64
		priceSum           float64
	}
	refs := map[string]*ref{}
	tags := st.Col(3).Str()
	vals := st.Col(1).I64()
	prices := st.Col(2).F64()
	for i := range tags {
		r, ok := refs[tags[i]]
		if !ok {
			r = &ref{min: 1 << 62, max: -(1 << 62)}
			refs[tags[i]] = r
		}
		r.sum += vals[i]
		r.cnt++
		if vals[i] < r.min {
			r.min = vals[i]
		}
		if vals[i] > r.max {
			r.max = vals[i]
		}
		r.priceSum += prices[i]
	}
	sch := out.Schema()
	for row := 0; row < out.Rows(); row++ {
		tag := out.Col(0).Str()[row]
		r := refs[tag]
		if got := out.Col(sch.ColumnIndex("sum_val")).I64()[row]; got != r.sum {
			t.Errorf("%s sum=%d want %d", tag, got, r.sum)
		}
		if got := out.Col(sch.ColumnIndex("cnt")).I64()[row]; got != r.cnt {
			t.Errorf("%s cnt=%d want %d", tag, got, r.cnt)
		}
		if got := out.Col(sch.ColumnIndex("min_val")).I64()[row]; got != r.min {
			t.Errorf("%s min=%d want %d", tag, got, r.min)
		}
		if got := out.Col(sch.ColumnIndex("max_val")).I64()[row]; got != r.max {
			t.Errorf("%s max=%d want %d", tag, got, r.max)
		}
		wantAvg := r.priceSum / float64(r.cnt)
		if got := out.Col(sch.ColumnIndex("avg_price")).F64()[row]; abs(got-wantAvg) > 1e-9 {
			t.Errorf("%s avg=%v want %v", tag, got, wantAvg)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestHashAggPreAggFlavorsAgree(t *testing.T) {
	st := testTable(20000, 8)
	run := func(mode PreAggMode) *vector.DSMStore {
		scan, _ := NewScan(st, "tag", "val")
		agg := NewHashAgg(scan, []string{"tag"}, []Aggregate{
			{Func: AggSum, Col: "val", As: "s"},
			{Func: AggCount, As: "c"},
		}).SetPreAgg(mode)
		out, err := Collect(t.Context(), agg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	on := run(PreAggOn)
	off := run(PreAggOff)
	ad := run(PreAggAdaptive)
	for row := 0; row < on.Rows(); row++ {
		for col := 0; col < 3; col++ {
			a, b, c := on.Col(col).Get(row), off.Col(col).Get(row), ad.Col(col).Get(row)
			if !a.Equal(b) || !b.Equal(c) {
				t.Fatalf("pre-agg flavors disagree at row %d col %d: %v %v %v", row, col, a, b, c)
			}
		}
	}
}

func TestPreAggAdaptiveDisablesOnHighCardinality(t *testing.T) {
	// Every row its own group: pre-agg can never hit; adaptive must switch
	// it off.
	st := vector.NewDSMStore(vector.NewSchema("k", vector.I64, "v", vector.I64))
	for i := 0; i < 30000; i++ {
		st.AppendRow(vector.I64Value(int64(i)), vector.I64Value(1))
	}
	scan, _ := NewScan(st, "k", "v")
	agg := NewHashAgg(scan, []string{"k"}, []Aggregate{{Func: AggSum, Col: "v", As: "s"}})
	out, err := Collect(t.Context(), agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 30000 {
		t.Fatalf("groups = %d", out.Rows())
	}
	if agg.PreAggEnabled() {
		t.Fatal("adaptive pre-agg should disable on all-distinct keys")
	}
}

func TestAdaptiveChainReordersByObservedSelectivity(t *testing.T) {
	st := vector.NewDSMStore(vector.NewSchema("a", vector.I64, "b", vector.I64))
	rng := rand.New(rand.NewSource(9))
	n := 100000
	for i := 0; i < n; i++ {
		st.AppendRow(vector.I64Value(rng.Int63n(100)), vector.I64Value(rng.Int63n(100)))
	}
	// Stage A passes 90%, stage B passes 5%: adaptive order must put B
	// first and do less work than the static A-then-B order.
	mkStages := func() []Selector {
		return []Selector{
			&CmpSelector{Label: "A", Col: "a", Threshold: 10, Greater: true}, // ~90%
			&CmpSelector{Label: "B", Col: "b", Threshold: 5, Greater: false}, // ~5%
		}
	}
	scanS, _ := NewScan(st, "a", "b")
	static := NewAdaptiveChain(scanS, false, mkStages()...)
	staticRows, err := CountRows(t.Context(), static)
	if err != nil {
		t.Fatal(err)
	}
	scanA, _ := NewScan(st, "a", "b")
	adaptive := NewAdaptiveChain(scanA, true, mkStages()...)
	adaptiveRows, err := CountRows(t.Context(), adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if staticRows != adaptiveRows {
		t.Fatalf("orders disagree: static=%d adaptive=%d", staticRows, adaptiveRows)
	}
	if adaptive.Applications >= static.Applications {
		t.Fatalf("adaptive order did not reduce work: %d vs %d",
			adaptive.Applications, static.Applications)
	}
	order := adaptive.Order()
	if order[0] != 1 {
		t.Fatalf("most selective stage (B) should run first, order=%v", order)
	}
}

func TestAdaptiveChainTracksDrift(t *testing.T) {
	// Phase 1: stage A selective; phase 2: stage B selective. The chain
	// must reorder mid-stream.
	st := vector.NewDSMStore(vector.NewSchema("a", vector.I64, "b", vector.I64))
	n := 200000
	for i := 0; i < n; i++ {
		if i < n/2 {
			st.AppendRow(vector.I64Value(int64(i%100)), vector.I64Value(int64(i%2)))
		} else {
			st.AppendRow(vector.I64Value(int64(i%2)), vector.I64Value(int64(i%100)))
		}
	}
	scan, _ := NewScan(st, "a", "b")
	chain := NewAdaptiveChain(scan, true,
		&CmpSelector{Label: "A", Col: "a", Threshold: 2, Greater: false},
		&CmpSelector{Label: "B", Col: "b", Threshold: 2, Greater: false},
	)
	if _, err := CountRows(t.Context(), chain); err != nil {
		t.Fatal(err)
	}
	if chain.Reorders == 0 {
		t.Fatal("phase shift should trigger at least one reorder")
	}
}

func TestSemijoinSelector(t *testing.T) {
	set := map[int64]struct{}{1: {}, 5: {}}
	s := &SetMembership{Label: "semi", Col: "x", Set: set}
	c := vector.ChunkOf("x", vector.FromI64([]int64{0, 1, 2, 5, 5}))
	out := s.Apply(c, nil)
	if len(out) != 3 || out[0] != 1 || out[1] != 3 || out[2] != 4 {
		t.Fatalf("semijoin sel = %v", out)
	}
	out2 := s.Apply(c, vector.Sel{0, 1, 2})
	if len(out2) != 1 || out2[0] != 1 {
		t.Fatalf("semijoin over sel = %v", out2)
	}
}
