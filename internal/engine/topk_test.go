package engine

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vector"
)

func topkInput() *vector.DSMStore {
	st := vector.NewDSMStore(vector.NewSchema("k", vector.I64, "rev", vector.F64, "date", vector.I64))
	rows := []struct {
		k    int64
		rev  float64
		date int64
	}{
		{1, 10.5, 100},
		{2, 99.0, 300},
		{3, 99.0, 200}, // ties with row 2 on rev; date breaks it
		{4, 1.0, 50},
		{5, 42.0, 400},
	}
	for _, r := range rows {
		st.AppendRow(vector.I64Value(r.k), vector.F64Value(r.rev), vector.I64Value(r.date))
	}
	return st
}

func TestTopKOrderAndTruncation(t *testing.T) {
	scan, err := NewScan(topkInput())
	if err != nil {
		t.Fatal(err)
	}
	tk, err := NewTopK(scan, 3, OrderSpec{Col: "rev", Desc: true}, OrderSpec{Col: "date"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(context.Background(), tk)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := []int64{3, 2, 5} // rev desc, date asc on the tie
	if out.Rows() != len(wantKeys) {
		t.Fatalf("rows = %d, want %d", out.Rows(), len(wantKeys))
	}
	for i, want := range wantKeys {
		if got := out.Col(0).I64()[i]; got != want {
			t.Fatalf("row %d key = %d, want %d", i, got, want)
		}
	}
}

func TestTopKLargerThanInput(t *testing.T) {
	scan, err := NewScan(topkInput())
	if err != nil {
		t.Fatal(err)
	}
	tk, err := NewTopK(scan, 100, OrderSpec{Col: "k"})
	if err != nil {
		t.Fatal(err)
	}
	n, err := CountRows(context.Background(), tk)
	if err != nil || n != 5 {
		t.Fatalf("CountRows = %d, %v; want 5", n, err)
	}
}

func TestTopKValidation(t *testing.T) {
	scan, err := NewScan(topkInput())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTopK(scan, 0, OrderSpec{Col: "k"}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewTopK(scan, 3); err == nil {
		t.Fatal("no order columns accepted")
	}
	if _, err := NewTopK(scan, 3, OrderSpec{Col: "nope"}); err == nil {
		t.Fatal("unknown order column accepted")
	}
}

// TestAggFirstSerial: AggFirst carries the first value per group in input
// order, for numeric and string columns, with and without pre-aggregation.
func TestAggFirstSerial(t *testing.T) {
	st := vector.NewDSMStore(vector.NewSchema("g", vector.I64, "s", vector.Str, "v", vector.I64))
	st.AppendRow(vector.I64Value(1), vector.StrValue("a"), vector.I64Value(10))
	st.AppendRow(vector.I64Value(2), vector.StrValue("b"), vector.I64Value(20))
	st.AppendRow(vector.I64Value(1), vector.StrValue("c"), vector.I64Value(30))
	st.AppendRow(vector.I64Value(2), vector.StrValue("d"), vector.I64Value(40))
	for _, pre := range []PreAggMode{PreAggOn, PreAggOff, PreAggAdaptive} {
		scan, err := NewScan(st)
		if err != nil {
			t.Fatal(err)
		}
		agg := NewHashAgg(scan, []string{"g"}, []Aggregate{
			{Func: AggFirst, Col: "s", As: "first_s"},
			{Func: AggFirst, Col: "v", As: "first_v"},
			{Func: AggSum, Col: "v", As: "sum_v"},
		}).SetPreAgg(pre)
		out, err := Collect(context.Background(), agg)
		if err != nil {
			t.Fatal(err)
		}
		if out.Rows() != 2 {
			t.Fatalf("pre=%v: groups = %d, want 2", pre, out.Rows())
		}
		sch := out.Schema()
		firstS := out.Col(sch.ColumnIndex("first_s")).Str()
		firstV := out.Col(sch.ColumnIndex("first_v")).I64()
		if firstS[0] != "a" || firstS[1] != "b" || firstV[0] != 10 || firstV[1] != 20 {
			t.Fatalf("pre=%v: firsts = %v %v", pre, firstS, firstV)
		}
	}
}

// TestTopKNaNDeterministic: with NaN in an order column, serial TopK and
// ParallelTopK at every worker count return the same rows, NaN ordering
// after every number (+Inf included) — so first under Desc and last
// ascending — with NaN rows tied among themselves and broken by the next
// order column.
func TestTopKNaNDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	st := vector.NewDSMStore(vector.NewSchema("k", vector.I64, "v", vector.F64))
	for i := 0; i < 4000; i++ {
		v := float64(rng.Intn(100))
		switch rng.Intn(10) {
		case 0, 1:
			v = math.NaN()
		case 2:
			v = math.Inf(1)
		}
		st.AppendRow(vector.I64Value(int64(i)), vector.F64Value(v))
	}
	vals := st.Col(1).F64()
	var nanKeys []int64
	for i, v := range vals {
		if math.IsNaN(v) {
			nanKeys = append(nanKeys, int64(i))
		}
	}
	for _, desc := range []bool{true, false} {
		by := []OrderSpec{{Col: "v", Desc: desc}, {Col: "k"}}
		scan, err := NewScan(st)
		if err != nil {
			t.Fatal(err)
		}
		tk, err := NewTopK(scan, 10, by...)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := Collect(t.Context(), tk)
		if err != nil {
			t.Fatal(err)
		}
		keys := serial.Col(0).I64()
		for i, v := range serial.Col(1).F64() {
			if desc && (!math.IsNaN(v) || keys[i] != nanKeys[i]) {
				t.Fatalf("desc row %d = (%d, %v), want NaN row %d", i, keys[i], v, nanKeys[i])
			}
			if !desc && (math.IsNaN(v) || math.IsInf(v, 1)) {
				t.Fatalf("asc row %d = (%d, %v), want a finite number", i, keys[i], v)
			}
		}
		for _, workers := range []int{1, 2, 4} {
			ptk, err := NewParallelTopK(st, nil, workers, func(_ int, leaf Operator) (Operator, error) { return leaf, nil }, 10, by...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(t.Context(), ptk.SetMorselLen(256))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(encodeStore(got), encodeStore(serial)) {
				t.Fatalf("desc=%v workers=%d: parallel %v, serial %v", desc, workers, got.Col(0).I64(), keys)
			}
		}
	}
	// Ascending over the whole table, NaN rows come last.
	scan, err := NewScan(st)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := NewTopK(scan, st.Rows(), OrderSpec{Col: "v"})
	if err != nil {
		t.Fatal(err)
	}
	all, err := Collect(t.Context(), tk)
	if err != nil {
		t.Fatal(err)
	}
	tail := all.Col(1).F64()[all.Rows()-len(nanKeys):]
	if !math.IsInf(all.Col(1).F64()[all.Rows()-len(nanKeys)-1], 1) || slices.ContainsFunc(tail, func(v float64) bool { return !math.IsNaN(v) }) {
		t.Fatalf("ascending order does not end with +Inf then every NaN row")
	}
}
