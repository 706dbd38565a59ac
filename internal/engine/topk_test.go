package engine

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"runtime"
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

// chunkSource emits the given chunks, in order, as an operator's output.
type chunkSource struct {
	schema []ColInfo
	chunks []*vector.Chunk
	next   int
}

func (c *chunkSource) Schema() []ColInfo { return c.schema }

func (c *chunkSource) Open(context.Context) error { c.next = 0; return nil }

func (c *chunkSource) Next(context.Context) (*vector.Chunk, error) {
	if c.next == len(c.chunks) {
		return nil, nil
	}
	c.next++
	return c.chunks[c.next-1], nil
}

func (c *chunkSource) Close() error { return nil }

// TestTopKSelectsOneChunkInPlace: over a child that emits one chunk, as an
// aggregation does, TopK selects in place and returns the bytes it returns
// when the same rows arrive in several chunks and are collected first — the
// stable sort's first k rows — while allocating less than one copy of its
// input.
func TestTopKSelectsOneChunkInPlace(t *testing.T) {
	st := aggMatrixTable(4096, 50, 47)
	var schema []ColInfo
	cols := make([]*vector.Vector, len(st.Schema().Names))
	for i, name := range st.Schema().Names {
		schema = append(schema, ColInfo{Name: name, Kind: st.Schema().Kinds[i]})
		cols[i] = st.Col(i)
	}
	names := st.Schema().Names
	split := func(sel vector.Sel) []*vector.Chunk {
		var out []*vector.Chunk
		for _, w := range [][2]int{{0, 1000}, {1000, 1001}, {1001, 4096}} {
			part := make([]*vector.Vector, len(cols))
			for i, c := range cols {
				part[i] = c.Slice(w[0], w[1])
			}
			c := vector.ChunkFrom(names, part)
			if sel != nil {
				var s vector.Sel
				for _, r := range sel {
					if int(r) >= w[0] && int(r) < w[1] {
						s = append(s, r-int32(w[0]))
					}
				}
				c.SetSel(s)
			}
			out = append(out, c)
		}
		return out
	}
	by := []OrderSpec{{Col: "f", Desc: true}, {Col: "s"}}
	const k = 10
	topk := func(chunks []*vector.Chunk) *vector.DSMStore {
		tk, err := NewTopK(&chunkSource{schema: schema, chunks: chunks}, k, by...)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect(t.Context(), tk)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	flt := st.Col(st.Schema().ColumnIndex("flt")).I64()
	var half vector.Sel
	for r, v := range flt {
		if v < 50 {
			half = append(half, int32(r))
		}
	}
	for _, sel := range []vector.Sel{nil, half} {
		one := vector.ChunkFrom(names, cols)
		one.SetSel(sel)
		got := topk([]*vector.Chunk{one})
		if want := topk(split(sel)); !slices.Equal(encodeStore(got), encodeStore(want)) {
			t.Fatalf("sel=%v: one chunk selects %v, split chunks %v", sel != nil, encodeStore(got), encodeStore(want))
		}
		// The stable sort's first k rows, by the k2 and v columns they carry.
		rows := make([]int, 0, st.Rows())
		for r := range st.Rows() {
			if sel == nil || slices.Contains(sel, int32(r)) {
				rows = append(rows, r)
			}
		}
		f, s := st.Col(st.Schema().ColumnIndex("f")).F64(), st.Col(st.Schema().ColumnIndex("s")).Str()
		slices.SortStableFunc(rows, func(a, b int) int {
			if c := compareF64(f[b], f[a]); c != 0 {
				return c
			}
			return cmp.Compare(s[a], s[b])
		})
		v := st.Col(st.Schema().ColumnIndex("v")).I64()
		for i, r := range rows[:k] {
			if g := got.Col(got.Schema().ColumnIndex("v")).I64()[i]; g != v[r] {
				t.Fatalf("sel=%v: row %d has v=%d, want row %d's %d", sel != nil, i, g, r, v[r])
			}
		}
	}
	// Bytes allocated per TopK: in place, less than one copy of the input.
	allocated := func(chunks []*vector.Chunk) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 10 {
			topk(chunks)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 10
	}
	input := uint64(st.Rows()) * 8 * 8 // 8 of the 11 columns are 8-byte numbers
	inPlace, collected := allocated([]*vector.Chunk{vector.ChunkFrom(names, cols)}), allocated(split(nil))
	if inPlace >= input || inPlace >= collected {
		t.Fatalf("TopK over one chunk allocates %d B, over split chunks %d B; want less than the input's %d B and than the split", inPlace, collected, input)
	}
}
