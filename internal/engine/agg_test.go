package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dsl"
	"repro/internal/vector"
)

// aggMatrixTable builds the aggregation matrix input: i64 and str key
// candidates of several cardinalities (k takes card values),
// i64/i32/f64 measures (f carries NaN and ties for min/max), and flt, which
// the selection-vector variant filters on.
//
// The str keys vary how equal values share storage, which no grouping may
// read as identity: every s value is its own string, while s2 repeats three
// literals; s3 holds prefixes of one backing string, so its values share a
// data pointer and differ in length; and s4 is a clone of s2, the same
// bytes under another identity. s3 draws from its own rng, so the other
// columns keep their values.
func aggMatrixTable(n, card int, seed int64) *vector.DSMStore {
	rng := rand.New(rand.NewSource(seed))
	prefixRng := rand.New(rand.NewSource(seed + 1))
	backing := "abc"
	st := vector.NewDSMStore(vector.NewSchema(
		"k", vector.I64, "k2", vector.I64, "s", vector.Str, "s2", vector.Str,
		"v", vector.I64, "w", vector.I32, "f", vector.F64, "g", vector.F64, "flt", vector.I64,
		"s3", vector.Str, "s4", vector.Str))
	for i := 0; i < n; i++ {
		f := float64(rng.Intn(200)) - 100.5
		switch rng.Intn(10) {
		case 0:
			f = math.NaN()
		case 1:
			f = 0
		}
		k, k2 := rng.Int63n(int64(card))-10, rng.Int63n(5)
		s, s2 := fmt.Sprintf("s%02d", rng.Intn(30)), []string{"", "x", "yy"}[rng.Intn(3)]
		st.AppendRow(
			vector.I64Value(k),
			vector.I64Value(k2),
			vector.StrValue(s),
			vector.StrValue(s2),
			vector.I64Value(rng.Int63n(2000)-1000),
			vector.IntValue(vector.I32, rng.Int63n(1<<31)-(1<<30)),
			vector.F64Value(f),
			vector.F64Value((rng.Float64()-0.3)*1e3),
			vector.I64Value(rng.Int63n(100)),
			vector.StrValue(backing[:prefixRng.Intn(4)]),
			vector.StrValue(strings.Clone(s2)),
		)
	}
	return st
}

var aggMatrixAggs = []Aggregate{
	{Func: AggSum, Col: "v", As: "sum_v"},
	{Func: AggSum, Col: "w", As: "sum_w"},
	{Func: AggSum, Col: "g", As: "sum_g"},
	{Func: AggAvg, Col: "v", As: "avg_v"},
	{Func: AggAvg, Col: "w", As: "avg_w"},
	{Func: AggAvg, Col: "g", As: "avg_g"},
	{Func: AggMin, Col: "v", As: "min_v"},
	{Func: AggMin, Col: "w", As: "min_w"},
	{Func: AggMin, Col: "f", As: "min_f"},
	{Func: AggMax, Col: "v", As: "max_v"},
	{Func: AggMax, Col: "w", As: "max_w"},
	{Func: AggMax, Col: "f", As: "max_f"},
	{Func: AggCount, As: "n"},
	{Func: AggFirst, Col: "k2", As: "first_k2"},
	{Func: AggFirst, Col: "s", As: "first_s"},
}

// refGroup is one group of the reference fold: per aggregate, an integer
// or float accumulator, or the first value.
type refGroup struct {
	key   []vector.Value
	count int64
	ints  []int64
	flts  []float64
	first []vector.Value
}

// refTable is the reference fold of a run of rows: groups by encoded key,
// in first-seen order.
type refTable struct {
	groups map[string]*refGroup
	order  []string
}

// refAggregate is the reference for the morsel-parallel aggregation, written
// row by row over boxed values: every morsel of morselLen table rows folds
// its selected rows in row order — min and max start at the group's first
// row — and the per-morsel tables merge pairwise in sequence order, each
// merge adding the later table into the earlier one. One morsel covering
// the table is the strict row-order fold. Output rows are sorted by key and
// canonically encoded.
func refAggregate(st *vector.DSMStore, keys []string, aggs []Aggregate, keep func(r int) bool, morselLen int) []string {
	sch := st.Schema()
	col := func(name string) *vector.Vector { return st.Col(sch.ColumnIndex(name)) }
	var tables []*refTable
	for lo := 0; lo < st.Rows(); lo += morselLen {
		t := &refTable{groups: map[string]*refGroup{}}
		for r := lo; r < min(lo+morselLen, st.Rows()); r++ {
			if !keep(r) {
				continue
			}
			var key []vector.Value
			for _, k := range keys {
				key = append(key, col(k).Get(r))
			}
			id := fmt.Sprint(key)
			g, ok := t.groups[id]
			if !ok {
				g = &refGroup{key: key, ints: make([]int64, len(aggs)), flts: make([]float64, len(aggs)), first: make([]vector.Value, len(aggs))}
				for ai, a := range aggs {
					if a.Func == AggMin || a.Func == AggMax || a.Func == AggFirst {
						v := col(a.Col).Get(r)
						g.ints[ai], g.flts[ai], g.first[ai] = v.I, v.F, v
					}
				}
				t.groups[id] = g
				t.order = append(t.order, id)
			}
			g.count++
			for ai, a := range aggs {
				if a.Func == AggCount || a.Func == AggFirst {
					continue
				}
				v := col(a.Col).Get(r)
				switch {
				case a.Func == AggMin && v.Kind == vector.F64:
					if v.F < g.flts[ai] {
						g.flts[ai] = v.F
					}
				case a.Func == AggMin:
					g.ints[ai] = min(g.ints[ai], v.I)
				case a.Func == AggMax && v.Kind == vector.F64:
					if v.F > g.flts[ai] {
						g.flts[ai] = v.F
					}
				case a.Func == AggMax:
					g.ints[ai] = max(g.ints[ai], v.I)
				default:
					g.ints[ai] += v.I
					g.flts[ai] += v.F
				}
			}
		}
		tables = append(tables, t)
	}
	for len(tables) > 1 {
		var next []*refTable
		for i := 0; i < len(tables); i += 2 {
			dst := tables[i]
			if i+1 < len(tables) {
				src := tables[i+1]
				for _, id := range src.order {
					sg := src.groups[id]
					g, ok := dst.groups[id]
					if !ok {
						dst.groups[id] = sg
						dst.order = append(dst.order, id)
						continue
					}
					g.count += sg.count
					for ai, a := range aggs {
						switch a.Func {
						case AggMin:
							if sg.flts[ai] < g.flts[ai] {
								g.flts[ai] = sg.flts[ai]
							}
							g.ints[ai] = min(g.ints[ai], sg.ints[ai])
						case AggMax:
							if sg.flts[ai] > g.flts[ai] {
								g.flts[ai] = sg.flts[ai]
							}
							g.ints[ai] = max(g.ints[ai], sg.ints[ai])
						case AggSum, AggAvg:
							g.ints[ai] += sg.ints[ai]
							g.flts[ai] += sg.flts[ai]
						}
					}
				}
			}
			next = append(next, dst)
		}
		tables = next
	}
	var groups []*refGroup
	if len(tables) == 1 {
		for _, id := range tables[0].order {
			groups = append(groups, tables[0].groups[id])
		}
	}
	slices.SortFunc(groups, func(a, b *refGroup) int {
		for k := range a.key {
			if c := cmp.Compare(a.key[k].I, b.key[k].I); c != 0 {
				return c
			}
			if c := strings.Compare(a.key[k].S, b.key[k].S); c != 0 {
				return c
			}
		}
		return 0
	})
	var out []string
	for _, g := range groups {
		row := append([]vector.Value(nil), g.key...)
		for ai, a := range aggs {
			in := vector.Invalid
			if a.Func != AggCount {
				in = col(a.Col).Kind()
			}
			switch {
			case a.Func == AggCount:
				row = append(row, vector.I64Value(g.count))
			case a.Func == AggFirst:
				row = append(row, g.first[ai])
			case a.Func == AggAvg && in == vector.F64:
				row = append(row, vector.F64Value(g.flts[ai]/float64(g.count)))
			case a.Func == AggAvg:
				row = append(row, vector.F64Value(float64(g.ints[ai])/float64(g.count)))
			case in == vector.F64:
				row = append(row, vector.F64Value(g.flts[ai]))
			case in == vector.I32:
				row = append(row, vector.IntValue(in, int64(int32(g.ints[ai]))))
			default:
				row = append(row, vector.IntValue(in, g.ints[ai]))
			}
		}
		out = append(out, encodeRow(row))
	}
	return out
}

// encodeRow renders a row byte-exactly: kinds, integers in decimal, strings
// raw and floats as their IEEE-754 bits.
func encodeRow(row []vector.Value) string {
	var sb strings.Builder
	for _, v := range row {
		switch v.Kind {
		case vector.F64:
			fmt.Fprintf(&sb, "%v:%016x|", v.Kind, math.Float64bits(v.F))
		case vector.Str:
			fmt.Fprintf(&sb, "%v:%q|", v.Kind, v.S)
		default:
			fmt.Fprintf(&sb, "%v:%d|", v.Kind, v.I)
		}
	}
	return sb.String()
}

func encodeStore(st *vector.DSMStore) []string {
	var out []string
	for r := 0; r < st.Rows(); r++ {
		var row []vector.Value
		for c := range st.Schema().Names {
			row = append(row, st.Col(c).Get(r))
		}
		out = append(out, encodeRow(row))
	}
	return out
}

// TestAggMatrixMatchesReference pits ParallelAgg and HashAgg (pre-aggregation
// off) against refAggregate, byte for byte, across every key shape, every
// aggregate function over i64, i32 and f64 (NaN included for min and max),
// input chunks with and without selection vectors, morsel lengths from one
// row to the whole table, and one and four workers. The s3 and s4 key sets
// are adversarial for the identity memo: strings that share a data pointer
// but not a length, and equal strings that share nothing.
func TestAggMatrixMatchesReference(t *testing.T) {
	st := aggMatrixTable(3000, 50, 41)
	flt := st.Col(st.Schema().ColumnIndex("flt")).I64()
	for _, keys := range [][]string{nil, {"k"}, {"s"}, {"s", "k2"}, {"s", "s2"}, {"k2", "s2"}, {"k", "k2"},
		{"s3"}, {"s3", "s2"}, {"s4", "s2"}, {"k", "s3"}} {
		for _, filtered := range []bool{false, true} {
			keep := func(r int) bool { return !filtered || flt[r] < 60 }
			pipe := func(leaf Operator) Operator {
				if !filtered {
					return leaf
				}
				return NewFilter(leaf, dsl.MustParseLambda(`(\x -> x < 60)`), "flt")
			}
			name := fmt.Sprintf("keys=%v/sel=%v", keys, filtered)
			scan, err := NewScan(st)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(t.Context(), NewHashAgg(pipe(scan), keys, aggMatrixAggs).SetPreAgg(PreAggOff))
			if err != nil {
				t.Fatal(err)
			}
			want := refAggregate(st, keys, aggMatrixAggs, keep, st.Rows())
			if !slices.Equal(encodeStore(got), want) {
				t.Fatalf("%s: HashAgg differs from the row-order reference\n got: %v\nwant: %v", name, encodeStore(got), want)
			}
			for _, morselLen := range []int{1, 7, 16384} {
				want := refAggregate(st, keys, aggMatrixAggs, keep, morselLen)
				for _, workers := range []int{1, 4} {
					pa, err := NewParallelAgg(st, nil, workers, func(_ int, leaf Operator) (Operator, error) {
						return pipe(leaf), nil
					}, keys, aggMatrixAggs)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Collect(t.Context(), pa.SetMorselLen(morselLen))
					if err != nil {
						t.Fatal(err)
					}
					if g := encodeStore(got); !slices.Equal(g, want) {
						t.Fatalf("%s/morsel=%d/workers=%d: ParallelAgg differs from the reference\n got: %v\nwant: %v", name, morselLen, workers, g, want)
					}
				}
			}
		}
	}
}

// TestHashAggPreAggMatchesReference: forced pre-aggregation over keys too
// many for its slots — so groups are evicted and the pre-aggregation table
// is compacted again and again — still yields the row-order fold's bytes
// for every aggregate whose result cannot depend on blocking: all but those
// over f64 — sums and averages round per block, and min and max over NaN
// keep a block's leading NaN (see TestAggMatrixMatchesReference).
func TestHashAggPreAggMatchesReference(t *testing.T) {
	st := aggMatrixTable(20000, 3000, 43)
	var aggs []Aggregate
	for _, a := range aggMatrixAggs {
		if a.Col != "g" && a.Col != "f" {
			aggs = append(aggs, a)
		}
	}
	for _, keys := range [][]string{{"k"}, {"s", "k"}} {
		scan, err := NewScan(st)
		if err != nil {
			t.Fatal(err)
		}
		h := NewHashAgg(scan, keys, aggs).SetPreAgg(PreAggOn)
		got, err := Collect(t.Context(), h)
		if err != nil {
			t.Fatal(err)
		}
		want := refAggregate(st, keys, aggs, func(int) bool { return true }, st.Rows())
		if g := encodeStore(got); !slices.Equal(g, want) {
			t.Fatalf("keys=%v: pre-aggregated HashAgg differs from the reference", keys)
		}
		if h.PreAggMisses < 4*preAggSlots || h.PreAggFlushes != h.PreAggMisses {
			t.Fatalf("keys=%v: %d misses, %d flushes; want over %d misses, each flushed once", keys, h.PreAggMisses, h.PreAggFlushes, 4*preAggSlots)
		}
	}
}

// TestAbsorbSteadyStateAllocatesNothing: once a chunk's groups exist,
// absorbing it again — with or without a selection vector — allocates
// nothing, for a one-i64-key and a two-str-key table.
func TestAbsorbSteadyStateAllocatesNothing(t *testing.T) {
	st := aggMatrixTable(1024, 50, 42)
	var child []ColInfo
	cols := make([]*vector.Vector, len(st.Schema().Names))
	for i, name := range st.Schema().Names {
		child = append(child, ColInfo{Name: name, Kind: st.Schema().Kinds[i]})
		cols[i] = st.Col(i)
	}
	chunk := vector.ChunkFrom(st.Schema().Names, cols)
	selected := vector.ChunkFrom(st.Schema().Names, cols)
	selected.SetSel(vector.Sel{1, 5, 6, 300, 1000})
	aggs := []Aggregate{
		{Func: AggSum, Col: "g", As: "sum_g"},
		{Func: AggAvg, Col: "w", As: "avg_w"},
		{Func: AggMin, Col: "f", As: "min_f"},
		{Func: AggMax, Col: "v", As: "max_v"},
		{Func: AggCount, As: "n"},
		{Func: AggFirst, Col: "s", As: "first_s"},
	}
	for _, keys := range [][]string{{"k"}, {"s", "s2"}} {
		spec, _, err := newAggSpec(child, keys, aggs)
		if err != nil {
			t.Fatal(err)
		}
		tbl := newAggTable(spec, 0)
		tbl.absorb(chunk)
		for _, c := range []*vector.Chunk{chunk, selected} {
			if n := testing.AllocsPerRun(20, func() { tbl.absorb(c) }); n != 0 {
				t.Errorf("keys=%v sel=%v: absorb allocates %v times per chunk, want 0", keys, c.Sel() != nil, n)
			}
		}
		tbl.release()
	}
}

// TestSharedAccumulatorsMatchReference: a sum and an avg over one column
// share one accumulator — in either order, next to a min and a max of the
// same column, which keep their own — over an integer, a narrow integer and
// an f64 column, and the results stay byte-identical to the reference fold
// in HashAgg and in ParallelAgg.
func TestSharedAccumulatorsMatchReference(t *testing.T) {
	st := aggMatrixTable(3000, 50, 44)
	aggs := []Aggregate{
		{Func: AggAvg, Col: "v", As: "avg_v"},
		{Func: AggSum, Col: "v", As: "sum_v"},
		{Func: AggMin, Col: "v", As: "min_v"},
		{Func: AggMax, Col: "v", As: "max_v"},
		{Func: AggSum, Col: "g", As: "sum_g"},
		{Func: AggMin, Col: "g", As: "min_g"},
		{Func: AggAvg, Col: "g", As: "avg_g"},
		{Func: AggMax, Col: "g", As: "max_g"},
		{Func: AggSum, Col: "w", As: "sum_w"},
		{Func: AggAvg, Col: "w", As: "avg_w"},
		{Func: AggCount, As: "n"},
	}
	var child []ColInfo
	for i, name := range st.Schema().Names {
		child = append(child, ColInfo{Name: name, Kind: st.Schema().Kinds[i]})
	}
	spec, _, err := newAggSpec(child, []string{"k"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 2, 3, 4, 5, 4, 7, 8, 8, 10}; !slices.Equal(spec.accOf, want) {
		t.Fatalf("accOf = %v, want %v", spec.accOf, want)
	}
	tbl := newAggTable(spec, 0)
	for ai, owner := range spec.accOf {
		if shares := tbl.acc[ai] == tbl.acc[owner]; owner != ai && !shares {
			t.Errorf("aggregate %s does not share %s's accumulator", aggs[ai].As, aggs[owner].As)
		}
	}
	tbl.release()

	all := func(int) bool { return true }
	for _, keys := range [][]string{{"k"}, {"s", "s2"}} {
		scan, err := NewScan(st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(t.Context(), NewHashAgg(scan, keys, aggs).SetPreAgg(PreAggOff))
		if err != nil {
			t.Fatal(err)
		}
		if g, want := encodeStore(got), refAggregate(st, keys, aggs, all, st.Rows()); !slices.Equal(g, want) {
			t.Fatalf("keys=%v: HashAgg differs from the reference\n got: %v\nwant: %v", keys, g, want)
		}
		for _, morselLen := range []int{7, 512} {
			pa, err := NewParallelAgg(st, nil, 2, func(_ int, leaf Operator) (Operator, error) { return leaf, nil }, keys, aggs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(t.Context(), pa.SetMorselLen(morselLen))
			if err != nil {
				t.Fatal(err)
			}
			if g, want := encodeStore(got), refAggregate(st, keys, aggs, all, morselLen); !slices.Equal(g, want) {
				t.Fatalf("keys=%v/morsel=%d: ParallelAgg differs from the reference\n got: %v\nwant: %v", keys, morselLen, g, want)
			}
		}
	}
}

// TestReleaseUnsharesAccumulators: a pooled table that served a spec whose
// sum and avg share an accumulator comes back, under a spec that does not
// share and wants the same kinds in the same slots, with one vector per
// slot — not two slots folding into one vector.
func TestReleaseUnsharesAccumulators(t *testing.T) {
	st := aggMatrixTable(256, 10, 45)
	var child []ColInfo
	cols := make([]*vector.Vector, len(st.Schema().Names))
	for i, name := range st.Schema().Names {
		child = append(child, ColInfo{Name: name, Kind: st.Schema().Kinds[i]})
		cols[i] = st.Col(i)
	}
	chunk := vector.ChunkFrom(st.Schema().Names, cols)
	sharing, _, err := newAggSpec(child, []string{"k"}, []Aggregate{
		{Func: AggSum, Col: "v", As: "sum_v"}, {Func: AggAvg, Col: "v", As: "avg_v"}})
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := newAggSpec(child, []string{"k"}, []Aggregate{
		{Func: AggSum, Col: "v", As: "sum_v"}, {Func: AggSum, Col: "k2", As: "sum_k2"}})
	if err != nil {
		t.Fatal(err)
	}
	for range 20 {
		tbl := newAggTable(sharing, 0)
		tbl.absorb(chunk)
		tbl.release()
		tbl = newAggTable(plain, 0)
		for i, a := range tbl.acc {
			for j, b := range tbl.acc[:i] {
				if a == b {
					t.Fatalf("acc slots %d and %d alias one vector after release", j, i)
				}
			}
		}
		tbl.release()
	}
}
