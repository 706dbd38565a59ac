package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vector"
)

// foldColumnwise is the column-at-a-time fold that fold's row-major blocks
// replace, written over boxed values: the row count, then one pass over the
// rows per accumulator, each adding (or comparing) its group's rows in row
// order. It seeds new groups exactly as fold does.
func foldColumnwise(t *aggTable, vals []*vector.Vector, counts []int64, sel vector.Sel) {
	gids := t.gids
	t.count = extend(t.count, t.n)
	for i, g := range gids {
		if counts == nil {
			t.count[g]++
		} else {
			t.count[g] += counts[rowAt(sel, i)]
		}
	}
	for ai, a := range t.spec.aggs {
		acc, col := t.acc[ai], vals[ai]
		if acc == nil || t.spec.accOf[ai] != ai {
			continue
		}
		old := acc.Len()
		acc.SetLen(t.n)
		// widen reads row r of col as a value of the accumulator's kind.
		widen := func(r int) vector.Value {
			v := col.Get(r)
			if acc.Kind() != vector.F64 && a.Func != AggFirst {
				v = vector.I64Value(v.I)
			}
			return v
		}
		for j, r := range t.fresh {
			if a.Func == AggMin || a.Func == AggMax || a.Func == AggFirst {
				acc.Set(old+j, widen(int(r)))
			} else {
				acc.Set(old+j, vector.Value{Kind: acc.Kind()})
			}
		}
		if a.Func == AggFirst {
			continue
		}
		for i, g := range gids {
			v, cur := widen(rowAt(sel, i)), acc.Get(int(g))
			f := acc.Kind() == vector.F64
			switch a.Func {
			case AggMin:
				if f && v.F < cur.F || !f && v.I < cur.I {
					cur = v
				}
			case AggMax:
				if f && v.F > cur.F || !f && v.I > cur.I {
					cur = v
				}
			default:
				cur.F += v.F
				cur.I += v.I
			}
			acc.Set(int(g), cur)
		}
	}
}

// foldFn is aggTable.fold or foldColumnwise.
type foldFn func(t *aggTable, vals []*vector.Vector, counts []int64, sel vector.Sel)

// absorbWith is aggTable.absorb with the fold step given.
func absorbWith(t *aggTable, c *vector.Chunk, fold foldFn) {
	sel, n := c.Sel(), c.Len()
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return
	}
	in := t.spec.columns(c, t.in)
	t.group(&in, sel, n)
	fold(t, t.in, nil, sel)
}

// mergeWith is aggTable.merge with the fold step given.
func mergeWith(t, src *aggTable, sel vector.Sel, fold foldFn) {
	n := src.n
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return
	}
	t.group(&src.keys, sel, n)
	fold(t, src.acc, src.count, sel)
}

// foldInput is the input of one fold comparison: a table of key k, nInts
// i64 columns i0…, nFlts f64 columns f0…, an i32 column w, and chunks of
// chunkLen rows over it, each optionally carrying a selection.
type foldInput struct {
	st     *vector.DSMStore
	aggs   []Aggregate
	chunks []*vector.Chunk
}

// foldPattern names how rows fall into groups.
type foldPattern int

const (
	patternOneRun   foldPattern = iota // every row in one group
	patternTwoGroup                    // two groups, interleaved at random
	patternMany                        // about 30 000 groups
)

func (p foldPattern) String() string {
	return [...]string{"one-run", "two-random", "30k-groups"}[p]
}

// specialF64 and specialI64 are the values a fold must carry bit for bit
// (every NaN as a NaN: see sameFold).
var (
	specialF64 = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e300, -1e-300}
	specialI64 = []int64{math.MinInt64, math.MaxInt64, -1, 0, 1}
)

// newFoldInput builds rows rows of the given pattern. Each aggregation
// carries nInts i64 sums and nFlts f64 sums over distinct columns — so none
// shares an accumulator — beside a count, an avg sharing the first sum's
// accumulator, min and max of i0 and f0, a narrow i32 sum and a first.
// With sel, every chunk selects about half its rows.
func newFoldInput(seed int64, rows, nInts, nFlts int, pat foldPattern, sel bool) *foldInput {
	rng := rand.New(rand.NewSource(seed))
	pairs := []any{"k", vector.I64, "w", vector.I32}
	for j := range max(nInts, 1) {
		pairs = append(pairs, fmt.Sprintf("i%d", j), vector.I64)
	}
	for j := range max(nFlts, 1) {
		pairs = append(pairs, fmt.Sprintf("f%d", j), vector.F64)
	}
	st := vector.NewDSMStore(vector.NewSchema(pairs...))
	row := make([]vector.Value, len(pairs)/2)
	for range rows {
		switch pat {
		case patternOneRun:
			row[0] = vector.I64Value(7)
		case patternTwoGroup:
			row[0] = vector.I64Value(rng.Int63n(2))
		default:
			row[0] = vector.I64Value(rng.Int63n(40000))
		}
		row[1] = vector.IntValue(vector.I32, rng.Int63n(1<<31)-(1<<30))
		for j := 2; j < len(row); j++ {
			if st.Schema().Kinds[j] == vector.I64 {
				v := rng.Int63n(1<<40) - 1<<39
				if rng.Intn(16) == 0 {
					v = specialI64[rng.Intn(len(specialI64))]
				}
				row[j] = vector.I64Value(v)
				continue
			}
			// Magnitudes spread over 30 decades, so reordering the adds of
			// one accumulator changes its rounding. Only every other f64
			// column carries special values, so the others keep finite sums
			// whose rounding shows the order of their adds.
			v := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(30)-10))
			if j%2 == 1 && rng.Intn(64) == 0 {
				v = specialF64[rng.Intn(len(specialF64))]
			}
			row[j] = vector.F64Value(v)
		}
		st.AppendRow(row...)
	}
	in := &foldInput{st: st, aggs: []Aggregate{{Func: AggCount, As: "n"}}}
	for j := range nInts {
		in.aggs = append(in.aggs, Aggregate{Func: AggSum, Col: fmt.Sprintf("i%d", j), As: fmt.Sprintf("sum_i%d", j)})
	}
	for j := range nFlts {
		in.aggs = append(in.aggs, Aggregate{Func: AggSum, Col: fmt.Sprintf("f%d", j), As: fmt.Sprintf("sum_f%d", j)})
	}
	in.aggs = append(in.aggs,
		Aggregate{Func: AggAvg, Col: "i0", As: "avg_i0"},
		Aggregate{Func: AggAvg, Col: "f0", As: "avg_f0"},
		Aggregate{Func: AggMin, Col: "i0", As: "min_i0"},
		Aggregate{Func: AggMax, Col: "f0", As: "max_f0"},
		Aggregate{Func: AggSum, Col: "w", As: "sum_w"},
		Aggregate{Func: AggFirst, Col: "f0", As: "first_f0"},
	)
	const chunkLen = 1024
	for lo := 0; lo < rows; lo += chunkLen {
		n := min(chunkLen, rows-lo)
		cols := make([]*vector.Vector, len(pairs)/2)
		for i := range cols {
			cols[i] = st.Col(i).Slice(lo, lo+n)
		}
		c := vector.ChunkFrom(st.Schema().Names, cols)
		if sel {
			s := vector.Sel{}
			for r := range n {
				if rng.Intn(2) == 0 {
					s = append(s, int32(r))
				}
			}
			c.SetSel(s)
		}
		in.chunks = append(in.chunks, c)
	}
	return in
}

// foldTables folds in's chunks into a table with fold. With merge, the
// chunks alternate between two tables, the second's groups merge into the
// first — all of them, then a reversed half through a selection as the
// pre-aggregation's evictions do — and the merged table is returned.
func (in *foldInput) foldTables(t *testing.T, fold foldFn, merge bool) *aggTable {
	var child []ColInfo
	for i, name := range in.st.Schema().Names {
		child = append(child, ColInfo{Name: name, Kind: in.st.Schema().Kinds[i]})
	}
	spec, _, err := newAggSpec(child, []string{"k"}, in.aggs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := newAggTable(spec, 0), newAggTable(spec, 0)
	for i, c := range in.chunks {
		if merge && i%2 == 1 {
			absorbWith(b, c, fold)
		} else {
			absorbWith(a, c, fold)
		}
	}
	if merge {
		half := vector.Sel{}
		for g := b.n - 1; g >= 0; g -= 2 {
			half = append(half, int32(g))
		}
		mergeWith(a, b, nil, fold)
		mergeWith(a, b, half, fold)
	}
	b.release()
	return a
}

// sameFold reports the first accumulator in which two tables differ bit
// for bit, or "". Every NaN equals every NaN: Go leaves a NaN's payload to
// the compiler, which may order the operands of an addition either way.
func sameFold(got, want *aggTable) string {
	if got.n != want.n {
		return fmt.Sprintf("%d groups, want %d", got.n, want.n)
	}
	for g := range want.n {
		if got.count[g] != want.count[g] {
			return fmt.Sprintf("count of group %d = %d, want %d", g, got.count[g], want.count[g])
		}
	}
	for ai, a := range want.spec.aggs {
		ga, wa := got.acc[ai], want.acc[ai]
		if wa == nil {
			continue
		}
		for g := range want.n {
			x, y := ga.Get(g), wa.Get(g)
			nan := math.IsNaN(x.F) && math.IsNaN(y.F)
			if x.Kind == vector.F64 && !nan && math.Float64bits(x.F) != math.Float64bits(y.F) || x.I != y.I {
				return fmt.Sprintf("%s of group %d = %v, want %v", a.As, g, x, y)
			}
		}
	}
	return ""
}

// checkFold compares fold with foldColumnwise over one input.
func checkFold(t *testing.T, name string, in *foldInput) {
	t.Helper()
	for _, merge := range []bool{false, true} {
		got := in.foldTables(t, (*aggTable).fold, merge)
		want := in.foldTables(t, foldColumnwise, merge)
		if d := sameFold(got, want); d != "" {
			t.Fatalf("%s/merge=%v: fold differs from the column-at-a-time fold: %s", name, merge, d)
		}
		got.release()
		want.release()
	}
}

// TestFoldMatchesColumnwise: the row-major block fold yields the bytes of
// the column-at-a-time fold for 0–9 i64 and 0–9 f64 sums — so blocks of
// four and every tail width are crossed in both lists — over one-group
// runs, two randomly interleaved groups and about 30 000 groups, dense and
// selected, absorbing chunks and merging tables.
func TestFoldMatchesColumnwise(t *testing.T) {
	for nInts := 0; nInts <= 9; nInts++ {
		for nFlts := 0; nFlts <= 9; nFlts++ {
			for _, pat := range []foldPattern{patternOneRun, patternTwoGroup} {
				for _, sel := range []bool{false, true} {
					name := fmt.Sprintf("ints=%d/flts=%d/%v/sel=%v", nInts, nFlts, pat, sel)
					checkFold(t, name, newFoldInput(int64(10*nInts+nFlts), 2500, nInts, nFlts, pat, sel))
				}
			}
		}
	}
	for _, n := range []int{0, 3, 5, 9} {
		for _, sel := range []bool{false, true} {
			name := fmt.Sprintf("ints=%d/flts=%d/%v/sel=%v", n, n, patternMany, sel)
			checkFold(t, name, newFoldInput(int64(n), 64<<10, n, n, patternMany, sel))
		}
	}
}

// FuzzAggFold compares fold with foldColumnwise on fuzzed shapes: the
// number of accumulators of each kind, the group pattern, the selection and
// the rows all come from the fuzzer.
func FuzzAggFold(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(4), uint8(0), false, uint16(3000))
	f.Add(int64(2), uint8(3), uint8(5), uint8(1), true, uint16(1500))
	f.Add(int64(3), uint8(9), uint8(9), uint8(2), true, uint16(4096))
	f.Fuzz(func(t *testing.T, seed int64, nInts, nFlts, pat uint8, sel bool, rows uint16) {
		in := newFoldInput(seed, int(rows%8192), int(nInts%10), int(nFlts%10), foldPattern(pat%3), sel)
		checkFold(t, fmt.Sprintf("seed=%d", seed), in)
	})
}

// foldShapes are BenchmarkAggFold's accumulator shapes: q1's (a count, an
// i64 sum and four f64 sums), q18like's (a count and an i64 sum) and q3's
// (a count, an f64 sum and two firsts).
var foldShapes = []struct {
	name string
	aggs []Aggregate
}{
	{"q1", []Aggregate{{Func: AggCount, As: "n"}, {Func: AggSum, Col: "i0", As: "a"},
		{Func: AggSum, Col: "f0", As: "b"}, {Func: AggSum, Col: "f1", As: "c"},
		{Func: AggSum, Col: "f2", As: "d"}, {Func: AggSum, Col: "f3", As: "e"}}},
	{"q18like", []Aggregate{{Func: AggCount, As: "n"}, {Func: AggSum, Col: "i0", As: "a"}}},
	{"q3", []Aggregate{{Func: AggCount, As: "n"}, {Func: AggSum, Col: "f0", As: "b"},
		{Func: AggFirst, Col: "i0", As: "c"}, {Func: AggFirst, Col: "w", As: "d"}}},
}

// BenchmarkAggFold prices fold alone — the accumulator step of absorb,
// after the rows have group ids — in ns per folded row, for each shape of
// foldShapes over one-run, two-random-group and 30k-group inputs of 32
// chunks of 1 024 rows, dense and with a 50 % selection. The table already
// holds every group, as in the steady state of a long run.
func BenchmarkAggFold(b *testing.B) {
	for _, shape := range foldShapes {
		for _, pat := range []foldPattern{patternOneRun, patternTwoGroup, patternMany} {
			for _, sel := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/sel=%v", shape.name, pat, sel)
				b.Run(name, func(b *testing.B) {
					in := newFoldInput(1, 32<<10, 1, 4, pat, sel)
					in.aggs = shape.aggs
					var child []ColInfo
					for i, name := range in.st.Schema().Names {
						child = append(child, ColInfo{Name: name, Kind: in.st.Schema().Kinds[i]})
					}
					spec, _, err := newAggSpec(child, []string{"k"}, in.aggs)
					if err != nil {
						b.Fatal(err)
					}
					tbl := newAggTable(spec, 0)
					defer tbl.release()
					// Group every chunk once: the groups exist from then on, so
					// fold creates none and each chunk's group ids stay valid.
					gids := make([][]int32, len(in.chunks))
					vals := make([][]*vector.Vector, len(in.chunks))
					rows := 0
					for i, c := range in.chunks {
						tbl.absorb(c)
						vals[i] = make([]*vector.Vector, len(spec.aggs))
						keys := spec.columns(c, vals[i])
						n := c.SelectedLen()
						tbl.group(&keys, c.Sel(), n)
						gids[i] = slices.Clone(tbl.gids)
						rows += n
					}
					b.ResetTimer()
					for range b.N {
						for i, c := range in.chunks {
							tbl.gids, tbl.fresh = gids[i], tbl.fresh[:0]
							tbl.fold(vals[i], nil, c.Sel())
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
				})
			}
		}
	}
}
