package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dsl"
	"repro/internal/vector"
)

// codedCopy returns st with every Str column dictionary-coded.
func codedCopy(st *vector.DSMStore) *vector.DSMStore {
	cols := make([]*vector.Vector, len(st.Schema().Names))
	for i := range cols {
		cols[i] = st.Col(i)
		if cols[i].Kind() == vector.Str {
			cols[i] = vector.Encode(cols[i].Str())
		}
	}
	return vector.DSMStoreOf(st.Schema(), cols...)
}

// tableGroups renders t's groups in group-id (first-seen) order: the key
// strings or values, the row count and every accumulator.
func tableGroups(t *aggTable) []string {
	out := make([]string, t.n)
	for g := range out {
		var b strings.Builder
		for k, kind := range t.spec.keyKinds {
			if kind == vector.Str {
				fmt.Fprintf(&b, "%q|", t.keys.d[k][t.keys.i[k][g]])
			} else {
				fmt.Fprintf(&b, "%d|", t.keys.i[k][g])
			}
		}
		fmt.Fprintf(&b, "n=%d", t.count[g])
		for _, acc := range t.acc {
			if acc != nil {
				fmt.Fprintf(&b, "|%v", acc.Get(g))
			}
		}
		out[g] = b.String()
	}
	return out
}

// TestAggMatrixCodedMatchesReference runs the aggregation matrix over the
// matrix table with its Str columns coded: HashAgg with pre-aggregation off
// and on, and ParallelAgg at several morsel lengths and worker counts, must
// give the bytes the reference gives for the plain table. The key sets
// cover the dense path (every key coded, small dictionaries), the id path
// (a coded key beside an i64 key) and first over a coded column.
func TestAggMatrixCodedMatchesReference(t *testing.T) {
	plain := aggMatrixTable(3000, 50, 41)
	st := codedCopy(plain)
	flt := st.Col(st.Schema().ColumnIndex("flt")).I64()
	for _, keys := range [][]string{{"s"}, {"s", "s2"}, {"s4", "s2"}, {"k", "s3"}, {"s", "k2"}} {
		for _, filtered := range []bool{false, true} {
			keep := func(r int) bool { return !filtered || flt[r] < 60 }
			pipe := func(leaf Operator) Operator {
				if !filtered {
					return leaf
				}
				return NewFilter(leaf, dsl.MustParseLambda(`(\x -> x < 60)`), "flt")
			}
			name := fmt.Sprintf("keys=%v/sel=%v", keys, filtered)
			for _, mode := range []PreAggMode{PreAggOff, PreAggOn} {
				scan, err := NewScan(st)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Collect(t.Context(), NewHashAgg(pipe(scan), keys, aggMatrixAggs).SetPreAgg(mode))
				if err != nil {
					t.Fatal(err)
				}
				want := refAggregate(plain, keys, aggMatrixAggs, keep, st.Rows())
				if mode == PreAggOn {
					// Pre-aggregation blocks the f64 sums by its evictions:
					// compare it with the plain table under the same mode.
					scan, _ := NewScan(plain)
					ref, err := Collect(t.Context(), NewHashAgg(pipe(scan), keys, aggMatrixAggs).SetPreAgg(mode))
					if err != nil {
						t.Fatal(err)
					}
					want = encodeStore(ref)
				}
				if g := encodeStore(got); !slices.Equal(g, want) {
					t.Fatalf("%s/preagg=%v: coded HashAgg differs\n got: %v\nwant: %v", name, mode, g, want)
				}
			}
			for _, morselLen := range []int{7, 16384} {
				want := refAggregate(plain, keys, aggMatrixAggs, keep, morselLen)
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
						t.Fatalf("%s/morsel=%d/workers=%d: coded ParallelAgg differs\n got: %v\nwant: %v", name, morselLen, workers, g, want)
					}
				}
			}
		}
	}
}

// TestGroupPaths pins which path each key shape takes and that every path
// groups like the plain strings.
func TestGroupPaths(t *testing.T) {
	const rows = 5000
	small, big := make([]string, rows), make([]string, rows)
	huge := make([]string, 1<<17)
	ks := make([]int64, rows)
	for i := range rows {
		small[i] = fmt.Sprintf("s%d", i%7)
		big[i] = fmt.Sprintf("b%d", (i*7919)%(denseMax+100))
		ks[i] = int64(i % 3)
	}
	for i := range huge {
		huge[i] = fmt.Sprintf("h%d", i)
	}
	hugeCol := vector.Encode(huge).Slice(0, rows)
	for _, tc := range []struct {
		name string
		cols []*vector.Vector
		want groupPath
	}{
		{"one coded key", []*vector.Vector{vector.Encode(small)}, pathDense},
		{"two small coded keys", []*vector.Vector{vector.Encode(small), vector.Encode(slices.Concat(small[3:], small[:3]))}, pathDense},
		{"dictionaries too large together", []*vector.Vector{vector.Encode(small), vector.Encode(big)}, pathIDs},
		{"coded and i64", []*vector.Vector{vector.Encode(small), vector.FromI64(ks)}, pathIDs},
		{"plain", []*vector.Vector{vector.FromStr(small)}, pathStrings},
		{"large dictionary", []*vector.Vector{hugeCol}, pathIDs},
		{"i64", []*vector.Vector{vector.FromI64(ks)}, pathInts},
	} {
		var child []ColInfo
		var names, keys []string
		var plainCols []*vector.Vector
		for i, c := range tc.cols {
			name := fmt.Sprintf("k%d", i)
			child = append(child, ColInfo{Name: name, Kind: c.Kind()})
			names, keys = append(names, name), append(keys, name)
			if c.Coded() {
				plainCols = append(plainCols, vector.FromStr(slices.Clone(c.Str())))
			} else {
				plainCols = append(plainCols, c)
			}
		}
		spec, _, err := newAggSpec(child, keys, []Aggregate{{Func: AggCount, As: "n"}})
		if err != nil {
			t.Fatal(err)
		}
		got, want := newAggTable(spec, 0), newAggTable(spec, 0)
		got.absorb(vector.ChunkFrom(names, tc.cols))
		want.absorb(vector.ChunkFrom(names, plainCols))
		if got.paths.String() != tc.want.String() {
			t.Errorf("%s: path %v, want %v", tc.name, got.paths, tc.want)
		}
		if g, w := tableGroups(got), tableGroups(want); !slices.Equal(g, w) {
			t.Errorf("%s: groups differ from the plain strings'\n got: %v\nwant: %v", tc.name, g, w)
		}
		got.release()
		want.release()
	}
	if s := (pathIDs | pathInts).String(); s != "code-ids" {
		t.Errorf("a Str key beside an i64 key is named %q", s)
	}
	if s := (pathDense | pathIDs).String(); s != "dense-codes+code-ids" {
		t.Errorf("two paths are named %q", s)
	}
}

// FuzzCodedGroupBy: grouping coded keys — one or two, over dictionaries
// that may hold one string under several codes, through a selection or
// without, in two chunks over different dictionaries — gives the groups,
// first-seen order, counts and sums that grouping the decoded strings
// gives.
func FuzzCodedGroupBy(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, uint8(4), false, false)
	f.Add([]byte{5, 5, 1, 0, 9, 200, 3, 3, 3, 1}, uint8(7), true, true)
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(255), true, false)
	f.Fuzz(func(t *testing.T, raw []byte, dictSize uint8, two, useSel bool) {
		if len(raw) == 0 || dictSize == 0 || len(raw) > 4096 {
			return
		}
		pool := []string{"", "x", "y", "xy", "z", "zz", "x"}
		dictA := make([]string, dictSize)
		dictB := make([]string, dictSize)
		for i := range dictA {
			dictA[i] = pool[(i*int(raw[i%len(raw)]))%len(pool)]
			dictB[i] = pool[(i+int(dictSize))%len(pool)] + fmt.Sprint(i%3)
		}
		// Each key column is two chunks: the first coded over dictA, the
		// second over the reversed dictionary.
		revA := slices.Clone(dictA)
		slices.Reverse(revA)
		var sel vector.Sel
		n := len(raw)
		codesA, codesB, vals := make([]int32, n), make([]int32, n), make([]int64, n)
		for i, b := range raw {
			codesA[i] = int32(b) % int32(dictSize)
			codesB[i] = int32(b/3) % int32(dictSize)
			vals[i] = int64(b) - 100
			if useSel && b%3 != 0 {
				sel = append(sel, int32(i))
			}
		}
		child := []ColInfo{{Name: "a", Kind: vector.Str}, {Name: "b", Kind: vector.Str}, {Name: "v", Kind: vector.I64}}
		keys := []string{"a"}
		if two {
			keys = append(keys, "b")
		}
		spec, _, err := newAggSpec(child, keys, []Aggregate{{Func: AggSum, Col: "v", As: "s"}, {Func: AggCount, As: "n"}})
		if err != nil {
			t.Fatal(err)
		}
		got, want := newAggTable(spec, 0), newAggTable(spec, 0)
		defer got.release()
		defer want.release()
		for _, dict := range [][]string{dictA, revA} {
			a, b := vector.FromCodes(codesA, dict), vector.FromCodes(codesB, dictB)
			coded := vector.ChunkFrom([]string{"a", "b", "v"}, []*vector.Vector{a, b, vector.FromI64(vals)})
			plain := vector.ChunkFrom([]string{"a", "b", "v"}, []*vector.Vector{
				vector.FromStr(slices.Clone(a.Str())), vector.FromStr(slices.Clone(b.Str())), vector.FromI64(vals)})
			if useSel {
				coded.SetSel(sel)
				plain.SetSel(sel)
			}
			got.absorb(coded)
			want.absorb(plain)
		}
		if g, w := tableGroups(got), tableGroups(want); !slices.Equal(g, w) {
			t.Fatalf("coded grouping (path %v) differs from the strings'\n got: %v\nwant: %v", got.paths, g, w)
		}
	})
}
