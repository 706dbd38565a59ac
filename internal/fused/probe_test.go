package fused_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/fused"
	"repro/internal/vector"
)

// probeRunTable is a probe side whose keys come in runs, as a fact table
// clustered by its foreign key: k is the key, r the row number, and edge
// is 0 on the first and last row of a run and 1 inside it. Runs are 1 to
// 100 rows long, so with 64-row chunks many cross a chunk boundary and some
// fill whole chunks; hit runs (keys the build sides hold) alternate with
// miss runs, and the keys include 0, -1, MinInt64 and MaxInt64.
func probeRunTable() *vector.DSMStore {
	st := vector.NewDSMStore(vector.NewSchema("k", vector.I64, "r", vector.I64, "edge", vector.I64, "x", vector.F64))
	hits := []int64{0, 7, math.MinInt64, 3, -1, 12, 7, 0, 5}
	misses := []int64{1000, math.MaxInt64, -7, 2000}
	lens := []int{3, 1, 48, 5, 100, 2, 64, 7, 70}
	row := 0
	for i := 0; i < 40; i++ {
		k := hits[i/2%len(hits)]
		if i%2 == 1 {
			k = misses[i/2%len(misses)]
		}
		n := lens[i%len(lens)]
		for j := 0; j < n; j++ {
			edge := int64(1)
			if j == 0 || j == n-1 {
				edge = 0
			}
			st.AppendRow(vector.I64Value(k), vector.I64Value(int64(row)), vector.I64Value(edge), vector.F64Value(float64(row)/4))
			row++
		}
	}
	return st
}

// probeBuildSide is a (bk i64, <pay> i64) build side: each key in keys
// appears dup(i) times, so matches are many-to-many.
func probeBuildSide(pay string, keys []int64, dup func(i int) int, scale int64) *vector.DSMStore {
	st := vector.NewDSMStore(vector.NewSchema("bk", vector.I64, pay, vector.I64))
	for i, k := range keys {
		for d := 0; d < dup(i); d++ {
			st.AppendRow(vector.I64Value(k), vector.I64Value(scale*int64(i)+int64(d)))
		}
	}
	return st
}

// sharedOver indexes a build side at the given partition count: 1 is the
// serial build, more goes through the morsel-parallel build.
func sharedOver(t *testing.T, st *vector.DSMStore, pay string, parts int) *engine.SharedJoinTable {
	t.Helper()
	sh := engine.NewSharedJoinTable([]engine.ColInfo{ci("bk", vector.I64), ci(pay, vector.I64)},
		func(ctx context.Context) (*engine.JoinTable, error) {
			if parts == 1 {
				return engine.NewJoinTable(st, "bk")
			}
			return engine.BuildJoinTableParallel(ctx, st, []string{"bk", pay}, parts, 2, 2, "bk",
				func(_ int, leaf engine.Operator) (engine.Operator, error) { return leaf, nil })
		})
	tbl, err := sh.Table(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Partitions() != parts {
		t.Fatalf("built %d partitions, want %d", tbl.Partitions(), parts)
	}
	return sh
}

// TestFusedProbeMatchesTableProbe: fused probe segments emit the
// interpreted TableProbe chain's bytes, whether the Exec lends its output
// (gathering into reused buffers) or owns it (its chunks held to the end of
// the stream, as an exchange holds them), at one and at four partitions.
// The data has key runs that cross chunk boundaries, runs whose middles a
// filter drops, alternating hit and miss runs, many-to-many matches and
// two probes in one segment against different build sides on the same key,
// so a run memo that outlived its probe would reuse the other table's
// matches.
func TestFusedProbeMatchesTableProbe(t *testing.T) {
	const chunkLen = 64
	st := probeRunTable()
	cols := []string{"k", "r", "edge", "x"}
	scan := []engine.ColInfo{ci("k", vector.I64), ci("r", vector.I64), ci("edge", vector.I64), ci("x", vector.F64)}
	build1 := probeBuildSide("pay", []int64{0, -1, math.MinInt64, 3, 5, 7, 12},
		func(i int) int { return i%3 + 1 }, 100)
	build2 := probeBuildSide("pay2", []int64{12, 7, 5, 3, math.MinInt64, 0},
		func(i int) int { return 2 - i%2 }, 1000)
	probe := func(pay string, table int) fused.Stage {
		return fused.Stage{Kind: fused.StageProbe, ProbeKey: "k", Payload: []string{pay},
			BuildNames: []string{"bk", pay}, BuildKinds: []vector.Kind{vector.I64, vector.I64}, Table: table}
	}
	filter := func(lambda, col string) fused.Stage {
		return fused.Stage{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(lambda), Col: col}
	}
	cases := []struct {
		name   string
		stages []fused.Stage
	}{
		{"dense", []fused.Stage{probe("pay", 0)}},
		{"run-edges", []fused.Stage{filter(`(\e -> e == 0)`, "edge"), probe("pay", 0)}},
		{"every-third-row", []fused.Stage{filter(`(\r -> (r % 3) == 1)`, "r"), probe("pay", 0)}},
		{"two-probes", []fused.Stage{probe("pay", 0), probe("pay2", 1),
			{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\p q -> p + q * 2)`), Out: "s", OutKind: vector.I64, Cols: []string{"pay", "pay2"}}}},
		{"filter-two-probes", []fused.Stage{filter(`(\r -> (r % 3) == 1)`, "r"), probe("pay", 0), probe("pay2", 1),
			filter(`(\p -> p < 400)`, "pay")}},
	}
	for _, parts := range []int{1, 4} {
		tables := []*engine.SharedJoinTable{sharedOver(t, build1, "pay", parts), sharedOver(t, build2, "pay2", parts)}
		for _, tc := range cases {
			prog, ok := fused.Compile(scan, tc.stages)
			if !ok {
				t.Fatalf("%s: segment must compile", tc.name)
			}
			want := runInterp(t, st, cols, func(op engine.Operator) engine.Operator {
				for _, s := range tc.stages {
					switch s.Kind {
					case fused.StageFilter:
						op = engine.NewFilter(op, s.Fn, s.Col)
					case fused.StageCompute:
						op = engine.NewCompute(op, s.Out, s.Fn, s.OutKind, s.Cols...)
					case fused.StageProbe:
						tp, err := engine.NewTableProbe(op, tables[s.Table], s.ProbeKey, s.Payload...)
						if err != nil {
							t.Fatal(err)
						}
						op = tp
					}
				}
				return op
			})
			if want.Rows() == 0 {
				t.Fatalf("%s: the interpreted chain emitted nothing", tc.name)
			}
			for _, lend := range []bool{true, false} {
				name := fmt.Sprintf("parts=%d/%s/lend=%v", parts, tc.name, lend)
				got := runProbeExec(t, prog, st, cols, chunkLen, lend, tables)
				t.Run(name, func(t *testing.T) { storesEqual(t, got, want) })
			}
		}
	}
}

// runProbeExec drives prog over a PartScan of st in chunkLen-row chunks. A
// lent Exec's chunks are copied before the next Next, as the lending
// contract requires; an owned Exec's chunks are held until the stream ends
// and copied only then, so a column that aliased reused storage would show
// a later chunk's values.
func runProbeExec(t *testing.T, prog *fused.Program, st *vector.DSMStore, cols []string,
	chunkLen int, lend bool, tables []*engine.SharedJoinTable) *vector.DSMStore {
	t.Helper()
	leaf, err := engine.NewPartScan(st, cols...)
	if err != nil {
		t.Fatal(err)
	}
	leaf.SetChunkLen(chunkLen)
	if lend {
		leaf.Lend()
	}
	ex := fused.NewExec(prog, leaf, tables, nil)
	ctx := context.Background()
	if err := ex.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	leaf.SetRange(0, st.Rows())
	got := vector.NewDSMStore(storeSchema(prog.Schema()))
	var held []*vector.Chunk
	for {
		c, err := ex.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			break
		}
		if lend {
			got.AppendChunk(c)
		} else {
			held = append(held, c)
		}
	}
	for _, c := range held {
		got.AppendChunk(c)
	}
	return got
}
