package fused

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/vector"
)

// TestProbeMatchingNothingCopiesNoColumn: a chunk whose probe finds no
// match ends as fully filtered without gathering, cloning or condensing a
// single column — not the probe-side slots, not the build side's payload —
// and the ops after the probe, which read payload slots, do not run on a
// half-built slot list.
func TestProbeMatchingNothingCopiesNoColumn(t *testing.T) {
	rows := vector.NewDSMStore(vector.NewSchema("bk", vector.I64, "pay", vector.I64))
	for k := int64(0); k < 4096; k++ {
		rows.AppendRow(vector.I64Value(k), vector.I64Value(k*10))
	}
	sh := engine.NewSharedJoinTable(
		[]engine.ColInfo{{Name: "bk", Kind: vector.I64}, {Name: "pay", Kind: vector.I64}},
		func(context.Context) (*engine.JoinTable, error) { return engine.NewJoinTable(rows, "bk") })
	scan := []engine.ColInfo{{Name: "k", Kind: vector.I64}, {Name: "x", Kind: vector.F64}}
	prog, ok := Compile(scan, []Stage{
		{Kind: StageCompute, Fn: dsl.MustParseLambda(`(\k -> k * 3 + 7)`), Out: "y", OutKind: vector.I64, Cols: []string{"k"}},
		{Kind: StageProbe, ProbeKey: "y", Payload: []string{"pay"},
			BuildNames: []string{"bk", "pay"}, BuildKinds: []vector.Kind{vector.I64, vector.I64}},
		{Kind: StageCompute, Fn: dsl.MustParseLambda(`(\p q -> p + q * 2)`), Out: "s", OutKind: vector.I64, Cols: []string{"k", "pay"}},
	})
	if !ok {
		t.Fatal("segment must compile")
	}
	st := vector.NewDSMStore(vector.NewSchema("k", vector.I64, "x", vector.F64))
	for i := 0; i < 1024; i++ {
		st.AppendRow(vector.I64Value(int64(10000+i)), vector.F64Value(float64(i)))
	}
	leaf, err := engine.NewPartScan(st, "k", "x")
	if err != nil {
		t.Fatal(err)
	}
	e := NewExec(prog, leaf, []*engine.SharedJoinTable{sh}, nil)
	if err := e.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	in := vector.ChunkFrom([]string{"k", "x"}, []*vector.Vector{st.Col(0), st.Col(1)})
	allocs := testing.AllocsPerRun(20, func() {
		if out := e.runChunk(in); out != nil {
			t.Fatalf("unmatched chunk emitted %v", out)
		}
	})
	if allocs != 0 {
		t.Fatalf("a probe matching nothing allocates %v objects per chunk, want 0", allocs)
	}
}

// BenchmarkFusedFilter prices the fused loop's filters per row read, at
// selectivities 1, 50 and 99 %, over chunks with no selection (dense) and
// over chunks whose selection keeps every other row (selective). "lt" is one
// comparison, `k < t`; "range" is a lower and an upper bound, `(k >= lo) &&
// (k < hi)`. The values are uniform in [0, 100) and the loop cycles through
// 64 distinct chunks, too many for a branch predictor to learn their
// outcomes: at 50 % a branch on the outcome mispredicts about every other
// row, and at 1 or 99 % it rarely does. The Exec lends its output, so no
// row is copied.
func BenchmarkFusedFilter(b *testing.B) {
	const n, chunks = vector.DefaultChunkLen, 64
	rng := rand.New(rand.NewSource(1))
	everyOther := make(vector.Sel, 0, n/2)
	for r := 0; r < n; r += 2 {
		everyOther = append(everyOther, int32(r))
	}
	for _, shape := range []string{"lt", "range"} {
		for _, input := range []struct {
			name string
			sel  vector.Sel
		}{{"dense", nil}, {"selective", everyOther}} {
			var ins []*vector.Chunk
			for c := 0; c < chunks; c++ {
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = rng.Int63n(100)
				}
				in := vector.ChunkFrom([]string{"k"}, []*vector.Vector{vector.FromI64(vals)})
				in.SetSel(input.sel)
				ins = append(ins, in)
			}
			for _, pct := range []int{1, 50, 99} {
				lambda := fmt.Sprintf(`(\k -> k < %d)`, pct)
				if shape == "range" {
					lo := (100 - pct) / 2
					lambda = fmt.Sprintf(`(\k -> (k >= %d) && (k < %d))`, lo, lo+pct)
				}
				b.Run(fmt.Sprintf("%s/%s/sel=%d%%", shape, input.name, pct), func(b *testing.B) {
					prog, ok := Compile([]engine.ColInfo{{Name: "k", Kind: vector.I64}},
						[]Stage{{Kind: StageFilter, Fn: dsl.MustParseLambda(lambda), Col: "k"}})
					if !ok {
						b.Fatal("filter must compile")
					}
					e := NewExec(prog, nil, nil, nil)
					e.lend = true
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						e.runChunk(ins[i%chunks])
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ins[0].SelectedLen()), "ns/row")
				})
			}
		}
	}
}
