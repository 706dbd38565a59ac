package fused

import (
	"context"
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
