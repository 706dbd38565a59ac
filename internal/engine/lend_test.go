package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/colstore"
	"repro/internal/vector"
)

// storedTable writes an n-row table (i64 key, f64 value, str tag) into a
// fresh colstore directory and opens it, returning the in-RAM source too.
func storedTable(t *testing.T, n int) (*colstore.Table, *vector.DSMStore) {
	t.Helper()
	src := vector.NewDSMStore(vector.NewSchema("k", vector.I64, "x", vector.F64, "s", vector.Str))
	for i := 0; i < n; i++ {
		src.AppendRow(vector.I64Value(int64(i%4)), vector.F64Value(float64(i)/8), vector.StrValue(fmt.Sprint("t", i%5)))
	}
	dir := t.TempDir()
	if err := colstore.Write(dir, src, colstore.WriteOptions{SegmentRows: 1000}); err != nil {
		t.Fatal(err)
	}
	tbl, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.Close() })
	return tbl, src
}

// TestScanChunksStayValidColstore is TestScanChunksStayValid over a store
// that decodes instead of handing out views: a serial scan's chunks are
// owned, so each held chunk keeps its rows and no two share a buffer.
func TestScanChunksStayValidColstore(t *testing.T) {
	tbl, src := storedTable(t, 2500)
	sc, err := NewScan(tbl)
	if err != nil {
		t.Fatal(err)
	}
	sc.SetChunkLen(96)
	var held []*vector.Chunk
	if err := Drain(context.Background(), sc, func(c *vector.Chunk) error {
		held = append(held, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	row := 0
	for ci, c := range held {
		for i := 0; i < c.Width(); i++ {
			if !c.Col(i).Equal(src.Col(i).Slice(row, row+c.Len())) {
				t.Fatalf("held chunk at row %d, column %s changed", row, c.Name(i))
			}
		}
		if ci > 0 && &c.Col(1).F64()[0] == &held[ci-1].Col(1).F64()[0] {
			t.Fatalf("chunk at row %d reuses its predecessor's buffer", row)
		}
		row += c.Len()
	}
	if row != 2500 {
		t.Fatalf("scanned %d rows, want 2500", row)
	}
}

// TestParallelAggLendsPlainPipelinesOnly: every worker pipeline that
// ParallelAgg folds chunk by chunk gets a lent leaf, while the dispatchers
// that hold or buffer a morsel's chunks — Exchange and ParallelTopK — keep
// owned ones.
func TestParallelAggLendsPlainPipelinesOnly(t *testing.T) {
	dsm := wideTable(100)
	plain := func(_ int, leaf Operator) (Operator, error) { return leaf, nil }
	pa, err := NewParallelAgg(dsm, []string{"a", "g"}, 2, plain, nil, []Aggregate{{Func: AggSum, Col: "a", As: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExchange(dsm, []string{"a", "g"}, 2, plain)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := NewParallelTopK(dsm, []string{"a", "g"}, 2, plain, 3, OrderSpec{Col: "a"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		leaves []*PartScan
		lent   bool
	}{{"parallel-agg", pa.leaves, true}, {"exchange", ex.leaves, false}, {"parallel-topk", tk.leaves, false}} {
		for w, leaf := range tc.leaves {
			if leaf.Lent() != tc.lent {
				t.Errorf("%s: worker %d leaf lent=%v, want %v", tc.name, w, leaf.Lent(), tc.lent)
			}
		}
	}
}

// TestLentAggBytesDoNotGrowWithChunks: a ParallelAgg over a colstore table
// decodes every chunk into its leaf's reused buffers, so the bytes one
// aggregation allocates do not grow with the table's chunk count. The whole
// table is one morsel, so the morsel machinery costs the same for both
// sizes; an owned scan would allocate every chunk's columns afresh.
func TestLentAggBytesDoNotGrowWithChunks(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep aggTablePool warm
	const chunkLen = 256
	perOp := func(chunks int) uint64 {
		tbl, _ := storedTable(t, chunks*chunkLen)
		pa, err := NewParallelAgg(tbl, nil, 1,
			func(_ int, leaf Operator) (Operator, error) { return leaf, nil },
			[]string{"s"}, []Aggregate{{Func: AggSum, Col: "x", As: "sx"}, {Func: AggMax, Col: "k", As: "mk"}})
		if err != nil {
			t.Fatal(err)
		}
		pa.SetChunkLen(chunkLen).SetMorselLen(1 << 20)
		ctx := context.Background()
		run := func() {
			out, err := Collect(ctx, pa)
			if err != nil || out.Rows() != 5 {
				t.Fatalf("aggregation produced %v rows, %v", out, err)
			}
		}
		run() // parses every segment and sizes the leaf's buffers
		const ops = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / ops
	}
	small, large := perOp(4), perOp(32)
	// 28 more owned chunks would cost 28 × 256 rows × 32 bytes ≈ 224 KiB.
	if large > small+4<<10 {
		t.Fatalf("one aggregation allocates %d bytes over 4 chunks but %d over 32", small, large)
	}
}
