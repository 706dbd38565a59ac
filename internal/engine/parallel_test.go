package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dsl"
	"repro/internal/qtrace"
	"repro/internal/vector"
)

func genTable(t testing.TB, n int, seed int64) *vector.DSMStore {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st := vector.NewDSMStore(vector.NewSchema("k", vector.I64, "v", vector.I64, "f", vector.F64))
	for i := 0; i < n; i++ {
		st.AppendRow(
			vector.I64Value(rng.Int63n(1000)),
			vector.I64Value(rng.Int63n(1000)),
			vector.F64Value(rng.Float64()*100),
		)
	}
	return st
}

// pipelineOn builds the test pipeline filter(k<700) → compute(v2 = v*3+1) →
// compute(g = f*1.5) on an arbitrary leaf.
func pipelineOn(leaf Operator) Operator {
	f := NewFilter(leaf, dsl.MustParseLambda(`(\k -> k < 700)`), "k").SetJIT(ExprJIT{On: true})
	c1 := NewCompute(f, "v2", dsl.MustParseLambda(`(\v -> v * 3 + 1)`), vector.I64, "v").SetJIT(ExprJIT{On: true})
	return NewCompute(c1, "g", dsl.MustParseLambda(`(\x -> x * 1.5)`), vector.F64, "f").SetJIT(ExprJIT{On: true})
}

// materialize collects every selected row of op into flat slices.
func materialize(t *testing.T, op Operator) [][]vector.Value {
	t.Helper()
	var rows [][]vector.Value
	if err := Drain(context.Background(), op, func(c *vector.Chunk) error {
		cc := c
		if c.Sel() != nil {
			cc = c.Condense()
		}
		for r := 0; r < cc.Len(); r++ {
			var row []vector.Value
			for i := 0; i < cc.Width(); i++ {
				row = append(row, cc.Col(i).Get(r))
			}
			rows = append(rows, row)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestExchangeMatchesSerialOrder: the exchange must produce exactly the
// serial pipeline's rows, in the serial row order, for any worker count and
// morsel size.
func TestExchangeMatchesSerialOrder(t *testing.T) {
	st := genTable(t, 100_003, 1) // deliberately not a multiple of any chunk/morsel size
	serialScan, err := NewScan(st)
	if err != nil {
		t.Fatal(err)
	}
	want := materialize(t, pipelineOn(serialScan))
	if len(want) == 0 {
		t.Fatal("empty baseline")
	}
	for _, workers := range []int{1, 2, 4, 7} {
		for _, morselLen := range []int{4096, 16384, 1 << 20} {
			t.Run(fmt.Sprintf("workers=%d/morsel=%d", workers, morselLen), func(t *testing.T) {
				ex, err := NewExchange(st, nil, workers, func(_ int, leaf Operator) (Operator, error) {
					return pipelineOn(leaf), nil
				})
				if err != nil {
					t.Fatal(err)
				}
				ex.SetMorselLen(morselLen)
				got := materialize(t, ex)
				if len(got) != len(want) {
					t.Fatalf("rows = %d, want %d", len(got), len(want))
				}
				for i := range want {
					for c := range want[i] {
						if !got[i][c].Equal(want[i][c]) {
							t.Fatalf("row %d col %d = %v, want %v", i, c, got[i][c], want[i][c])
						}
					}
				}
				if m := ex.MorselStats().Rows(); m != int64(st.Rows()) {
					t.Fatalf("morsel stats cover %d rows, want %d", m, st.Rows())
				}
			})
		}
	}
}

// TestExchangeAggregation: a hash aggregation over the exchange must agree
// with the serial plan bit-for-bit, including float sums (order-sensitive).
func TestExchangeAggregation(t *testing.T) {
	st := genTable(t, 60_000, 2)
	aggs := []Aggregate{
		{Func: AggSum, Col: "g", As: "sum_g"},
		{Func: AggSum, Col: "v2", As: "sum_v2"},
		{Func: AggCount, As: "n"},
	}
	serialScan, err := NewScan(st)
	if err != nil {
		t.Fatal(err)
	}
	want := materialize(t, NewHashAgg(pipelineOn(serialScan), []string{"k"}, aggs))

	ex, err := NewExchange(st, nil, 4, func(_ int, leaf Operator) (Operator, error) {
		return pipelineOn(leaf), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := materialize(t, NewHashAgg(ex, []string{"k"}, aggs))
	if len(got) != len(want) {
		t.Fatalf("groups = %d, want %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if !got[i][c].Equal(want[i][c]) {
				t.Fatalf("group %d col %d = %v, want %v (float sums must be bit-identical)", i, c, got[i][c], want[i][c])
			}
		}
	}
}

// TestExchangeCancellation: cancelling the context mid-stream must surface
// the context error from Next and leave Close deadlock-free.
func TestExchangeCancellation(t *testing.T) {
	st := genTable(t, 200_000, 3)
	ex, err := NewExchange(st, nil, 4, func(_ int, leaf Operator) (Operator, error) {
		return pipelineOn(leaf), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ex.SetMorselLen(4096)
	ctx, cancel := context.WithCancel(context.Background())
	if err := ex.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	var got error
	for i := 0; i < 1000; i++ {
		c, err := ex.Next(ctx)
		if err != nil {
			got = err
			break
		}
		if c == nil {
			break
		}
	}
	if !errors.Is(got, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", got)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExchangeEarlyClose: closing without draining must not leak or block
// the worker goroutines.
func TestExchangeEarlyClose(t *testing.T) {
	st := genTable(t, 500_000, 4)
	ex, err := NewExchange(st, nil, 4, func(_ int, leaf Operator) (Operator, error) {
		return pipelineOn(leaf), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ex.SetMorselLen(4096)
	ctx := context.Background()
	if err := ex.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestExchangeEmptyTable: zero rows means an immediately exhausted stream.
func TestExchangeEmptyTable(t *testing.T) {
	st := vector.NewDSMStore(vector.NewSchema("k", vector.I64, "v", vector.I64, "f", vector.F64))
	ex, err := NewExchange(st, nil, 4, func(_ int, leaf Operator) (Operator, error) {
		return pipelineOn(leaf), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := CountRows(context.Background(), ex)
	if err != nil || n != 0 {
		t.Fatalf("CountRows = %d, %v", n, err)
	}
}

// mustMaterialize collects rows or fails.
func mustEqualRows(t *testing.T, got, want [][]vector.Value, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rows = %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if !got[i][c].Equal(want[i][c]) {
				t.Fatalf("%s: row %d col %d = %v, want %v (must be bit-identical)", label, i, c, got[i][c], want[i][c])
			}
		}
	}
}

// mustEqualValues compares results allowing float tolerance: exact for
// non-floats, |got-want| ≤ tol·|want| for F64. Used to cross-check the
// blocked morsel fold against the strict row-order fold, whose float bytes
// legitimately differ in low-order bits across morsel lengths.
func mustEqualValues(t *testing.T, got, want [][]vector.Value, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rows = %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			g, w := got[i][c], want[i][c]
			if w.Kind == vector.F64 {
				if diff := math.Abs(g.F - w.F); diff > tol*math.Max(1, math.Abs(w.F)) {
					t.Fatalf("%s: row %d col %d = %v, want %v (tolerance %g)", label, i, c, g, w, tol)
				}
				continue
			}
			if !g.Equal(w) {
				t.Fatalf("%s: row %d col %d = %v, want %v (must be exact)", label, i, c, g, w)
			}
		}
	}
}

// TestParallelAggMatchesSerial: at a fixed morsel length, the parallel
// aggregation must be byte-identical — float sums included — at every worker
// count: per-morsel tables merged in sequence order make the accumulation
// order a function of data and morsel length only. Against the serial
// HashAgg's strict row-order fold, integer aggregates (and AggFirst/AggMin
// on any kind) must be exact and float sums must agree to tolerance — the
// blocked fold may differ in low-order float bits when a group spans
// morsels.
func TestParallelAggMatchesSerial(t *testing.T) {
	st := genTable(t, 100_003, 21)
	aggs := []Aggregate{
		{Func: AggSum, Col: "g", As: "sum_g"},
		{Func: AggSum, Col: "v2", As: "sum_v2"},
		{Func: AggMin, Col: "v2", As: "min_v2"},
		{Func: AggAvg, Col: "g", As: "avg_g"},
		{Func: AggFirst, Col: "g", As: "first_g"},
		{Func: AggCount, As: "n"},
	}
	serialScan, err := NewScan(st)
	if err != nil {
		t.Fatal(err)
	}
	rowOrder := materialize(t, NewHashAgg(pipelineOn(serialScan), []string{"k"}, aggs).SetPreAgg(PreAggOff))
	if len(rowOrder) == 0 {
		t.Fatal("empty baseline")
	}
	for _, morselLen := range []int{4096, 16384, 1 << 20} {
		mkAgg := func(workers int) *ParallelAgg {
			pa, err := NewParallelAgg(st, nil, workers, func(_ int, leaf Operator) (Operator, error) {
				return pipelineOn(leaf), nil
			}, []string{"k"}, aggs)
			if err != nil {
				t.Fatal(err)
			}
			return pa.SetMorselLen(morselLen)
		}
		// The canonical result at this morsel length: one worker, blocked
		// per-morsel accumulation.
		want := materialize(t, mkAgg(1))
		mustEqualValues(t, want, rowOrder, 1e-9, fmt.Sprintf("morsel=%d vs row-order fold", morselLen))
		if morselLen >= 1<<20 {
			// A single morsel covers the table: the blocked fold degenerates
			// to strict row order, bit for bit.
			mustEqualRows(t, want, rowOrder, "single-morsel agg")
		}
		for _, workers := range []int{2, 4, 7} {
			t.Run(fmt.Sprintf("workers=%d/morsel=%d", workers, morselLen), func(t *testing.T) {
				pa := mkAgg(workers)
				got := materialize(t, pa)
				mustEqualRows(t, got, want, "parallel agg")
				if rows := pa.MorselStats().Rows(); rows != int64(st.Rows()) {
					t.Fatalf("morsel stats cover %d rows, want %d", rows, st.Rows())
				}
			})
		}
	}
}

// TestParallelAggSingleGroup: a keyless (global) aggregation degenerates to
// one group and must be byte-identical across worker counts at the default
// morsel length, with the float sum matching the strict row-order fold to
// tolerance and the count exactly.
func TestParallelAggSingleGroup(t *testing.T) {
	st := genTable(t, 50_000, 22)
	aggs := []Aggregate{
		{Func: AggSum, Col: "g", As: "sum_g"},
		{Func: AggCount, As: "n"},
	}
	serialScan, err := NewScan(st)
	if err != nil {
		t.Fatal(err)
	}
	rowOrder := materialize(t, NewHashAgg(pipelineOn(serialScan), nil, aggs).SetPreAgg(PreAggOff))
	if len(rowOrder) != 1 {
		t.Fatalf("baseline groups = %d, want 1", len(rowOrder))
	}
	mkAgg := func(workers int) *ParallelAgg {
		pa, err := NewParallelAgg(st, nil, workers, func(_ int, leaf Operator) (Operator, error) {
			return pipelineOn(leaf), nil
		}, nil, aggs)
		if err != nil {
			t.Fatal(err)
		}
		return pa
	}
	want := materialize(t, mkAgg(1))
	mustEqualValues(t, want, rowOrder, 1e-9, "keyless agg vs row-order fold")
	mustEqualRows(t, materialize(t, mkAgg(4)), want, "keyless parallel agg")
}

// TestParallelAggAllRowsFiltered: a pipeline that selects nothing must yield
// zero groups, matching serial.
func TestParallelAggAllRowsFiltered(t *testing.T) {
	st := genTable(t, 30_000, 23)
	aggs := []Aggregate{{Func: AggSum, Col: "v", As: "s"}}
	mk := func(leaf Operator) Operator {
		return NewFilter(leaf, dsl.MustParseLambda(`(\k -> k < 0)`), "k") // keys are 0..999: empty
	}
	serialScan, err := NewScan(st)
	if err != nil {
		t.Fatal(err)
	}
	want := materialize(t, NewHashAgg(mk(serialScan), []string{"k"}, aggs).SetPreAgg(PreAggOff))
	if len(want) != 0 {
		t.Fatalf("baseline groups = %d, want 0", len(want))
	}
	pa, err := NewParallelAgg(st, nil, 4, func(_ int, leaf Operator) (Operator, error) {
		return mk(leaf), nil
	}, []string{"k"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	if got := materialize(t, pa); len(got) != 0 {
		t.Fatalf("parallel groups = %d, want 0", len(got))
	}
}

// timedOp charges sp the time of every Next of the operator it wraps, as
// a traced stage of a worker pipeline does, and sleeps d inside it.
type timedOp struct {
	Operator
	sp *qtrace.Span
	d  time.Duration
}

func (o *timedOp) Next(ctx context.Context) (*vector.Chunk, error) {
	start := time.Now()
	time.Sleep(o.d)
	c, err := o.Operator.Next(ctx)
	o.sp.AddTime(time.Since(start))
	return c, err
}

// TestParallelAggChargesMorselTime: a traced ParallelAgg charges its span
// every morsel's time on every worker, so it covers its children's time
// summed over workers however the workers overlap, and its self time
// (busy minus children) is what it spends outside them.
func TestParallelAggChargesMorselTime(t *testing.T) {
	st := genTable(t, 8*512, 46)
	tr := qtrace.New(qtrace.LevelOps)
	aggSp := tr.Root("query").Child(qtrace.KindOp, "aggregate")
	childSp := aggSp.Child(qtrace.KindOp, "compute")
	pa, err := NewParallelAgg(st, nil, 2, func(_ int, leaf Operator) (Operator, error) {
		return &timedOp{Operator: leaf, sp: childSp, d: time.Millisecond}, nil
	}, []string{"k"}, []Aggregate{{Func: AggSum, Col: "f", As: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	pa.SetMorselLen(512).SetTrace(aggSp, false)
	if _, err := Collect(t.Context(), pa); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	// Every morsel pulls one chunk and the end of its window: 16 sleeps.
	if child := childSp.BusyNs(); child < (16*time.Millisecond).Nanoseconds() || aggSp.BusyNs() < child {
		t.Fatalf("aggregate busy=%dns over children busy=%dns; want children ≥ 16ms and aggregate ≥ children", aggSp.BusyNs(), child)
	}
}

// TestParallelAggCancellation: a cancelled ctx surfaces from Next.
func TestParallelAggCancellation(t *testing.T) {
	st := genTable(t, 200_000, 24)
	pa, err := NewParallelAgg(st, nil, 4, func(_ int, leaf Operator) (Operator, error) {
		return pipelineOn(leaf), nil
	}, []string{"k"}, []Aggregate{{Func: AggCount, As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	pa.SetMorselLen(4096)
	ctx, cancel := context.WithCancel(context.Background())
	if err := pa.Open(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := pa.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
	if err := pa.Close(); err != nil {
		t.Fatal(err)
	}
}

// parallelJoinSetup builds a dimension table keyed 0..dimRows-1 with an i64
// payload and a probe pipeline over the fact table st.
func dimTable(dimRows int, payloadOf func(i int) int64) *vector.DSMStore {
	dim := vector.NewDSMStore(vector.NewSchema("dk", vector.I64, "pay", vector.I64))
	for i := 0; i < dimRows; i++ {
		dim.AppendRow(vector.I64Value(int64(i)), vector.I64Value(payloadOf(i)))
	}
	return dim
}

// TestParallelJoinMatchesSerial: the shared-table probe riding the exchange
// must produce exactly the serial HashJoin's rows in serial order, with the
// build side itself built in parallel.
func TestParallelJoinMatchesSerial(t *testing.T) {
	st := genTable(t, 80_007, 31)
	dim := dimTable(500, func(i int) int64 { return int64(i * 7) }) // half the key domain: selective probe
	serialScan, err := NewScan(st)
	if err != nil {
		t.Fatal(err)
	}
	serialBuild, err := NewScan(dim)
	if err != nil {
		t.Fatal(err)
	}
	want := materialize(t, NewHashJoin(pipelineOn(serialScan), serialBuild, "k", "dk", "pay"))
	if len(want) == 0 {
		t.Fatal("empty baseline")
	}

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			shared := NewSharedJoinTable(
				[]ColInfo{{Name: "dk", Kind: vector.I64}, {Name: "pay", Kind: vector.I64}},
				func(ctx context.Context) (*JoinTable, error) {
					return BuildJoinTableParallel(ctx, dim, nil, workers, 0, 0, "dk",
						func(_ int, leaf Operator) (Operator, error) { return leaf, nil })
				})
			ex, err := NewExchange(st, nil, workers, func(_ int, leaf Operator) (Operator, error) {
				return NewTableProbe(pipelineOn(leaf), shared, "k", "pay")
			})
			if err != nil {
				t.Fatal(err)
			}
			got := materialize(t, ex)
			mustEqualRows(t, got, want, "parallel join")
		})
	}
}

// TestParallelJoinEmptyBuildSide: an empty build table must stream zero rows
// without deadlocking the exchange.
func TestParallelJoinEmptyBuildSide(t *testing.T) {
	st := genTable(t, 20_000, 32)
	dim := dimTable(0, nil)
	shared := NewSharedJoinTable(
		[]ColInfo{{Name: "dk", Kind: vector.I64}, {Name: "pay", Kind: vector.I64}},
		func(ctx context.Context) (*JoinTable, error) {
			return BuildJoinTableParallel(ctx, dim, nil, 4, 0, 0, "dk",
				func(_ int, leaf Operator) (Operator, error) { return leaf, nil })
		})
	ex, err := NewExchange(st, nil, 4, func(_ int, leaf Operator) (Operator, error) {
		return NewTableProbe(pipelineOn(leaf), shared, "k", "pay")
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := CountRows(context.Background(), ex)
	if err != nil || n != 0 {
		t.Fatalf("CountRows = %d, %v; want 0", n, err)
	}
}

// TestParallelJoinMultiMatch: duplicate build keys must emit match lists in
// build order, identically to serial, under a parallel partitioned build.
func TestParallelJoinMultiMatch(t *testing.T) {
	st := genTable(t, 30_011, 33)
	dim := vector.NewDSMStore(vector.NewSchema("dk", vector.I64, "pay", vector.I64))
	for i := 0; i < 3000; i++ {
		dim.AppendRow(vector.I64Value(int64(i%1000)), vector.I64Value(int64(i))) // 3 matches per key
	}
	serialScan, _ := NewScan(st)
	serialBuild, _ := NewScan(dim)
	want := materialize(t, NewHashJoin(pipelineOn(serialScan), serialBuild, "k", "dk", "pay"))

	shared := NewSharedJoinTable(
		[]ColInfo{{Name: "dk", Kind: vector.I64}, {Name: "pay", Kind: vector.I64}},
		func(ctx context.Context) (*JoinTable, error) {
			return BuildJoinTableParallel(ctx, dim, nil, 4, 0, 512, "dk",
				func(_ int, leaf Operator) (Operator, error) { return leaf, nil })
		})
	ex, err := NewExchange(st, nil, 4, func(_ int, leaf Operator) (Operator, error) {
		return NewTableProbe(pipelineOn(leaf), shared, "k", "pay")
	})
	if err != nil {
		t.Fatal(err)
	}
	got := materialize(t, ex)
	mustEqualRows(t, got, want, "multi-match join")
}

// TestPartScanWindow: the windowed scan honors [lo, hi) and chunking.
func TestPartScanWindow(t *testing.T) {
	st := genTable(t, 10_000, 5)
	ps, err := NewPartScan(st, "v")
	if err != nil {
		t.Fatal(err)
	}
	ps.SetChunkLen(128)
	ps.SetRange(1000, 1500)
	ctx := context.Background()
	if err := ps.Open(ctx); err != nil {
		t.Fatal(err)
	}
	total, chunks := 0, 0
	for {
		c, err := ps.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			break
		}
		total += c.Len()
		chunks++
		want := st.Col(1).I64()[1000+total-c.Len()]
		if got := c.MustColumn("v").I64()[0]; got != want {
			t.Fatalf("first row of chunk = %d, want %d", got, want)
		}
	}
	if total != 500 || chunks != 4 {
		t.Fatalf("scanned %d rows in %d chunks, want 500 in 4", total, chunks)
	}
}

// wideTable has seven columns, one per element kind and two i64s.
func wideTable(n int) *vector.DSMStore {
	sch := vector.NewSchema("a", vector.I64, "b", vector.F64, "c", vector.Str,
		"d", vector.I32, "e", vector.I16, "f", vector.Bool, "g", vector.I64)
	dsm := vector.NewDSMStore(sch)
	for i := 0; i < n; i++ {
		dsm.AppendRow(
			vector.I64Value(int64(i)), vector.F64Value(float64(i)/4), vector.StrValue(fmt.Sprint(i%9)),
			vector.IntValue(vector.I32, int64(i)), vector.IntValue(vector.I16, int64(i%300)),
			vector.BoolValue(i%3 == 0), vector.I64Value(int64(-i)))
	}
	return dsm
}

// copyStore hides its table's View method: a store that cannot hand out
// views, so every scan of it copies.
type copyStore struct{ vector.Store }

// scanAllocs reports the allocations of one full-length chunk scanned from
// store through a PartScan over the named columns.
func scanAllocs(t *testing.T, store vector.Store, columns ...string) float64 {
	t.Helper()
	ps, err := NewPartScan(store, columns...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	return testing.AllocsPerRun(50, func() {
		ps.SetRange(0, vector.DefaultChunkLen)
		if c, err := ps.Next(ctx); err != nil || c == nil {
			t.Fatalf("scan produced %v, %v", c, err)
		}
	})
}

// TestPartScanViewsAllocateNoColumnBuffers: over an in-RAM table a scanned
// chunk costs the same allocations for one column as for seven, so no
// column is copied; a store that cannot hand out views still pays a buffer
// per column.
func TestPartScanViewsAllocateNoColumnBuffers(t *testing.T) {
	dsm := wideTable(2 * vector.DefaultChunkLen)
	all := dsm.Schema().Names
	one, seven := scanAllocs(t, dsm, "a"), scanAllocs(t, dsm, all...)
	if one != seven {
		t.Fatalf("view scan allocates %v objects per chunk for 1 column, %v for 7", one, seven)
	}
	if copied := scanAllocs(t, copyStore{dsm}, all...); copied < seven+7 {
		t.Fatalf("copy scan allocates %v objects per chunk for 7 columns, want ≥ %v", copied, seven+7)
	}
}

// TestScanChunksStayValid: chunks held across Next calls keep their rows, and
// a view scan aliases the table rather than copying it.
func TestScanChunksStayValid(t *testing.T) {
	dsm := wideTable(1000)
	for _, store := range []vector.Store{dsm, copyStore{dsm}} {
		sc, err := NewScan(store)
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
		for _, c := range held {
			for i := 0; i < c.Width(); i++ {
				want := dsm.Col(i).Slice(row, row+c.Len())
				if !c.Col(i).Equal(want) {
					t.Fatalf("%T: held chunk at row %d, column %d changed", store, row, i)
				}
			}
			_, isView := store.(vector.Viewer)
			if aliased := &c.Col(0).I64()[0] == &dsm.Col(0).I64()[row]; aliased != isView {
				t.Fatalf("%T: chunk at row %d aliases the table: %v", store, row, aliased)
			}
			row += c.Len()
		}
		if row != 1000 {
			t.Fatalf("%T: scanned %d rows, want 1000", store, row)
		}
	}
}
