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

func ci(name string, k vector.Kind) engine.ColInfo { return engine.ColInfo{Name: name, Kind: k} }

// testTable builds a two-column (k i64, x f64) table of n rows.
func testTable(n int) *vector.DSMStore {
	st := vector.NewDSMStore(vector.NewSchema("k", vector.I64, "x", vector.F64))
	for i := 0; i < n; i++ {
		st.AppendRow(vector.I64Value(int64(i%97)), vector.F64Value(float64(i)/8))
	}
	return st
}

// buildTable hashes a small (bk i64, pay i64) build side.
func buildTable(n, dup int) *engine.SharedJoinTable {
	rows := vector.NewDSMStore(vector.NewSchema("bk", vector.I64, "pay", vector.I64))
	for i := 0; i < n; i++ {
		for d := 0; d < dup; d++ {
			rows.AppendRow(vector.I64Value(int64(i)), vector.I64Value(int64(i*100+d)))
		}
	}
	return engine.NewSharedJoinTable(
		[]engine.ColInfo{ci("bk", vector.I64), ci("pay", vector.I64)},
		func(context.Context) (*engine.JoinTable, error) {
			return engine.NewJoinTable(rows, "bk")
		})
}

// TestCompileShapes exercises every monomorphized snippet and the main
// decline paths: compilation is best-effort, so an unrecognized shape must
// return ok=false rather than a wrong program.
func TestCompileShapes(t *testing.T) {
	scan := []engine.ColInfo{ci("k", vector.I64), ci("x", vector.F64)}
	cases := []struct {
		name   string
		stages []fused.Stage
		ok     bool
		ops    int
	}{
		{"filter-lt-i64", []fused.Stage{{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\k -> k < 10)`), Col: "k"}}, true, 1},
		{"filter-conj", []fused.Stage{{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\k -> (k >= 3) && (k <= 90))`), Col: "k"}}, true, 1},
		{"filter-range-reversed", []fused.Stage{{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\k -> (k < 90) && (k > 3))`), Col: "k"}}, true, 1},
		{"filter-conj-not-range", []fused.Stage{{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\k -> (k >= 3) && (k > 10))`), Col: "k"}}, true, 2},
		{"filter-conj-f64", []fused.Stage{{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\x -> (x >= 0.5) && (x < 9.5))`), Col: "x"}}, true, 2},
		{"filter-mod-eq", []fused.Stage{{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\k -> (k % 7) == 2)`), Col: "k"}}, true, 1},
		{"filter-f64", []fused.Stage{{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\x -> x != 2.5)`), Col: "x"}}, true, 1},
		{"filter-neg-const", []fused.Stage{{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\x -> x > -1.5)`), Col: "x"}}, true, 1},
		{"compute-affine-i64", []fused.Stage{{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\k -> k * 3 + 7)`), Out: "y", OutKind: vector.I64, Cols: []string{"k"}}}, true, 1},
		{"compute-scale", []fused.Stage{{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\k -> k * 5)`), Out: "y", OutKind: vector.I64, Cols: []string{"k"}}}, true, 1},
		{"compute-square", []fused.Stage{{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\x -> x * x)`), Out: "y", OutKind: vector.F64, Cols: []string{"x"}}}, true, 1},
		{"compute-modmul", []fused.Stage{{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\k -> (k % 10) * 3)`), Out: "y", OutKind: vector.I64, Cols: []string{"k"}}}, true, 1},
		{"compute-muladd", []fused.Stage{{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\k j -> k + j * 2)`), Out: "y", OutKind: vector.I64, Cols: []string{"k", "k"}}}, true, 1},
		{"compute-mul-f64", []fused.Stage{{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\x y -> x * y)`), Out: "z", OutKind: vector.F64, Cols: []string{"x", "x"}}}, true, 1},
		{"compute-mul-const-sub", []fused.Stage{{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\x y -> x * (1.0 - y))`), Out: "z", OutKind: vector.F64, Cols: []string{"x", "x"}}}, true, 1},
		{"compute-mul-const-add", []fused.Stage{{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\x y -> x * (1.0 + y))`), Out: "z", OutKind: vector.F64, Cols: []string{"x", "x"}}}, true, 1},
		{"probe", []fused.Stage{{Kind: fused.StageProbe, ProbeKey: "k", Payload: []string{"pay"},
			BuildNames: []string{"bk", "pay"}, BuildKinds: []vector.Kind{vector.I64, vector.I64}}}, true, 1},
		// Declines.
		{"kind-mismatch-const", []fused.Stage{{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\k -> k < 10.5)`), Col: "k"}}, false, 0},
		{"unknown-col", []fused.Stage{{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\v -> v < 10)`), Col: "nope"}}, false, 0},
		{"const-on-left", []fused.Stage{{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\k -> 10 > k)`), Col: "k"}}, false, 0},
		{"mod-zero", []fused.Stage{{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\k -> (k % 0) == 1)`), Col: "k"}}, false, 0},
		{"compute-shadow", []fused.Stage{{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\k -> k * 2)`), Out: "x", OutKind: vector.I64, Cols: []string{"k"}}}, false, 0},
		{"compute-unknown-shape", []fused.Stage{{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\k -> k + k)`), Out: "y", OutKind: vector.I64, Cols: []string{"k"}}}, false, 0},
		{"compute-wrong-out-kind", []fused.Stage{{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\k -> k * 3 + 7)`), Out: "y", OutKind: vector.F64, Cols: []string{"k"}}}, false, 0},
		{"probe-f64-key", []fused.Stage{{Kind: fused.StageProbe, ProbeKey: "x", Payload: nil,
			BuildNames: []string{"bk"}, BuildKinds: []vector.Kind{vector.I64}}}, false, 0},
		{"probe-missing-payload", []fused.Stage{{Kind: fused.StageProbe, ProbeKey: "k", Payload: []string{"zz"},
			BuildNames: []string{"bk"}, BuildKinds: []vector.Kind{vector.I64}}}, false, 0},
		{"probe-shadow-payload", []fused.Stage{{Kind: fused.StageProbe, ProbeKey: "k", Payload: []string{"x"},
			BuildNames: []string{"bk", "x"}, BuildKinds: []vector.Kind{vector.I64, vector.F64}}}, false, 0},
		{"probe-dup-payload", []fused.Stage{{Kind: fused.StageProbe, ProbeKey: "k", Payload: []string{"pay", "pay"},
			BuildNames: []string{"bk", "pay"}, BuildKinds: []vector.Kind{vector.I64, vector.I64}}}, false, 0},
	}
	for _, tc := range cases {
		prog, ok := fused.Compile(scan, tc.stages)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if ok && prog.Ops() != tc.ops {
			t.Errorf("%s: %d ops, want %d", tc.name, prog.Ops(), tc.ops)
		}
	}
	if _, ok := fused.Compile([]engine.ColInfo{ci("k", vector.I64), ci("k", vector.I64)}, nil); ok {
		t.Error("duplicate scan columns must decline fusion")
	}
}

// newScan returns a scan of st's cols in 256-row chunks.
func newScan(t *testing.T, st *vector.DSMStore, cols []string) engine.Operator {
	t.Helper()
	leaf, err := engine.NewScan(st, cols...)
	if err != nil {
		t.Fatal(err)
	}
	leaf.SetChunkLen(256)
	return leaf
}

// drain runs op to the end, collecting its output and counting the
// non-empty chunks it emitted.
func drain(t *testing.T, op engine.Operator) (*vector.DSMStore, int) {
	t.Helper()
	ctx := context.Background()
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	out := vector.NewDSMStore(storeSchema(op.Schema()))
	chunks := 0
	for {
		c, err := op.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			return out, chunks
		}
		if c.SelectedLen() > 0 {
			chunks++
		}
		out.AppendChunk(c)
	}
}

// runFused mounts prog over a fresh scan of st and collects its output and
// its count of non-empty chunks.
func runFused(t *testing.T, prog *fused.Program, st *vector.DSMStore, cols []string,
	tables []*engine.SharedJoinTable, ctrs *fused.Counters) (*vector.DSMStore, int) {
	t.Helper()
	return drain(t, fused.NewExec(prog, newScan(t, st, cols), tables, ctrs))
}

// runInterp stacks interpreted operators over a fresh scan and collects.
func runInterp(t *testing.T, st *vector.DSMStore, cols []string, chain func(engine.Operator) engine.Operator) *vector.DSMStore {
	t.Helper()
	out, _ := drain(t, chain(newScan(t, st, cols)))
	return out
}

// ranFusedToTheEnd fails unless every non-empty chunk the interpreted chain
// emits was also emitted by the fused loop itself: one fused chunk per
// non-empty output chunk, counted by the Exec's own Counters.
func ranFusedToTheEnd(t *testing.T, ctrs *fused.Counters, fusedChunks, interpChunks int) {
	t.Helper()
	if interpChunks == 0 {
		t.Fatal("the interpreted chain emitted nothing; the test data must produce rows")
	}
	if n := ctrs.Chunks.Load(); n != int64(fusedChunks) || fusedChunks != interpChunks {
		t.Fatalf("fused loop ran %d chunks, emitted %d non-empty chunks; the interpreter emits %d",
			n, fusedChunks, interpChunks)
	}
}

// storesEqual fails unless got and want have the same schema and the same
// rows in the same order.
func storesEqual(t *testing.T, got, want *vector.DSMStore) {
	t.Helper()
	if got.Rows() != want.Rows() {
		t.Fatalf("rows = %d, want %d", got.Rows(), want.Rows())
	}
	gs, ws := got.Schema(), want.Schema()
	if fmt.Sprint(gs) != fmt.Sprint(ws) {
		t.Fatalf("schema = %v, want %v", gs, ws)
	}
	for c := range gs.Names {
		for r := 0; r < got.Rows(); r++ {
			g, w := got.Col(c).Get(r), want.Col(c).Get(r)
			// Floats compare bit for bit: NaN matches NaN, -0.0 does not match 0.0.
			if g.I != w.I || g.S != w.S || g.B != w.B || math.Float64bits(g.F) != math.Float64bits(w.F) {
				t.Fatalf("col %s row %d: %v, want %v", gs.Names[c], r, g, w)
			}
		}
	}
}

// TestExecMatchesInterpreter: a filter→compute segment must produce exactly
// the interpreted chain's rows and values.
func TestExecMatchesInterpreter(t *testing.T) {
	st := testTable(5000)
	scan := []engine.ColInfo{ci("k", vector.I64), ci("x", vector.F64)}
	stages := []fused.Stage{
		{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\k -> (k >= 10) && (k < 80))`), Col: "k"},
		{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\k -> k * 3 + 7)`), Out: "y", OutKind: vector.I64, Cols: []string{"k"}},
		{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\x y -> x * y)`), Out: "z", OutKind: vector.F64, Cols: []string{"x", "x"}},
	}
	prog, ok := fused.Compile(scan, stages)
	if !ok {
		t.Fatal("segment must compile")
	}
	if prog.Tables() != 0 {
		t.Fatalf("Tables = %d, want 0", prog.Tables())
	}
	ctrs := &fused.Counters{}
	got, _ := runFused(t, prog, st, []string{"k", "x"}, nil, ctrs)
	want := runInterp(t, st, []string{"k", "x"}, func(op engine.Operator) engine.Operator {
		f := engine.NewFilter(op, dsl.MustParseLambda(`(\k -> (k >= 10) && (k < 80))`), "k")
		c1 := engine.NewCompute(f, "y", dsl.MustParseLambda(`(\k -> k * 3 + 7)`), vector.I64, "k")
		return engine.NewCompute(c1, "z", dsl.MustParseLambda(`(\x y -> x * y)`), vector.F64, "x", "x")
	})
	storesEqual(t, got, want)
	if ctrs.Chunks.Load() == 0 || ctrs.Rows.Load() != int64(got.Rows()) {
		t.Fatalf("counters = %d chunks / %d rows, want >0 / %d", ctrs.Chunks.Load(), ctrs.Rows.Load(), got.Rows())
	}
}

// TestExecProbeMatchesInterpreter: a probe stage must emit the exact
// probe-major, build-order pairs of the interpreted TableProbe.
func TestExecProbeMatchesInterpreter(t *testing.T) {
	st := testTable(4000)
	sh := buildTable(50, 2) // keys 0..49, two matches each; keys 50..96 miss
	scan := []engine.ColInfo{ci("k", vector.I64), ci("x", vector.F64)}
	stages := []fused.Stage{
		{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\k -> k < 70)`), Col: "k"},
		{Kind: fused.StageProbe, ProbeKey: "k", Payload: []string{"pay"},
			BuildNames: []string{"bk", "pay"}, BuildKinds: []vector.Kind{vector.I64, vector.I64}, Table: 0},
		{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\p q -> p + q * 1)`), Out: "s", OutKind: vector.I64, Cols: []string{"k", "pay"}},
	}
	prog, ok := fused.Compile(scan, stages)
	if !ok {
		t.Fatal("probe segment must compile")
	}
	if prog.Tables() != 1 {
		t.Fatalf("Tables = %d, want 1", prog.Tables())
	}
	got, _ := runFused(t, prog, st, []string{"k", "x"}, []*engine.SharedJoinTable{sh}, nil)
	want := runInterp(t, st, []string{"k", "x"}, func(op engine.Operator) engine.Operator {
		f := engine.NewFilter(op, dsl.MustParseLambda(`(\k -> k < 70)`), "k")
		tp, err := engine.NewTableProbe(f, sh, "k", "pay")
		if err != nil {
			t.Fatal(err)
		}
		return engine.NewCompute(tp, "s", dsl.MustParseLambda(`(\p q -> p + q * 1)`), vector.I64, "k", "pay")
	})
	storesEqual(t, got, want)
}

// shiftTable: a long near-empty region then a dense one — the selectivity
// of a filter on k shifts from 0 to 1 mid-stream.
func shiftTable() *vector.DSMStore {
	st := vector.NewDSMStore(vector.NewSchema("k", vector.I64, "x", vector.F64))
	for i := 0; i < 2048; i++ {
		st.AppendRow(vector.I64Value(int64(1000+i)), vector.F64Value(float64(i)))
	}
	for i := 0; i < 1024; i++ {
		st.AppendRow(vector.I64Value(int64(i%10)), vector.F64Value(float64(i)))
	}
	return st
}

// TestExecShiftingSelectivityMatchesInterpreter: a filter that passes no row
// of the first chunks and every row of the last ones emits the interpreted
// chain's bytes, and the fused loop runs every chunk itself.
func TestExecShiftingSelectivityMatchesInterpreter(t *testing.T) {
	st := shiftTable()
	cols := []string{"k", "x"}
	prog, ok := fused.Compile([]engine.ColInfo{ci("k", vector.I64), ci("x", vector.F64)},
		[]fused.Stage{{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\k -> k < 100)`), Col: "k"}})
	if !ok {
		t.Fatal("must compile")
	}
	ctrs := &fused.Counters{}
	got, chunks := runFused(t, prog, st, cols, nil, ctrs)
	want, wantChunks := drain(t, engine.NewFilter(newScan(t, st, cols), dsl.MustParseLambda(`(\k -> k < 100)`), "k"))
	storesEqual(t, got, want)
	ranFusedToTheEnd(t, ctrs, chunks, wantChunks)
}

// TestExecProbeFanoutMatchesInterpreter: a build side with pathological
// fan-out — 5 keys × 2000 duplicate rows, so each chunk of probe rows emits
// about a hundred times its length — emits the interpreted TableProbe's
// bytes, and the fused loop runs every chunk itself.
func TestExecProbeFanoutMatchesInterpreter(t *testing.T) {
	st := testTable(2000)
	sh := buildTable(5, 2000)
	cols := []string{"k", "x"}
	prog, ok := fused.Compile([]engine.ColInfo{ci("k", vector.I64), ci("x", vector.F64)},
		[]fused.Stage{{Kind: fused.StageProbe, ProbeKey: "k", Payload: []string{"pay"},
			BuildNames: []string{"bk", "pay"}, BuildKinds: []vector.Kind{vector.I64, vector.I64}, Table: 0}})
	if !ok {
		t.Fatal("must compile")
	}
	ctrs := &fused.Counters{}
	got, chunks := runFused(t, prog, st, cols, []*engine.SharedJoinTable{sh}, ctrs)
	tp, err := engine.NewTableProbe(newScan(t, st, cols), sh, "k", "pay")
	if err != nil {
		t.Fatal(err)
	}
	want, wantChunks := drain(t, tp)
	storesEqual(t, got, want)
	ranFusedToTheEnd(t, ctrs, chunks, wantChunks)
}

// TestExecAllSnippets runs one segment through every remaining monomorphized
// snippet — the F64 comparison family, equality filters, mod filters and the
// rest of the compute ops — against the interpreted chain.
func TestExecAllSnippets(t *testing.T) {
	st := testTable(3000)
	scan := []engine.ColInfo{ci("k", vector.I64), ci("x", vector.F64)}
	type spec struct {
		name   string
		stages []fused.Stage
		chain  func(engine.Operator) engine.Operator
	}
	filt := func(lambda, col string) spec {
		fn := dsl.MustParseLambda(lambda)
		return spec{
			name:   lambda,
			stages: []fused.Stage{{Kind: fused.StageFilter, Fn: fn, Col: col}},
			chain: func(op engine.Operator) engine.Operator {
				return engine.NewFilter(op, fn, col)
			},
		}
	}
	comp := func(lambda string, kind vector.Kind, cols ...string) spec {
		fn := dsl.MustParseLambda(lambda)
		return spec{
			name:   lambda,
			stages: []fused.Stage{{Kind: fused.StageCompute, Fn: fn, Out: "o", OutKind: kind, Cols: cols}},
			chain: func(op engine.Operator) engine.Operator {
				return engine.NewCompute(op, "o", fn, kind, cols...)
			},
		}
	}
	specs := []spec{
		filt(`(\k -> k <= 40)`, "k"),
		filt(`(\k -> k > 40)`, "k"),
		filt(`(\k -> k == 40)`, "k"),
		filt(`(\k -> k != 40)`, "k"),
		filt(`(\k -> (k % 5) == 2)`, "k"),
		filt(`(\x -> x < 100.5)`, "x"),
		filt(`(\x -> x <= 100.5)`, "x"),
		filt(`(\x -> x > 100.5)`, "x"),
		filt(`(\x -> x >= 100.5)`, "x"),
		filt(`(\x -> x == 4.5)`, "x"),
		filt(`(\x -> x != 4.5)`, "x"),
		comp(`(\k -> k * k)`, vector.I64, "k"),
		comp(`(\k -> (k % 9) * 4)`, vector.I64, "k"),
		comp(`(\x -> x * 2.5 + 1.25)`, vector.F64, "x"),
		comp(`(\x -> x * 0.5)`, vector.F64, "x"),
		comp(`(\k j -> k + j * 3)`, vector.I64, "k", "k"),
		comp(`(\x y -> x * (2.0 - y))`, vector.F64, "x", "x"),
		comp(`(\x y -> x * (2.0 + y))`, vector.F64, "x", "x"),
	}
	for _, sp := range specs {
		prog, ok := fused.Compile(scan, sp.stages)
		if !ok {
			t.Fatalf("%s: must compile", sp.name)
		}
		got, _ := runFused(t, prog, st, []string{"k", "x"}, nil, nil)
		want := runInterp(t, st, []string{"k", "x"}, sp.chain)
		storesEqual(t, got, want)
	}
}

// TestCache: positive and negative entries, hit/miss counters, LRU eviction.
func TestCache(t *testing.T) {
	c := fused.NewCache(2)
	prog, ok := fused.Compile([]engine.ColInfo{ci("k", vector.I64)},
		[]fused.Stage{{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\k -> k < 5)`), Col: "k"}})
	if !ok {
		t.Fatal("must compile")
	}
	if _, present := c.Lookup("a"); present {
		t.Fatal("empty cache must miss")
	}
	c.Store("a", prog)
	c.Store("b", nil) // negative entry
	if p, present := c.Lookup("b"); !present || p != nil {
		t.Fatal("negative entry must be present with nil program")
	}
	if p, present := c.Lookup("a"); !present || p != prog {
		t.Fatal("positive entry lost")
	}
	c.Store("c", prog) // evicts the LRU entry ("a" was touched after "b" → "b" goes)
	if _, present := c.Lookup("b"); present {
		t.Fatal("LRU entry must be evicted")
	}
	if _, present := c.Lookup("a"); !present {
		t.Fatal("recently used entry must survive eviction")
	}
	entries, hits, misses := c.Stats()
	if entries != 2 || hits == 0 || misses == 0 {
		t.Fatalf("stats = %d entries, %d hits, %d misses", entries, hits, misses)
	}
	// Store over an existing key updates in place.
	c.Store("a", nil)
	if p, present := c.Lookup("a"); !present || p != nil {
		t.Fatal("in-place update lost")
	}
	if fused.NewCache(0) == nil {
		t.Fatal("default-size cache")
	}
}

// TestExecHeldChunksOwnTheirColumns drains a fused Exec the way the exchange
// and the parallel join build do: every chunk is held until the stream ends.
// The morsel mixes chunks in which no row is dropped (computed columns copied
// out of scratch), chunks a filter thins (every column condensed) and, in its
// middle, a chunk whose probe fans out a thousandfold. Each held chunk must
// still equal the clone taken when it was emitted: a column aliasing the
// Exec's reused scratch would have been overwritten by later chunks.
func TestExecHeldChunksOwnTheirColumns(t *testing.T) {
	const chunkLen = 64
	st := vector.NewDSMStore(vector.NewSchema("k", vector.I64, "x", vector.F64))
	for c, mod := range []int64{30, 50, 30, 50, 0, 50, 30} {
		for i := int64(0); i < chunkLen; i++ {
			k := int64(90) // the fan-out key
			if mod > 0 {
				k = (i + int64(c)) % mod
			}
			st.AppendRow(vector.I64Value(k), vector.F64Value(float64(i)/4))
		}
	}
	rows := vector.NewDSMStore(vector.NewSchema("bk", vector.I64, "pay", vector.I64))
	for k := int64(0); k < 50; k++ {
		rows.AppendRow(vector.I64Value(k), vector.I64Value(k*100))
	}
	for d := int64(0); d < 1000; d++ {
		rows.AppendRow(vector.I64Value(90), vector.I64Value(d))
	}
	sh := engine.NewSharedJoinTable([]engine.ColInfo{ci("bk", vector.I64), ci("pay", vector.I64)},
		func(context.Context) (*engine.JoinTable, error) { return engine.NewJoinTable(rows, "bk") })

	stages := []fused.Stage{
		{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\k -> k * 3 + 7)`), Out: "y", OutKind: vector.I64, Cols: []string{"k"}},
		{Kind: fused.StageProbe, ProbeKey: "k", Payload: []string{"pay"},
			BuildNames: []string{"bk", "pay"}, BuildKinds: []vector.Kind{vector.I64, vector.I64}},
		{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\p q -> p + q * 2)`), Out: "s", OutKind: vector.I64, Cols: []string{"k", "pay"}},
		{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\p -> p < 3000)`), Col: "pay"},
	}
	chain := func(leaf engine.Operator) (engine.Operator, error) {
		tp, err := engine.NewTableProbe(engine.NewCompute(leaf, "y", dsl.MustParseLambda(`(\k -> k * 3 + 7)`), vector.I64, "k"), sh, "k", "pay")
		if err != nil {
			return nil, err
		}
		s := engine.NewCompute(tp, "s", dsl.MustParseLambda(`(\p q -> p + q * 2)`), vector.I64, "k", "pay")
		return engine.NewFilter(s, dsl.MustParseLambda(`(\p -> p < 3000)`), "pay"), nil
	}
	prog, ok := fused.Compile([]engine.ColInfo{ci("k", vector.I64), ci("x", vector.F64)}, stages)
	if !ok {
		t.Fatal("segment must compile")
	}
	leaf, err := engine.NewPartScan(st, "k", "x")
	if err != nil {
		t.Fatal(err)
	}
	leaf.SetChunkLen(chunkLen)
	leaf.SetRange(0, st.Rows())
	ctrs := &fused.Counters{}
	ex := fused.NewExec(prog, leaf, []*engine.SharedJoinTable{sh}, ctrs)
	ctx := context.Background()
	if err := ex.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	var held, clones []*vector.Chunk
	for {
		c, err := ex.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			break
		}
		held, clones = append(held, c), append(clones, c.Clone())
	}
	if n := ctrs.Chunks.Load(); n != int64(len(held)) || n < 7 {
		t.Fatalf("fused loop ran %d chunks, emitted %d; every chunk of the morsel must run fused", n, len(held))
	}
	for i, c := range held {
		want := clones[i]
		if c.Width() != want.Width() || fmt.Sprint(c.Sel()) != fmt.Sprint(want.Sel()) {
			t.Fatalf("chunk %d changed shape after emission", i)
		}
		for j := 0; j < c.Width(); j++ {
			if !c.Col(j).Equal(want.Col(j)) {
				t.Fatalf("chunk %d column %s changed after emission:\n got %v\nwant %v", i, c.Name(j), c.Col(j), want.Col(j))
			}
		}
	}
	got := vector.NewDSMStore(storeSchema(prog.Schema()))
	for _, c := range held {
		got.AppendChunk(c)
	}
	storesEqual(t, got, runInterp(t, st, []string{"k", "x"}, func(op engine.Operator) engine.Operator {
		out, err := chain(op)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}))
}

func storeSchema(cols []engine.ColInfo) vector.Schema {
	var sch vector.Schema
	for _, c := range cols {
		sch.Names = append(sch.Names, c.Name)
		sch.Kinds = append(sch.Kinds, c.Kind)
	}
	return sch
}

// TestLentExecAllocatesNothingPerChunk: over a lent leaf — the leaf of a
// worker pipeline that ParallelAgg folds chunk by chunk — a filter+compute
// loop emits its slots, scratch and selection in place, so after warm-up a
// chunk costs no allocation at all, scan included. Each chunk, copied before
// the next Next as the lending contract allows, still matches the
// interpreter.
func TestLentExecAllocatesNothingPerChunk(t *testing.T) {
	st := testTable(64 * 256)
	stages := []fused.Stage{
		{Kind: fused.StageFilter, Fn: dsl.MustParseLambda(`(\k -> (k >= 10) && (k < 80))`), Col: "k"},
		{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\k -> k * 3 + 7)`), Out: "y", OutKind: vector.I64, Cols: []string{"k"}},
		{Kind: fused.StageCompute, Fn: dsl.MustParseLambda(`(\x y -> x * (1.0 - y))`), Out: "z", OutKind: vector.F64, Cols: []string{"x", "x"}},
	}
	chain := func(op engine.Operator) engine.Operator {
		op = engine.NewFilter(op, dsl.MustParseLambda(`(\k -> (k >= 10) && (k < 80))`), "k")
		op = engine.NewCompute(op, "y", dsl.MustParseLambda(`(\k -> k * 3 + 7)`), vector.I64, "k")
		return engine.NewCompute(op, "z", dsl.MustParseLambda(`(\x y -> x * (1.0 - y))`), vector.F64, "x", "x")
	}
	prog, ok := fused.Compile([]engine.ColInfo{ci("k", vector.I64), ci("x", vector.F64)}, stages)
	if !ok {
		t.Fatal("segment must compile")
	}
	leaf, err := engine.NewPartScan(st, "k", "x")
	if err != nil {
		t.Fatal(err)
	}
	leaf.SetChunkLen(256)
	leaf.Lend()
	ex := fused.NewExec(prog, leaf, nil, nil)
	ctx := context.Background()
	if err := ex.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	leaf.SetRange(0, st.Rows())
	got := vector.NewDSMStore(storeSchema(prog.Schema()))
	for {
		c, err := ex.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			break
		}
		if c.Sel() == nil {
			t.Fatal("a lent chunk the filter thinned must carry its selection, not a condensed copy")
		}
		got.AppendChunk(c)
	}
	storesEqual(t, got, runInterp(t, st, []string{"k", "x"}, chain))

	leaf.SetRange(0, st.Rows())
	for i := 0; i < 4; i++ { // warm-up: size the scratch
		if c, err := ex.Next(ctx); c == nil || err != nil {
			t.Fatalf("warm-up chunk %d: %v, %v", i, c, err)
		}
	}
	allocs := testing.AllocsPerRun(40, func() {
		if c, err := ex.Next(ctx); c == nil || err != nil {
			t.Fatalf("chunk: %v, %v", c, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("lent fused loop allocates %v objects per chunk, want 0", allocs)
	}
}
