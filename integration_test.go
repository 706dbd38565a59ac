package repro

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/advm"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/tpch"
)

// TestEndToEndFigure2AllExecutionModes is the repo-level integration test:
// the paper's example program must produce identical results interpreted
// and compiled — both driven through the public advm API.
func TestEndToEndFigure2AllExecutionModes(t *testing.T) {
	kinds := map[string]advm.Kind{"some_data": advm.I64, "v": advm.I64, "w": advm.I64}
	data := make([]int64, 4096)
	for i := range data {
		data[i] = int64(i%13 - 6)
	}
	run := func(runs int, opts ...advm.Option) (*advm.Vector, *advm.Vector) {
		sess := advm.MustCompile(dsl.Figure2Source, kinds, opts...)
		var v, w *advm.Vector
		for r := 0; r < runs; r++ {
			v = advm.NewVector(advm.I64, 0, 4096)
			w = advm.NewVector(advm.I64, 0, 4096)
			if err := sess.Run(t.Context(), map[string]*advm.Vector{
				"some_data": advm.FromI64(data), "v": v, "w": w,
			}); err != nil {
				t.Fatal(err)
			}
		}
		return v, w
	}

	vI, wI := run(1, advm.WithJIT(false))

	vC, wC := run(3, advm.WithHotThresholds(2, 200*time.Microsecond))
	if !vI.Equal(vC) || !wI.Equal(wC) {
		t.Fatal("compiled output differs from interpreted")
	}
	// Spot-check semantics against the figure's specification.
	if vI.Len() != 4096 {
		t.Fatalf("v length %d", vI.Len())
	}
	wantW := 0
	for i := 0; i < 4096; i++ {
		d := 2 * data[i]
		if vI.I64()[i] != d {
			t.Fatalf("v[%d] = %d, want %d", i, vI.I64()[i], d)
		}
		if d > 0 {
			wantW++
		}
	}
	if wI.Len() != wantW {
		t.Fatalf("w length %d, want %d", wI.Len(), wantW)
	}
}

// TestEndToEndQ6AllStrategies ties the relational layer to the VM: Q6 must
// agree between the hand-compiled loop and the engine with and without JIT,
// across evaluation flavors.
func TestEndToEndQ6AllStrategies(t *testing.T) {
	st := tpch.GenLineitem(0.002, 99)
	p := tpch.DefaultQ6Params()
	want := tpch.Q6HyPer(st, p.ShipLo, p.ShipHi, p.DiscLo, p.DiscHi, p.QtyMax)
	for _, mode := range []engine.EvalMode{engine.EvalFull, engine.EvalSelective, engine.EvalAdaptive} {
		for _, useJIT := range []bool{false, true} {
			got, err := tpch.Q6Engine(t.Context(), st, p, tpch.Q1Options{
				JIT: useJIT, Mode: mode,
			})
			if err != nil {
				t.Fatalf("mode=%v jit=%v: %v", mode, useJIT, err)
			}
			rel := (got - want) / want
			if rel < -1e-9 || rel > 1e-9 {
				t.Fatalf("mode=%v jit=%v: %v vs %v", mode, useJIT, got, want)
			}
		}
	}
}

// TestEndToEndQueryStreaming exercises the public streaming path over a
// generated TPC-H table: the cursor-consumed Q1 aggregate must agree with
// the hand-compiled reference — serially and fanned out across the
// engine's morsel-parallel workers.
func TestEndToEndQueryStreaming(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testEndToEndQueryStreaming(t, workers)
		})
	}
}

// TestEndToEndQ3ParallelByteIdentical is the PR's acceptance criterion: the
// three-table Q3 — joins, grouped aggregation with float sums, top-k — must
// produce byte-identical results at every WithParallelism level 1..8. Run
// under -race in CI, it also exercises the parallel build/probe/fold paths
// for data races.
func TestEndToEndQ3ParallelByteIdentical(t *testing.T) {
	li := tpch.GenLineitem(0.01, 42)
	ord := tpch.GenOrders(0.01, 42)
	cust := tpch.GenCustomer(0.01, 42)
	p := tpch.DefaultQ3Params()

	eng, err := advm.NewEngine(
		advm.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	collect := func(workers int) [][]advm.Value {
		sess, err := eng.Session(advm.WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sess.Query(t.Context(), tpch.PlanQ3(li, ord, cust, p))
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var out [][]advm.Value
		n := len(rows.Columns())
		for rows.Next() {
			row := make([]advm.Value, n)
			dests := make([]any, n)
			for i := range row {
				dests[i] = &row[i]
			}
			if err := rows.Scan(dests...); err != nil {
				t.Fatal(err)
			}
			out = append(out, row)
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	want := collect(1)
	if len(want) != p.TopK {
		t.Fatalf("serial Q3 rows = %d, want %d", len(want), p.TopK)
	}
	for workers := 2; workers <= 8; workers++ {
		got := collect(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: rows = %d, want %d", workers, len(got), len(want))
		}
		for i := range want {
			for c := range want[i] {
				w, g := want[i][c], got[i][c]
				if w.Kind == advm.F64 {
					if math.Float64bits(w.F) != math.Float64bits(g.F) {
						t.Fatalf("workers=%d row %d col %d: %v vs %v (must be bit-identical)", workers, i, c, g.F, w.F)
					}
				} else if !g.Equal(w) {
					t.Fatalf("workers=%d row %d col %d: %v vs %v", workers, i, c, g, w)
				}
			}
		}
	}
	if use := eng.Stats().PoolInUse; use != 0 {
		t.Fatalf("workers leaked: PoolInUse = %d", use)
	}
}

func testEndToEndQueryStreaming(t *testing.T, workers int) {
	st := tpch.GenLineitem(0.002, 7)
	want := tpch.Q1HyPer(st, tpch.Q1Cutoff)

	sess, err := advm.NewSession(
		advm.WithParallelism(workers))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rows, err := sess.Query(t.Context(), tpch.PlanQ1(st))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got tpch.Q1Result
	for rows.Next() {
		var g tpch.Q1Group
		if err := rows.Scan(&g.Returnflag, &g.Linestatus, &g.SumQty, &g.SumBasePrice,
			&g.SumDiscPrice, &g.SumCharge, &g.AvgQty, &g.AvgPrice, &g.AvgDisc, &g.CountOrder); err != nil {
			t.Fatal(err)
		}
		got = append(got, g)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := want.Equal(tpch.SortQ1(got), 1e-9); err != nil {
		t.Fatal(err)
	}
}
