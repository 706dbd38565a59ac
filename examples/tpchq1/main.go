// TPC-H Q1 under four execution strategies inside the same framework —
// the paper's plan-step-1 goal ("the same system to be able to either use
// vectorized execution, or tuple-at-a-time JIT compilation, as such
// mimicking the MonetDB/X100 and HyPer approaches inside the same
// framework") plus the [12] optimization mix and the adaptive VM.
//
// The adaptive strategy is expressed entirely through the public advm API:
// a session-scoped plan (scan → filter → two computes → grouped aggregate)
// whose result streams back through the database/sql-style cursor, with
// every scalar expression lowered into the VM and JIT-compiled when hot.
//
// Run: go run ./examples/tpchq1 [-sf 0.01]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/advm"
	"repro/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.01, "scale factor (1.0 = 6M rows)")
	flag.Parse()

	fmt.Printf("generating lineitem at SF %.3f …\n", *sf)
	st := tpch.GenLineitem(*sf, 42)
	cl := tpch.Compact(st)
	fmt.Printf("%d rows\n\n", st.Rows())

	timeIt := func(label string, f func() (tpch.Q1Result, error)) tpch.Q1Result {
		start := time.Now()
		res, err := f()
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%-42s %10v\n", label, time.Since(start).Round(time.Microsecond))
		return res
	}

	ctx := context.Background()
	ref := timeIt("tuple-at-a-time compiled (HyPer-style)", func() (tpch.Q1Result, error) {
		return tpch.Q1HyPer(st, tpch.Q1Cutoff), nil
	})
	vect := timeIt("vectorized interpreted (X100-style)", func() (tpch.Q1Result, error) {
		sess, err := advm.NewSession(advm.WithJIT(false))
		if err != nil {
			return nil, err
		}
		return q1Advm(ctx, sess, st)
	})
	opt := timeIt("vectorized + compact types + pre-agg [12]", func() (tpch.Q1Result, error) {
		return tpch.Q1Compact(cl, tpch.Q1Cutoff), nil
	})
	adaptive := timeIt("adaptive VM (vectorized + JIT traces)", func() (tpch.Q1Result, error) {
		sess, err := advm.NewSession() // JIT on
		if err != nil {
			return nil, err
		}
		return q1Advm(ctx, sess, st)
	})

	for _, pair := range []struct {
		name string
		res  tpch.Q1Result
	}{{"vectorized", vect}, {"compact", opt}, {"adaptive", adaptive}} {
		if err := ref.Equal(pair.res, 1e-9); err != nil {
			log.Fatalf("%s strategy disagrees: %v", pair.name, err)
		}
	}

	fmt.Println("\nall strategies agree; result:")
	for _, g := range ref {
		fmt.Printf("  %s|%s  sum_qty=%-9d count=%-8d sum_charge=%.2f\n",
			g.Returnflag, g.Linestatus, g.SumQty, g.CountOrder, g.SumCharge)
	}
}

// q1Advm runs Q1 through the public plan builder and streams the grouped
// result back through the cursor.
func q1Advm(ctx context.Context, sess *advm.Session, st *advm.Table) (tpch.Q1Result, error) {
	plan := advm.Scan(st,
		"l_returnflag", "l_linestatus", "l_quantity",
		"l_extendedprice", "l_discount", "l_tax", "l_shipdate").
		Filter(fmt.Sprintf(`(\d -> d <= %d)`, tpch.Q1Cutoff), "l_shipdate").
		Compute("disc_price", `(\p d -> p * (1.0 - d))`, advm.F64, "l_extendedprice", "l_discount").
		Compute("charge", `(\dp t -> dp * (1.0 + t))`, advm.F64, "disc_price", "l_tax").
		Aggregate([]string{"l_returnflag", "l_linestatus"},
			advm.Agg{Func: advm.AggSum, Col: "l_quantity", As: "sum_qty"},
			advm.Agg{Func: advm.AggSum, Col: "l_extendedprice", As: "sum_base_price"},
			advm.Agg{Func: advm.AggSum, Col: "disc_price", As: "sum_disc_price"},
			advm.Agg{Func: advm.AggSum, Col: "charge", As: "sum_charge"},
			advm.Agg{Func: advm.AggAvg, Col: "l_quantity", As: "avg_qty"},
			advm.Agg{Func: advm.AggAvg, Col: "l_extendedprice", As: "avg_price"},
			advm.Agg{Func: advm.AggAvg, Col: "l_discount", As: "avg_disc"},
			advm.Agg{Func: advm.AggCount, As: "count_order"})
	rows, err := sess.Query(ctx, plan)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var res tpch.Q1Result
	for rows.Next() {
		var g tpch.Q1Group
		if err := rows.Scan(&g.Returnflag, &g.Linestatus, &g.SumQty, &g.SumBasePrice,
			&g.SumDiscPrice, &g.SumCharge, &g.AvgQty, &g.AvgPrice, &g.AvgDisc,
			&g.CountOrder); err != nil {
			return nil, err
		}
		res = append(res, g)
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return tpch.SortQ1(res), nil
}
