// TPC-H Q1 under three execution strategies inside the same framework —
// the paper's plan-step-1 goal ("the same system to be able to either use
// vectorized execution, or tuple-at-a-time JIT compilation, as such
// mimicking the MonetDB/X100 and HyPer approaches inside the same
// framework"), with the adaptive VM beside them.
//
// The hand-written tuple-at-a-time loop (tpch.Q1HyPer) is the reference.
// The vectorized and the adaptive strategy run the same public plan
// (tpch.PlanQ1) through two sessions: one with JIT traces and the fused
// tier off, one with the defaults. The program exits non-zero when any
// strategy disagrees with the reference.
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
	viaPlan := func(opts ...advm.Option) func() (tpch.Q1Result, error) {
		return func() (tpch.Q1Result, error) {
			sess, err := advm.NewSession(opts...)
			if err != nil {
				return nil, err
			}
			defer sess.Close()
			return tpch.QueryQ1(context.Background(), sess, st)
		}
	}

	ref := timeIt("tuple-at-a-time compiled (HyPer-style)", func() (tpch.Q1Result, error) {
		return tpch.Q1HyPer(st, tpch.Q1Cutoff), nil
	})
	vect := timeIt("vectorized interpreted (X100-style)",
		viaPlan(advm.WithJIT(false), advm.WithTieredExecution(false)))
	adaptive := timeIt("adaptive VM (vectorized + JIT traces)", viaPlan())

	for _, pair := range []struct {
		name string
		res  tpch.Q1Result
	}{{"vectorized", vect}, {"adaptive", adaptive}} {
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
