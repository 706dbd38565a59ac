// Example: morsel-parallel hash joins and grouped aggregation — TPC-H Q3
// (customer ⨝ orders ⨝ lineitem → group by order → top-10 by revenue)
// executed serially and under advm.WithParallelism, with byte-identical
// results.
//
//	go run ./examples/join
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"runtime"
	"time"

	"repro/advm"
	"repro/internal/tpch"
)

func main() {
	const sf = 0.02
	li := tpch.GenLineitem(sf, 42)
	ord := tpch.GenOrders(sf, 42)
	cust := tpch.GenCustomer(sf, 42)
	fmt.Printf("tables: lineitem=%d orders=%d customer=%d rows (SF %.2f), GOMAXPROCS=%d\n\n",
		li.Rows(), ord.Rows(), cust.Rows(), sf, runtime.GOMAXPROCS(0))

	eng, err := advm.NewEngine(
		advm.WithParallelism(4),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	p := tpch.DefaultQ3Params()
	fmt.Printf("Q3: segment=%s, date=%d, top %d orders by revenue\n\n",
		tpch.MktSegments[p.Segment], p.Date, p.TopK)

	// The plan is declarative: under WithParallelism(n) the lineitem probe
	// fans out across morsel workers, both build sides are hashed in
	// parallel into shared read-only tables, and the grouped aggregation
	// folds worker-locally — all merged back deterministically.
	run := func(workers int) (tpch.Q3Result, time.Duration) {
		sess, err := eng.Session(advm.WithParallelism(workers))
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		rows, err := sess.Query(context.Background(), tpch.PlanQ3(li, ord, cust, p))
		if err != nil {
			log.Fatal(err)
		}
		defer rows.Close()
		var out tpch.Q3Result
		for rows.Next() {
			var r tpch.Q3Row
			if err := rows.Scan(&r.Orderkey, &r.Revenue, &r.Orderdate, &r.Shippriority); err != nil {
				log.Fatal(err)
			}
			out = append(out, r)
		}
		if err := rows.Err(); err != nil {
			log.Fatal(err)
		}
		return out, time.Since(start)
	}

	serial, dSerial := run(1)
	parallel, dParallel := run(4)

	fmt.Printf("%-10s %16s %10s %6s\n", "l_orderkey", "revenue", "orderdate", "prio")
	for _, r := range serial {
		fmt.Printf("%-10d %16.4f %10d %6d\n", r.Orderkey, r.Revenue, r.Orderdate, r.Shippriority)
	}

	identical := len(serial) == len(parallel)
	for i := 0; identical && i < len(serial); i++ {
		identical = serial[i] == parallel[i] &&
			math.Float64bits(serial[i].Revenue) == math.Float64bits(parallel[i].Revenue)
	}
	fmt.Printf("\nserial %v, parallel(4) %v — byte-identical: %v\n",
		dSerial.Round(time.Millisecond), dParallel.Round(time.Millisecond), identical)
	if !identical {
		log.Fatal("parallel Q3 differs from serial")
	}
}
