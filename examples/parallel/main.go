// Example: embedding at scale — one process-wide Engine serving many
// sessions, prepared programs shared through the fingerprint-keyed cache,
// and morsel-parallel query execution via advm.WithParallelism.
//
//	go run ./examples/parallel
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/advm"
)

func main() {
	// One engine per process: it owns the worker pool and the
	// prepared-statement cache.
	eng, err := advm.NewEngine(
		advm.WithParallelism(4),
		advm.WithHotThresholds(2, 200*time.Microsecond),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// --- Prepared programs: concurrent "connections" share one VM. -------
	src := `
mut i
i := 0
loop {
  let xs = read i data
  if len(xs) == 0 then break
  write out i (map (\x -> (x * 3 + 7) * (x - 1)) xs)
  i := i + len(xs)
}
`
	kinds := map[string]advm.Kind{"data": advm.I64, "out": advm.I64}
	prep, err := eng.Prepare(src, kinds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("prepared", prep.Fingerprint()[:12], "…")

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := eng.Session()
			if err != nil {
				log.Fatal(err)
			}
			// Every "connection" re-prepares; the cache hands back the same
			// VM, so traces compiled for one client speed up all of them.
			p, err := sess.Prepare(src, kinds)
			if err != nil {
				log.Fatal(err)
			}
			data := make([]int64, 1<<14)
			for i := range data {
				data[i] = int64(i % 1000)
			}
			for r := 0; r < 8; r++ {
				out := advm.NewVector(advm.I64, 0, len(data))
				if err := sess.RunPrepared(context.Background(), p, map[string]*advm.Vector{
					"data": advm.FromI64(data), "out": out,
				}); err != nil {
					log.Fatal(err)
				}
			}
		}()
	}
	wg.Wait()
	pst := prep.Stats()
	est := eng.Stats()
	fmt.Printf("shared VM: runs=%d injected_traces=%d (one set for all sessions)\n",
		pst.Runs, pst.InjectedTraces)
	fmt.Printf("engine: sessions=%d prepares=%d cache_hits=%d distinct_programs=%d\n",
		est.Sessions, est.Prepares, est.CacheHits, est.PreparedPrograms)

	// --- Morsel-parallel queries: serial vs WithParallelism(4). ----------
	rng := rand.New(rand.NewSource(1))
	table := advm.NewTable(advm.NewSchema("k", advm.I64, "v", advm.F64))
	for i := 0; i < 1<<20; i++ {
		table.AppendRow(advm.I64Value(rng.Int63n(1000)), advm.F64Value(rng.Float64()*100))
	}
	plan := func() *advm.Plan {
		return advm.Scan(table, "k", "v").
			Filter(`(\k -> k < 800)`, "k").
			Compute("w", `(\v -> v * 1.5 + 1.0)`, advm.F64, "v").
			Aggregate(nil,
				advm.Agg{Func: advm.AggSum, Col: "w", As: "sum_w"},
				advm.Agg{Func: advm.AggCount, As: "n"})
	}
	query := func(workers int) (float64, int64, time.Duration) {
		sess, err := eng.Session(advm.WithParallelism(workers))
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		rows, err := sess.Query(context.Background(), plan())
		if err != nil {
			log.Fatal(err)
		}
		defer rows.Close()
		var sum float64
		var n int64
		for rows.Next() {
			if err := rows.Scan(&sum, &n); err != nil {
				log.Fatal(err)
			}
		}
		if err := rows.Err(); err != nil {
			log.Fatal(err)
		}
		return sum, n, time.Since(start)
	}
	sum1, n1, d1 := query(1)
	sum4, n4, d4 := query(4)
	fmt.Printf("serial:      sum=%.6f n=%d in %v\n", sum1, n1, d1.Round(time.Millisecond))
	fmt.Printf("parallel(4): sum=%.6f n=%d in %v\n", sum4, n4, d4.Round(time.Millisecond))
	fmt.Printf("byte-identical: %v (ordered merge ⇒ same float addition order), GOMAXPROCS=%d\n",
		sum1 == sum4 && n1 == n4, runtime.GOMAXPROCS(0))
}
