package advm_test

import (
	"context"
	"errors"
	"fmt"

	"repro/advm"
)

// ExampleSession_Run compiles a small data-parallel program and runs it to
// a deterministic result. Synchronous optimization keeps the demo
// reproducible: the loop goes hot on the first run and later runs execute
// injected traces.
func ExampleSession_Run() {
	src := `
mut i
i := 0
loop {
  let xs = read i data
  if len(xs) == 0 then break
  let r = map (\x -> x * 2) xs
  write out i r
  i := i + len(xs)
}
`
	sess := advm.MustCompile(src,
		map[string]advm.Kind{"data": advm.I64, "out": advm.I64},
		advm.WithSyncOptimizer(true),
		advm.WithHotThresholds(1, 0),
		advm.WithJITOptions(advm.JITOptions{CompileLatency: advm.NoCompileLatency}),
	)

	data := []int64{1, 2, 3, 4}
	for run := 1; run <= 2; run++ {
		out := advm.NewVector(advm.I64, 0, len(data))
		if err := sess.Run(context.Background(), map[string]*advm.Vector{
			"data": advm.FromI64(data), "out": out,
		}); err != nil {
			fmt.Println("run failed:", err)
			return
		}
		fmt.Printf("run %d: %v\n", run, out.I64())
	}
	fmt.Println("segments compiled:", len(sess.Stats().CompiledSegments) > 0)
	// Output:
	// run 1: [2 4 6 8]
	// run 2: [2 4 6 8]
	// segments compiled: true
}

// ExampleSession_Query streams a relational pipeline's result through the
// database/sql-style cursor.
func ExampleSession_Query() {
	table := advm.NewTable(advm.NewSchema("k", advm.I64, "v", advm.I64))
	for i := int64(0); i < 8; i++ {
		table.AppendRow(advm.I64Value(i), advm.I64Value(10*i))
	}

	sess, _ := advm.NewSession()
	rows, err := sess.Query(context.Background(),
		advm.Scan(table, "k", "v").
			Filter(`(\k -> k % 2 == 0)`, "k").
			Compute("vv", `(\v -> v + 1)`, advm.I64, "v"))
	if err != nil {
		fmt.Println("query failed:", err)
		return
	}
	defer rows.Close()
	for rows.Next() {
		var k, vv int64
		if err := rows.Scan(&k, nil, &vv); err != nil {
			fmt.Println("scan failed:", err)
			return
		}
		fmt.Println(k, vv)
	}
	if err := rows.Err(); err != nil {
		fmt.Println("stream failed:", err)
	}
	// Output:
	// 0 1
	// 2 21
	// 4 41
	// 6 61
}

// ExampleEngine_Prepare shows the scale surface: one process-wide Engine,
// prepared programs cached by the fingerprint of their normalized IR, and
// lightweight sessions sharing the prepared VM — so its profile and
// injected traces improve with everyone's traffic instead of being
// re-learned per connection.
func ExampleEngine_Prepare() {
	eng, _ := advm.NewEngine(
		advm.WithSyncOptimizer(true),
		advm.WithHotThresholds(1, 0),
		advm.WithJITOptions(advm.JITOptions{CompileLatency: advm.NoCompileLatency}),
	)
	defer eng.Close()

	prep, _ := eng.Prepare(`
mut i
i := 0
loop {
  let xs = read i data
  if len(xs) == 0 then break
  write out i (map (\x -> x * x) xs)
  i := i + len(xs)
}
`, map[string]advm.Kind{"data": advm.I64, "out": advm.I64})

	// A respelled but equivalent program normalizes to the same IR and hits
	// the cache: both handles drive one shared VM.
	again, _ := eng.Prepare(`
mut cursor
cursor := 0
loop {
  let batch = read cursor data
  if len(batch) == 0 then break
  write out cursor (map (\y -> y * y) batch)
  cursor := cursor + len(batch)
}
`, map[string]advm.Kind{"data": advm.I64, "out": advm.I64})
	fmt.Println("same program:", prep.Fingerprint() == again.Fingerprint())

	sess, _ := eng.Session()
	out := advm.NewVector(advm.I64, 0, 4)
	if err := sess.RunPrepared(context.Background(), prep, map[string]*advm.Vector{
		"data": advm.FromI64([]int64{1, 2, 3, 4}), "out": out,
	}); err != nil {
		fmt.Println("run failed:", err)
		return
	}
	fmt.Println("out:", out.I64())

	st := eng.Stats()
	fmt.Printf("prepares=%d cache_hits=%d distinct_programs=%d\n",
		st.Prepares, st.CacheHits, st.PreparedPrograms)
	fmt.Println("shared runs:", again.Stats().Runs)
	// Output:
	// same program: true
	// out: [1 4 9 16]
	// prepares=2 cache_hits=1 distinct_programs=1
	// shared runs: 1
}

// ExampleWithParallelism fans a query out across the engine's worker pool
// under work-stealing morsel dispatch: the row space is split contiguously
// across the workers and rebalanced on the fly when one drains early (see
// Stats.MorselSteals). Chunks are handed back in batches and emitted in
// table order, and aggregation folds per-morsel tables in morsel sequence
// order, so at a fixed WithMorselLen the output — floating-point aggregates
// included — is byte-identical at every worker count.
func ExampleWithParallelism() {
	table := advm.NewTable(advm.NewSchema("k", advm.I64, "v", advm.I64))
	for i := int64(0); i < 100_000; i++ {
		table.AppendRow(advm.I64Value(i), advm.I64Value(i%7))
	}

	sess, _ := advm.NewSession(advm.WithParallelism(4))
	defer sess.Close()
	rows, err := sess.Query(context.Background(),
		advm.Scan(table, "k", "v").
			Filter(`(\k -> k % 3 == 0)`, "k").
			Compute("v2", `(\v -> v * v)`, advm.I64, "v").
			Aggregate(nil,
				advm.Agg{Func: advm.AggSum, Col: "v2", As: "sum_v2"},
				advm.Agg{Func: advm.AggCount, As: "n"}))
	if err != nil {
		fmt.Println("query failed:", err)
		return
	}
	defer rows.Close()
	for rows.Next() {
		var sum, n int64
		if err := rows.Scan(&sum, &n); err != nil {
			fmt.Println("scan failed:", err)
			return
		}
		fmt.Println(sum, n)
	}
	// Output: 433342 33334
}

// ExamplePlan_Join builds a join → grouped aggregation → top-k plan. Under
// WithParallelism the probe side fans out across morsel workers, the build
// side is hashed in parallel into a shared read-only table, and the
// aggregation folds worker-locally — with results byte-identical to serial
// execution at every worker count.
func ExamplePlan_Join() {
	fact := advm.NewTable(advm.NewSchema("fk", advm.I64, "amount", advm.I64))
	for i := int64(0); i < 10_000; i++ {
		fact.AppendRow(advm.I64Value(i%100), advm.I64Value(i%13))
	}
	dim := advm.NewTable(advm.NewSchema("dk", advm.I64, "region", advm.I64))
	for i := int64(0); i < 100; i++ {
		dim.AppendRow(advm.I64Value(i), advm.I64Value(i%3))
	}

	sess, _ := advm.NewSession(advm.WithParallelism(4))
	defer sess.Close()
	plan := advm.Scan(fact, "fk", "amount").
		Join(advm.Scan(dim, "dk", "region"), "fk", "dk", "region").
		Aggregate([]string{"region"},
			advm.Agg{Func: advm.AggSum, Col: "amount", As: "total"},
			advm.Agg{Func: advm.AggCount, As: "n"}).
		TopK(2, advm.Order{Col: "total", Desc: true})
	rows, err := sess.Query(context.Background(), plan)
	if err != nil {
		fmt.Println("query failed:", err)
		return
	}
	defer rows.Close()
	for rows.Next() {
		var region, total, n int64
		if err := rows.Scan(&region, &total, &n); err != nil {
			fmt.Println("scan failed:", err)
			return
		}
		fmt.Println(region, total, n)
	}
	// Output:
	// 0 20391 3400
	// 1 19798 3300
}

// ExampleWithTieredExecution shows a plan climbing the execution tiers.
// Repetition drives the plan's fingerprint from cold (interpreted) through
// warm (its streaming segment is compiled into a specialized fused loop and
// cached; the query still runs interpreted) to hot (executions run the
// fused loop) — with identical results at every tier. The engine's stats
// expose the ladder.
func ExampleWithTieredExecution() {
	table := advm.NewTable(advm.NewSchema("k", advm.I64, "v", advm.I64))
	for i := int64(0); i < 10_000; i++ {
		table.AppendRow(advm.I64Value(i), advm.I64Value(i%50))
	}

	eng, _ := advm.NewEngine(advm.WithTierThresholds(2, 3))
	defer eng.Close()
	sess, _ := eng.Session()

	plan := func() *advm.Plan {
		return advm.Scan(table, "k", "v").
			Filter(`(\k -> k < 5000)`, "k").
			Compute("w", `(\v -> v * 2 + 1)`, advm.I64, "v").
			Aggregate(nil, advm.Agg{Func: advm.AggSum, Col: "w", As: "sum_w"})
	}
	for run := 1; run <= 3; run++ {
		rows, err := sess.Query(context.Background(), plan())
		if err != nil {
			fmt.Println("query failed:", err)
			return
		}
		var sum int64
		for rows.Next() {
			if err := rows.Scan(&sum); err != nil {
				fmt.Println("scan failed:", err)
				return
			}
		}
		rows.Close()
		fmt.Printf("run %d: tier=%s fused=%v sum=%d\n", run, rows.Tier(), rows.Fused(), sum)
	}

	st := eng.Stats()
	fmt.Printf("tier_ups=%d fused_queries=%d\n", st.TierUps, st.FusedQueries)
	fmt.Println("final tier:", st.Tiers[0].Tier)
	// Output:
	// run 1: tier=cold fused=false sum=250000
	// run 2: tier=warm fused=false sum=250000
	// run 3: tier=hot fused=true sum=250000
	// tier_ups=2 fused_queries=1
	// final tier: hot
}

// ExampleErrCancelled shows the typed-error taxonomy: context failures
// surface as ErrCancelled while keeping the context cause in the chain.
func ExampleErrCancelled() {
	sess := advm.MustCompile(`let xs = read 0 data
let r = map (\x -> x + 1) xs
write out 0 r`,
		map[string]advm.Kind{"data": advm.I64, "out": advm.I64})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead
	err := sess.Run(ctx, map[string]*advm.Vector{
		"data": advm.FromI64([]int64{1}), "out": advm.NewVector(advm.I64, 0, 1),
	})
	fmt.Println(errors.Is(err, advm.ErrCancelled), errors.Is(err, context.Canceled))
	// Output: true true
}
