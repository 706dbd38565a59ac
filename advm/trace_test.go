package advm_test

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"repro/advm"
	"repro/internal/colstore"
	"repro/internal/qtrace"
	"repro/internal/tpch"
)

// queryTraced runs a plan at the given trace level, drains it, and returns
// the row count and finished trace.
func queryTraced(t *testing.T, sess *advm.Session, plan *advm.Plan, level advm.TraceLevel) (int64, *qtrace.Trace) {
	t.Helper()
	rows, err := sess.QueryTraced(context.Background(), plan, level)
	if err != nil {
		t.Fatal(err)
	}
	n, err := rows.Count()
	if err != nil {
		t.Fatal(err)
	}
	return n, rows.Trace()
}

// signature flattens a span tree into its structural skeleton: pre-order
// (depth, kind, name) over query and operator spans. Morsel leaves and
// events are execution artifacts and excluded; the skeleton is a function
// of the plan alone.
func signature(root *qtrace.SpanJSON) []string {
	var out []string
	var walk func(n *qtrace.SpanJSON, depth int)
	walk = func(n *qtrace.SpanJSON, depth int) {
		if n.Kind != "query" && n.Kind != "op" {
			return
		}
		out = append(out, fmt.Sprintf("%d/%s/%s", depth, n.Kind, n.Name))
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return out
}

func countKind(root *qtrace.SpanJSON, kind string) int {
	n := 0
	var walk func(*qtrace.SpanJSON)
	walk = func(s *qtrace.SpanJSON) {
		if s.Kind == kind {
			n++
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	return n
}

// attrInt reads an integer attribute off a span, whatever Go integer type
// the recorder stored.
func attrInt(s *qtrace.SpanJSON, key string) (int64, bool) {
	v, ok := s.Attrs[key]
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case int64:
		return n, true
	case int:
		return int64(n), true
	case float64:
		return int64(n), true
	}
	return 0, false
}

// TestTraceStructuralDeterminism runs the same join→aggregate→topk plan at
// parallelism 1, 4 and 8 (fresh engine each, so tiering state can't leak
// between runs) and checks the observability invariants:
//
//   - the operator span skeleton is identical at every parallelism — the
//     node set is a function of the plan, not of the execution schedule;
//   - every operator that reports a "morsels" count has exactly that many
//     morsel leaf children;
//   - at parallelism 1 the operator self-times sum to no more than the
//     query's wall time (one accounting stream, nothing double-counted).
//
// Run under -race this also exercises the concurrent span mutation paths
// (workers recording morsel leaves while the consumer drains).
func TestTraceStructuralDeterminism(t *testing.T) {
	fx := newJoinFixture(50_000, 800, 23)
	var baseline []string
	for _, workers := range []int{1, 4, 8} {
		eng, err := advm.NewEngine(advm.WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := eng.Session()
		if err != nil {
			t.Fatal(err)
		}
		n, tr := queryTraced(t, sess, fx.plan(), advm.TraceMorsels)
		if n == 0 {
			t.Fatalf("workers=%d: no result rows", workers)
		}
		root := tr.Tree()
		if root == nil || root.Kind != "query" {
			t.Fatalf("workers=%d: trace root = %+v", workers, root)
		}
		if w, ok := attrInt(root, "workers"); !ok || w != int64(workers) {
			t.Fatalf("workers=%d: root workers attr = %v", workers, root.Attrs["workers"])
		}

		sig := signature(root)
		if baseline == nil {
			baseline = sig
			// Sanity: the skeleton must cover the whole plan — scan,
			// filter, join-probe (with its build subtree), compute,
			// aggregate, topk.
			joined := strings.Join(sig, "\n")
			for _, op := range []string{"scan", "filter", "join-probe", "join-build", "compute", "aggregate", "topk"} {
				if !strings.Contains(joined, "/"+op) {
					t.Fatalf("span skeleton missing %q:\n%s", op, joined)
				}
			}
		} else if got, want := strings.Join(sig, "\n"), strings.Join(baseline, "\n"); got != want {
			t.Fatalf("workers=%d: span skeleton differs from parallelism-1 baseline:\n--- got\n%s\n--- want\n%s", workers, got, want)
		}

		var checkMorsels func(s *qtrace.SpanJSON)
		checkMorsels = func(s *qtrace.SpanJSON) {
			if want, ok := attrInt(s, "morsels"); ok {
				leaves := 0
				for _, c := range s.Children {
					if c.Kind == "morsel" {
						leaves++
					}
				}
				if int64(leaves) != want {
					t.Fatalf("workers=%d: op %s reports %d morsels but has %d morsel leaves", workers, s.Name, want, leaves)
				}
			}
			for _, c := range s.Children {
				checkMorsels(c)
			}
		}
		checkMorsels(root)

		if workers == 1 {
			var selfSum int64
			for _, ns := range tr.OpSelfTimes() {
				selfSum += ns
			}
			if selfSum > root.DurNs {
				t.Fatalf("parallelism 1: operator self-times sum %d ns > query wall %d ns", selfSum, root.DurNs)
			}
		}
		eng.Close()
	}
}

// TestExplainAnalyzeQ3 renders Q3 at parallelism 4 and spot-checks the
// surfaces the rendering promises: per-operator actual times, per-worker
// morsel counts, steal attribution and the tier annotation.
func TestExplainAnalyzeQ3(t *testing.T) {
	const sf = 0.005
	li := tpch.GenLineitem(sf, 42)
	ord := tpch.GenOrders(sf, 42)
	cust := tpch.GenCustomer(sf, 42)

	eng := hotEngine(t, advm.WithParallelism(4))
	defer eng.Close()
	sess, err := eng.Session()
	if err != nil {
		t.Fatal(err)
	}
	plan := func() *advm.Plan { return tpch.PlanQ3(li, ord, cust, tpch.DefaultQ3Params()) }
	out, err := sess.ExplainAnalyze(context.Background(), plan())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"query", "topk", "aggregate", "join-probe", "join-build", "scan",
		"workers=4", "actual=", "morsels:", "w0=", "stolen=", "tier=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}

	// The same query traced off must yield a nil trace and a "disabled"
	// explanation, not an empty tree.
	n, tr := queryTraced(t, sess, plan(), advm.TraceOff)
	if n == 0 {
		t.Fatal("no rows")
	}
	if tr != nil {
		t.Fatalf("TraceOff query returned a trace")
	}
	if s := tr.ExplainAnalyze(); !strings.Contains(s, "disabled") {
		t.Fatalf("nil trace ExplainAnalyze = %q", s)
	}
}

// TestTraceScanSpansCountRows: every scan span of a traced query reports the
// rows its scans produced and the Next calls that produced them, whether the
// scan runs serially or as the windowed leaves of morsel workers (a parallel
// aggregation's, even with one worker, and a parallel join build's), and
// whether fused loops run over those leaves. None of the plans filters
// before its scans, so each scan produces its whole table.
func TestTraceScanSpansCountRows(t *testing.T) {
	const sf = 0.005
	li := tpch.GenLineitem(sf, 42)
	ord := tpch.GenOrders(sf, 42)
	cust := tpch.GenCustomer(sf, 42)
	plans := map[string]func() *advm.Plan{
		"q1": func() *advm.Plan { return tpch.PlanQ1(li) },
		"q3": func() *advm.Plan { return tpch.PlanQ3(li, ord, cust, tpch.DefaultQ3Params()) },
	}
	for _, par := range []int{1, 2} {
		for _, hot := range []bool{false, true} {
			for name, plan := range plans {
				t.Run(fmt.Sprintf("%s/par=%d/hot=%v", name, par, hot), func(t *testing.T) {
					opts := []advm.Option{advm.WithParallelism(par)}
					if hot {
						opts = append(opts, advm.WithTierThresholds(1, 1))
					}
					sess, err := advm.NewSession(opts...)
					if err != nil {
						t.Fatal(err)
					}
					defer sess.Close()
					_, tr := queryTraced(t, sess, plan(), advm.TraceOps)
					scans := 0
					var walk func(s *qtrace.SpanJSON)
					walk = func(s *qtrace.SpanJSON) {
						if s.Kind == "op" && s.Name == "scan" {
							scans++
							want, _ := attrInt(s, "table_rows")
							if s.Rows != want || s.Loops == 0 || s.BusyNs == 0 {
								t.Errorf("scan span: rows=%d loops=%d busy=%dns, want rows=%d, loops and busy > 0",
									s.Rows, s.Loops, s.BusyNs, want)
							}
						}
						for _, c := range s.Children {
							walk(c)
						}
					}
					walk(tr.Tree())
					if want := map[string]int{"q1": 1, "q3": 3}[name]; scans != want {
						t.Fatalf("%d scan spans, want %d", scans, want)
					}
				})
			}
		}
	}
}

// TestParallelAggChargesWorkerTime: a traced parallel aggregate over a
// fused segment — q1's filter and computes, q3's join probes — charges its
// span the time of every morsel on every worker plus merge and emit, so it
// is never shorter than the fused loop below it summed over workers: its
// self time is the fold's, not a wall time minus worker time clamped at
// zero. q3's serial top-k above it still has a self time of its own: it
// subtracts the time it waited for the aggregate, not the workers' time.
func TestParallelAggChargesWorkerTime(t *testing.T) {
	const sf = 0.005
	li := tpch.GenLineitem(sf, 42)
	ord := tpch.GenOrders(sf, 42)
	cust := tpch.GenCustomer(sf, 42)
	plans := map[string]func() *advm.Plan{
		"q1": func() *advm.Plan { return tpch.PlanQ1(li) },
		"q3": func() *advm.Plan { return tpch.PlanQ3(li, ord, cust, tpch.DefaultQ3Params()) },
	}
	// find returns the first span named name, depth first.
	var find func(s *qtrace.SpanJSON, name string) *qtrace.SpanJSON
	find = func(s *qtrace.SpanJSON, name string) *qtrace.SpanJSON {
		if s.Name == name {
			return s
		}
		for _, c := range s.Children {
			if f := find(c, name); f != nil {
				return f
			}
		}
		return nil
	}
	// timedBelow is qtrace's self-time rule: the nearest op descendants
	// that report busy time.
	var timedBelow func(s *qtrace.SpanJSON) int64
	timedBelow = func(s *qtrace.SpanJSON) int64 {
		var ns int64
		for _, c := range s.Children {
			if c.Kind != "op" {
				continue
			}
			if c.BusyNs > 0 {
				ns += c.BusyNs
			} else {
				ns += timedBelow(c)
			}
		}
		return ns
	}
	for name, plan := range plans {
		sess, err := advm.NewSession(advm.WithParallelism(2), advm.WithTierThresholds(1, 1), advm.WithMorselLen(2048))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		for run := range 4 {
			rows, err := sess.QueryTraced(t.Context(), plan(), advm.TraceMorsels)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rows.Count(); err != nil {
				t.Fatal(err)
			}
			if tier := rows.Tier(); tier != "hot" {
				t.Fatalf("%s run %d ran at tier %q, want hot", name, run, tier)
			}
			agg := find(rows.Trace().Tree(), "aggregate")
			if agg == nil || agg.Loops == 0 || agg.Rows == 0 {
				t.Fatalf("%s run %d: no looped aggregate span with rows", name, run)
			}
			below := timedBelow(agg)
			if below == 0 || agg.BusyNs < below || agg.SelfNs != agg.BusyNs-below {
				t.Fatalf("%s run %d: aggregate busy=%dns self=%dns over children busy=%dns; want busy ≥ children > 0 and self = busy − children",
					name, run, agg.BusyNs, agg.SelfNs, below)
			}
			if topk := find(rows.Trace().Tree(), "topk"); topk != nil && (topk.SelfNs <= 0 || topk.SelfNs >= topk.BusyNs) {
				t.Fatalf("%s run %d: topk busy=%dns self=%dns; want 0 < self < busy", name, run, topk.BusyNs, topk.SelfNs)
			}
		}
	}
}

// TestTraceResultsUnchanged: tracing must be observation only — the traced
// run returns bit-identical rows to the untraced one.
func TestTraceResultsUnchanged(t *testing.T) {
	fx := newJoinFixture(30_000, 400, 29)
	eng := hotEngine(t, advm.WithParallelism(4))
	defer eng.Close()
	sess, err := eng.Session()
	if err != nil {
		t.Fatal(err)
	}
	want := collectRows(t, sess, fx.plan())

	rows, err := sess.QueryTraced(context.Background(), fx.plan(), advm.TraceMorsels)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got [][]advm.Value
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
		got = append(got, row)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	mustRowsEqualBitwise(t, got, want, "traced")
}

// TestTracingOffLeavesNoTraceState: tracing one query leaves nothing
// behind. On a session warmed past the tier thresholds, a query traced at
// TraceMorsels followed by the same plan at TraceOff must return no trace
// and allocate exactly as many objects per query as the same plan on a
// session that never traced, warmed the same way. Together with qtrace's
// TestNilHooksAllocateNothing this states the disabled path's cost without
// a clock.
//
// The aggregation tables are pooled, and a garbage collection empties the
// pool, so the count is taken with the collector paused. Skipped under
// -race, where sync.Pool also drops items at random.
func TestTracingOffLeavesNoTraceState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under -race (sync.Pool drops items at random)")
	}
	plan := q1Plan(tpch.GenLineitem(0.01, 42))
	warmed := func(traceOnce bool) *advm.Session {
		eng, err := advm.NewEngine(
			advm.WithParallelism(1),
			advm.WithTierThresholds(2, 3),
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		sess, err := eng.Session()
		if err != nil {
			t.Fatal(err)
		}
		for range 4 {
			queryTraced(t, sess, plan, advm.TraceOff)
		}
		if traceOnce {
			if _, tr := queryTraced(t, sess, plan, advm.TraceMorsels); tr == nil {
				t.Fatal("a TraceMorsels query returned no trace")
			}
		}
		return sess
	}
	allocs := func(sess *advm.Session) float64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(10, func() {
			rows, err := sess.QueryTraced(context.Background(), plan, advm.TraceOff)
			if err != nil {
				t.Fatal(err)
			}
			if rows.Tier() != "hot" {
				t.Fatalf("query ran at tier %q, want hot", rows.Tier())
			}
			if _, err := rows.Count(); err != nil {
				t.Fatal(err)
			}
			if rows.Trace() != nil {
				t.Fatal("a TraceOff query returned a trace")
			}
		})
	}
	afterTrace, never := allocs(warmed(true)), allocs(warmed(false))
	if afterTrace != never {
		t.Fatalf("TraceOff query allocates %v objects after a traced query, %v on a session that never traced", afterTrace, never)
	}
	t.Logf("TraceOff query: %v allocations, traced before or not", never)
}

// BenchmarkQ6Trace measures the tracing tax on the hot Q6 path at each
// level: off pays a nil check per hook (TestTracingOffLeavesNoTraceState
// pins that it leaves no trace state behind); ops pays two clock reads per
// operator call; morsels adds per-morsel leaf spans.
func BenchmarkQ6Trace(b *testing.B) {
	li := tpch.GenLineitem(0.01, 42)
	for _, bc := range []struct {
		name  string
		level advm.TraceLevel
	}{
		{"off", advm.TraceOff},
		{"ops", advm.TraceOps},
		{"morsels", advm.TraceMorsels},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng, err := advm.NewEngine(
				advm.WithParallelism(1),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			sess, err := eng.Session()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := sess.QueryTraced(context.Background(), tpch.PlanQ6(li, tpch.DefaultQ6Params()), bc.level)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rows.Count(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestExplainAnalyzeFusedStages: once q6 and q3 run hot, the stages a fused
// loop folds report no timings of their own; EXPLAIN ANALYZE names the span
// that ran each of them instead of printing zeros.
func TestExplainAnalyzeFusedStages(t *testing.T) {
	const sf = 0.005
	li := tpch.GenLineitem(sf, 42)
	ord := tpch.GenOrders(sf, 42)
	cust := tpch.GenCustomer(sf, 42)
	plans := map[string]func() *advm.Plan{
		"q6": func() *advm.Plan { return tpch.PlanQ6(li, tpch.DefaultQ6Params()) },
		"q3": func() *advm.Plan { return tpch.PlanQ3(li, ord, cust, tpch.DefaultQ3Params()) },
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			sess, err := advm.NewSession(advm.WithTierThresholds(1, 1))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			out, err := sess.ExplainAnalyze(context.Background(), plan())
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, "tier=hot") || !strings.Contains(out, "fused into") {
				t.Fatalf("hot %s: no fused stage in:\n%s", name, out)
			}
			for _, line := range strings.Split(out, "\n") {
				if strings.Contains(line, "->") && strings.Contains(line, "loops=0") {
					t.Errorf("hot %s: stage line with loops=0: %q\n%s", name, line, out)
				}
			}
		})
	}
}

// TestExplainAnalyzeMarksSummedTime: on a parallel q3, EXPLAIN ANALYZE says
// which kind of time each span shows. The aggregate and the stages its
// workers run are charged by every worker at once and print actual(sum)=;
// the top-k above them and the join builds are timed by one caller and
// print a wall time, actual=. Both tiers render the same way.
func TestExplainAnalyzeMarksSummedTime(t *testing.T) {
	const sf = 0.005
	li := tpch.GenLineitem(sf, 42)
	ord := tpch.GenOrders(sf, 42)
	cust := tpch.GenCustomer(sf, 42)
	for _, hot := range []bool{false, true} {
		opts := []advm.Option{advm.WithParallelism(2)}
		if hot {
			opts = append(opts, advm.WithTierThresholds(1, 1))
		}
		sess, err := advm.NewSession(opts...)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sess.ExplainAnalyze(context.Background(), tpch.PlanQ3(li, ord, cust, tpch.DefaultQ3Params()))
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]string{
			"topk":       "actual=",
			"aggregate":  "actual(sum)=",
			"compute":    "actual(sum)=",
			"join-build": "actual=",
		}
		for _, line := range strings.Split(out, "\n") {
			for name, kind := range want {
				if strings.Contains(line, "->  "+name+" (") && !strings.Contains(line, "("+kind) {
					t.Errorf("hot=%v: %s line does not print %s: %q", hot, name, kind, line)
				}
			}
		}
		if strings.Count(out, "actual(sum)=") < 3 || t.Failed() {
			t.Fatalf("hot=%v: EXPLAIN ANALYZE:\n%s", hot, out)
		}
	}
}

// TestExplainAnalyzeGroupPath: the aggregate line of EXPLAIN ANALYZE names
// how its rows found their groups. Hot q1 over a generated table and over
// its colstore copy groups its two coded keys through the dense table; the
// same table with the keys as plain strings hashes them row by row.
func TestExplainAnalyzeGroupPath(t *testing.T) {
	const sf = 0.005
	li := tpch.GenLineitem(sf, 42)
	root := t.TempDir()
	if err := colstore.Write(root+"/lineitem", li, colstore.WriteOptions{SegmentRows: 1000}); err != nil {
		t.Fatal(err)
	}
	plain := advm.NewTable(li.Schema())
	for r := 0; r < li.Rows(); r++ {
		row := make([]advm.Value, len(li.Schema().Names))
		for c := range row {
			row[c] = li.Col(c).Get(r)
		}
		plain.AppendRow(row...)
	}
	sess, err := advm.NewSession(advm.WithTierThresholds(1, 1), advm.WithParallelism(2), advm.WithTableDir(root))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	stored, err := sess.OpenTable("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		table advm.TableSource
		want  string
	}{
		{"ram", li, "group=dense-codes"},
		{"colstore", stored, "group=dense-codes"},
		{"plain", plain, "group=hashed-strings"},
	} {
		out, err := sess.ExplainAnalyze(context.Background(), tpch.PlanQ1(tc.table))
		if err != nil {
			t.Fatal(err)
		}
		var agg string
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "aggregate") {
				agg = line
			}
		}
		if !strings.Contains(out, "tier=hot") || !strings.Contains(agg, tc.want) {
			t.Errorf("%s: want a hot q1 whose aggregate shows %s:\n%s", tc.name, tc.want, out)
		}
	}
}
