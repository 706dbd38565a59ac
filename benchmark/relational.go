package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/advm"
	"repro/internal/colstore"
	"repro/internal/qtrace"
	"repro/internal/tpch"
)

// Frozen sizes of the relational workloads (see README.md). The smoke scale
// is what the package's own test runs at.
const (
	sfScanRAM  = 0.05
	sfScanDisk = 0.1
	sfJoinAgg  = 0.02
	sfServe    = 0.05
	sfSmoke    = 0.002

	// diskSegmentRows is scan_disk's colstore segment size: 73 segments of
	// about 35 ship days each at SF 0.1, so a q6 window survives pruning with
	// 6–12 segments and where it falls against the segment grid moves its
	// cost by a tenth, not — as with tpch.ColstoreSegmentRows' 18 segments of
	// 138 days — by a third.
	diskSegmentRows = 8192
)

// ---------------------------------------------------------------------------
// Plans the repo does not already export with parameters.

// planQ1 is tpch.PlanQ1 with the shipdate cutoff as a parameter.
func planQ1(li advm.TableSource, cutoff int64) *advm.Plan {
	return advm.Scan(li,
		"l_returnflag", "l_linestatus", "l_quantity",
		"l_extendedprice", "l_discount", "l_tax", "l_shipdate").
		Filter(fmt.Sprintf(`(\d -> d <= %d)`, cutoff), "l_shipdate").
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
}

// planQ18 is the Q18-like large group-by: lineitems shipped after thr,
// quantity summed per order, the ten largest orders.
func planQ18(li advm.TableSource, thr int64) *advm.Plan {
	return advm.Scan(li, "l_orderkey", "l_quantity", "l_shipdate").
		Filter(fmt.Sprintf(`(\d -> d > %d)`, thr), "l_shipdate").
		Aggregate([]string{"l_orderkey"}, advm.Agg{Func: advm.AggSum, Col: "l_quantity", As: "sum_qty"}).
		TopK(10, advm.Order{Col: "sum_qty", Desc: true}, advm.Order{Col: "l_orderkey"})
}

// ---------------------------------------------------------------------------
// Results and references. A result is the rows of a query as boxed values
// (int64 / float64 / string from the cursor, json.Number from NDJSON), so
// one checker per class serves the embedded and the served workloads.

func asInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case json.Number:
		i, err := x.Int64()
		return i, err == nil
	}
	return 0, false
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	}
	return 0, false
}

// checker compares a result with a reference that does not come from the
// engine.
type checker func(rows [][]any) error

func badShape(class string, rows [][]any) error {
	return fmt.Errorf("%s: malformed result %v", class, rows)
}

func checkQ6(want float64) checker {
	return func(rows [][]any) error {
		if len(rows) != 1 || len(rows[0]) != 1 {
			return badShape("q6", rows)
		}
		got, ok := asFloat(rows[0][0])
		if !ok || !nearRel(got, want, refEps) {
			return fmt.Errorf("q6: revenue %v, reference %v", rows[0][0], want)
		}
		return nil
	}
}

func checkQ1(want tpch.Q1Result) checker {
	return func(rows [][]any) error {
		var got tpch.Q1Result
		for _, r := range rows {
			if len(r) != 10 {
				return badShape("q1", rows)
			}
			var g tpch.Q1Group
			var ok [10]bool
			g.Returnflag, ok[0] = r[0].(string)
			g.Linestatus, ok[1] = r[1].(string)
			g.SumQty, ok[2] = asInt(r[2])
			g.SumBasePrice, ok[3] = asFloat(r[3])
			g.SumDiscPrice, ok[4] = asFloat(r[4])
			g.SumCharge, ok[5] = asFloat(r[5])
			g.AvgQty, ok[6] = asFloat(r[6])
			g.AvgPrice, ok[7] = asFloat(r[7])
			g.AvgDisc, ok[8] = asFloat(r[8])
			g.CountOrder, ok[9] = asInt(r[9])
			if ok != [10]bool{true, true, true, true, true, true, true, true, true, true} {
				return badShape("q1", rows)
			}
			got = append(got, g)
		}
		if err := want.Equal(tpch.SortQ1(got), refEps); err != nil {
			return fmt.Errorf("q1: %w", err)
		}
		return nil
	}
}

func checkQ3(want tpch.Q3Result) checker {
	return func(rows [][]any) error {
		var got tpch.Q3Result
		for _, r := range rows {
			if len(r) != 4 {
				return badShape("q3", rows)
			}
			var row tpch.Q3Row
			var ok [4]bool
			row.Orderkey, ok[0] = asInt(r[0])
			row.Revenue, ok[1] = asFloat(r[1])
			row.Orderdate, ok[2] = asInt(r[2])
			row.Shippriority, ok[3] = asInt(r[3])
			if ok != [4]bool{true, true, true, true} {
				return badShape("q3", rows)
			}
			got = append(got, row)
		}
		if err := want.Equal(got, refEps); err != nil {
			return fmt.Errorf("q3: %w", err)
		}
		return nil
	}
}

// keySum is one (group key, sum) row of the q18like and ad-hoc references.
type keySum struct {
	key int64
	sum float64
}

// topKeySums orders rows by sum descending then key ascending — the order
// both plans ask TopK for — and keeps the first k.
func topKeySums(rows []keySum, k int) []keySum {
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].sum != rows[b].sum {
			return rows[a].sum > rows[b].sum
		}
		return rows[a].key < rows[b].key
	})
	if len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

func refQ18(li *advm.Table, thr int64) []keySum {
	okey := li.Col(tpch.ColOrderkey).I64()
	qty := li.Col(tpch.ColQuantity).I64()
	ship := li.Col(tpch.ColShipdate).I64()
	sums := map[int64]int64{}
	for i := range ship {
		if ship[i] > thr {
			sums[okey[i]] += qty[i]
		}
	}
	rows := make([]keySum, 0, len(sums))
	for k, s := range sums {
		rows = append(rows, keySum{key: k, sum: float64(s)})
	}
	return topKeySums(rows, 10)
}

// checkKeySums checks (key, sum[, count]) rows; keyCol/sumCol locate the
// two compared columns.
func checkKeySums(class string, want []keySum, keyCol, sumCol int) checker {
	return func(rows [][]any) error {
		if len(rows) != len(want) {
			return fmt.Errorf("%s: %d rows, reference %d", class, len(rows), len(want))
		}
		for i, r := range rows {
			if len(r) <= keyCol || len(r) <= sumCol {
				return badShape(class, rows)
			}
			key, ok1 := asInt(r[keyCol])
			sum, ok2 := asFloat(r[sumCol])
			if !ok2 {
				var n int64
				n, ok2 = asInt(r[sumCol])
				sum = float64(n)
			}
			if !ok1 || !ok2 || key != want[i].key || !nearRel(sum, want[i].sum, refEps) {
				return fmt.Errorf("%s: row %d is %v, reference %+v", class, i, r, want[i])
			}
		}
		return nil
	}
}

// ---------------------------------------------------------------------------
// Pools: the seeded parameter sets of a workload and the schedule over them.

// entry is one distinct shape of a pool: a parameter set whose plan
// fingerprint (lambda constants included) differs from every other entry's.
type entry struct {
	class  string
	params any
	check  checker
	// serve_mix only: the request this shape sends.
	path string
	body []byte
}

// pool is what the seed decides: the distinct shapes the cold pass visits
// once each, the shapes the tier-up pass makes hot, and the op schedule.
type pool struct {
	cold []*entry
	warm []*entry
	next func() *entry
}

// The shape of every relational mix. A small hot set of light shapes carries
// most of the light traffic and runs at the hot tier from the window's first
// op; a tail of light shapes that are never repeated stays cold for good; a
// small set of heavy shapes is hot as well. The tier state is therefore the
// same at the start and the end of the window — a Zipf draw over one finite
// pool keeps tiering up for minutes and drags p50_ms with it. The shares are
// dealt exactly, per block of 25 ops.
//
// The engine allocates megabytes per query on a small live heap, so a GC
// cycle runs every few queries and a query that overlaps one takes up to
// twice as long: every hot light class has a GC-free hump and a GC-hit hump,
// about two to one. The shares are chosen so that p50_ms sits inside a hump
// and not on the knee between them, on this host's numbers:
//
//   - scans, 88/4/8: q6's humps blur into each other (p25 2.0, p50 3.4, p75
//     4.8 ms); p50_ms is the 57th percentile of hot q6 and p95_ms the 37th
//     percentile of q1, above the tail.
//   - join_agg, 56/4/40: q3's humps are sharp (5.5 and 10 ms, knee at the
//     55th–67th percentile), and no share below 100 % keeps the median of the
//     mix under the knee. With 40 % heavy ops the GC-free hump ends at the
//     37th percentile of the mix and the GC-hit hump at the 56th: p50_ms sits
//     two thirds into the GC-hit hump for any GC share between 0.15 and 0.6,
//     and p95_ms is the 88th percentile of q18like.
const (
	hotSetSize   = 8
	heavySetSize = 4
	coldTail     = 36 // tail shapes in the cold pass: 48 distinct shapes with the two sets
)

// laneShares are the ops per block of 25 that come from the hot set, the
// never-repeated tail and the heavy set.
type laneShares struct{ hot, tail, heavy int }

var (
	scanShares = laneShares{22, 1, 2}
	joinShares = laneShares{14, 1, 10}
)

// q6ShipWidths fixes the ship-window width of the i-th q6 shape drawn, so
// how much work the hot set and the tail do — on scan_disk the width is the
// number of segments that survive pruning — is the same for every seed; the
// seed moves the windows, the discount bands, the quantities and the data.
var q6ShipWidths = []int64{120, 60, 240, 30, 180, 90, 150, 45}

var q6DiscBands = [][2]float64{{0.02, 0.04}, {0.03, 0.05}, {0.04, 0.06}, {0.05, 0.07}, {0.06, 0.08}}

// q6Source draws distinct Q6 parameter sets, never repeating one.
func q6Source(rng *rand.Rand) func() tpch.Q6Params {
	seen := map[tpch.Q6Params]bool{}
	return func() tpch.Q6Params {
		for {
			w := q6ShipWidths[len(seen)%len(q6ShipWidths)]
			lo := rng.Int63n(tpch.ShipdateMax - w)
			band := q6DiscBands[rng.Intn(len(q6DiscBands))]
			p := tpch.Q6Params{ShipLo: lo, ShipHi: lo + w, DiscLo: band[0], DiscHi: band[1], QtyMax: 20 + rng.Int63n(11)}
			if !seen[p] {
				seen[p] = true
				return p
			}
		}
	}
}

// q3Source draws distinct Q3 parameter sets.
func q3Source(rng *rand.Rand) func() tpch.Q3Params {
	seen := map[tpch.Q3Params]bool{}
	return func() tpch.Q3Params {
		for {
			p := tpch.Q3Params{Segment: int64(rng.Intn(len(tpch.MktSegments))), Date: 900 + rng.Int63n(600), TopK: 10}
			if !seen[p] {
				seen[p] = true
				return p
			}
		}
	}
}

// distinctInts draws n distinct values from [lo, hi).
func distinctInts(rng *rand.Rand, n int, lo, hi int64) []int64 {
	seen := map[int64]bool{}
	out := make([]int64, 0, n)
	for len(out) < n {
		v := lo + rng.Int63n(hi-lo)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// lazyCheck defers computing a reference to the first check: results are
// checked after the window closes, so the references of the never-repeated
// tail shapes cost the measured window nothing.
func lazyCheck(ref func() checker) checker {
	var check checker
	return func(rows [][]any) error {
		if check == nil {
			check = ref()
		}
		return check(rows)
	}
}

// threeLanePool assembles a pool from a source of light shapes and a set of
// heavy ones: the first hotSetSize light shapes are the hot set, coldTail
// more join the cold pass, and the schedule keeps drawing fresh tail shapes.
func threeLanePool(rng *rand.Rand, shares laneShares, light func() *entry, heavy []*entry) *pool {
	p := &pool{}
	for i := 0; i < hotSetSize; i++ {
		p.warm = append(p.warm, light())
	}
	hot := p.warm
	p.warm = append(p.warm, heavy...)
	p.cold = append(p.cold, p.warm...)
	for i := 0; i < coldTail; i++ {
		p.cold = append(p.cold, light())
	}
	p.next = dealSchedule(rng,
		lane{shares.hot, uniformOver(rng, hot)},
		lane{shares.tail, light},
		lane{shares.heavy, uniformOver(rng, heavy)})
	return p
}

// ---------------------------------------------------------------------------
// The three embedded relational workloads.

type relWorkload struct {
	cfg  *runConfig
	kind string // scan_ram | scan_disk | join_agg
	sf   float64

	li, ord, cust *advm.Table
	src           advm.TableSource // what lineitem scans read
	stored        *advm.StoredTable
	eng           *advm.Engine
	sess          *advm.Session
}

func newRelWorkload(cfg *runConfig) *relWorkload {
	w := &relWorkload{cfg: cfg, kind: cfg.workload}
	switch w.kind {
	case "scan_ram":
		w.sf = sfScanRAM
	case "scan_disk":
		w.sf = sfScanDisk
	default:
		w.sf = sfJoinAgg
	}
	if cfg.smoke {
		w.sf = sfSmoke
	}
	return w
}

// tableSet is the generated in-RAM tables of the current set-up round.
// References are computed from cfg.tables when a result is checked, so they
// never pin an earlier round's tables.
type tableSet struct{ li, ord, cust *advm.Table }

// genTables generates the TPC-H tables a workload reads, recording the
// generator's time and output size.
func genTables(cfg *runConfig, sf float64, joins bool) (li, ord, cust *advm.Table) {
	defer func() { cfg.tables = &tableSet{li, ord, cust} }()
	sp := cfg.tr.begin(0, 0, 0, "setup/tpch.gen")
	t0 := time.Now()
	li = tpch.GenLineitem(sf, cfg.seed)
	rows := li.Rows()
	if joins {
		ord = tpch.GenOrders(sf, cfg.seed)
		cust = tpch.GenCustomer(sf, cfg.seed)
		rows += ord.Rows() + cust.Rows()
	}
	cfg.layers.add("tpch.gen_s", time.Since(t0).Seconds())
	cfg.layers.add("tpch.rows", float64(rows))
	cfg.tr.end(sp)
	return li, ord, cust
}

func (w *relWorkload) setup() error {
	cfg := w.cfg
	w.li, w.ord, w.cust = genTables(cfg, w.sf, w.kind == "join_agg")
	w.src = w.li
	var err error
	if w.eng, err = advm.NewEngine(cfg.engineOptions()...); err != nil {
		return err
	}
	if w.kind == "scan_disk" {
		dir, err := os.MkdirTemp(cfg.tmpRoot, "colstore-")
		if err != nil {
			return err
		}
		dir = filepath.Join(dir, "lineitem")
		sp := cfg.tr.begin(0, 0, 0, "setup/colstore.write")
		t0 := time.Now()
		opts := colstore.WriteOptions{SegmentRows: diskSegmentRows}
		if err := colstore.Write(dir, w.li, opts); err != nil {
			return err
		}
		cfg.layers.add("colstore.write_s", time.Since(t0).Seconds())
		cfg.tr.end(sp)
		sp = cfg.tr.begin(0, 0, 0, "setup/colstore.open")
		t0 = time.Now()
		if w.stored, err = w.eng.OpenTable(dir); err != nil {
			return err
		}
		cfg.layers.add("colstore.open_ms", ms(time.Since(t0)))
		cfg.tr.end(sp)
		w.src = w.stored
	}
	w.sess, err = w.eng.Session()
	return err
}

func (w *relWorkload) close() {
	if w.eng != nil {
		w.eng.Close() // also releases the stored table's mappings
	}
}

func (w *relWorkload) engine() *advm.Engine { return w.eng }

func (w *relWorkload) buildPool(rng *rand.Rand) *pool {
	cfg := w.cfg
	shares := scanShares
	var light func() *entry
	var heavy []*entry
	if w.kind == "join_agg" {
		shares = joinShares
		q3 := q3Source(rng)
		light = func() *entry {
			p := q3()
			return &entry{class: "q3", params: p, check: lazyCheck(func() checker {
				return checkQ3(tpch.Q3HyPer(cfg.tables.li, cfg.tables.ord, cfg.tables.cust, p))
			})}
		}
		for _, thr := range distinctInts(rng, heavySetSize, 600, 1000) {
			heavy = append(heavy, &entry{class: "q18like", params: thr,
				check: lazyCheck(func() checker { return checkKeySums("q18like", refQ18(cfg.tables.li, thr), 0, 1) })})
		}
	} else {
		q6 := q6Source(rng)
		light = func() *entry {
			p := q6()
			return &entry{class: "q6", params: p, check: lazyCheck(func() checker {
				return checkQ6(tpch.Q6HyPer(cfg.tables.li, p.ShipLo, p.ShipHi, p.DiscLo, p.DiscHi, p.QtyMax))
			})}
		}
		for _, cutoff := range distinctInts(rng, heavySetSize, 2350, 2500) {
			heavy = append(heavy, &entry{class: "q1", params: cutoff,
				check: lazyCheck(func() checker { return checkQ1(tpch.Q1HyPer(cfg.tables.li, cutoff)) })})
		}
	}
	return threeLanePool(rng, shares, light, heavy)
}

// plan builds the plan of a relational entry over the given sources.
func relPlan(e *entry, li, ord, cust advm.TableSource) *advm.Plan {
	switch e.class {
	case "q6":
		return tpch.PlanQ6(li, e.params.(tpch.Q6Params))
	case "q1":
		return planQ1(li, e.params.(int64))
	case "q3":
		return tpch.PlanQ3(li, ord, cust, e.params.(tpch.Q3Params))
	default:
		return planQ18(li, e.params.(int64))
	}
}

func (w *relWorkload) exec(ctx context.Context, oc *opCtx, e *entry) error {
	rows, err := queryRows(ctx, w.sess, oc, func() *advm.Plan { return relPlan(e, w.src, w.ord, w.cust) })
	if err != nil {
		return err
	}
	oc.obs.deferred = func() error { return e.check(rows) }
	return nil
}

// queryRows runs one query through the public cursor — plan build, Query,
// drain to the last row — filling the op's observation: the latency clock
// stops when the last row is drained, before the caller checks the result.
func queryRows(ctx context.Context, sess *advm.Session, oc *opCtx, build func() *advm.Plan) ([][]any, error) {
	o := oc.obs
	sp := oc.begin("advm.plan_open")
	plan := build()
	level := advm.TraceOff
	if oc.traced {
		level = advm.TraceOps
	}
	rows, err := sess.QueryTraced(ctx, plan, level)
	o.opened = time.Now()
	oc.end(sp)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	sp = oc.begin("advm.drain")
	var out [][]any
	n := len(rows.Columns())
	for rows.Next() {
		if o.firstRow.IsZero() {
			o.firstRow = time.Now()
		}
		row := make([]any, n)
		dests := make([]any, n)
		for i := range row {
			dests[i] = &row[i]
		}
		if err := rows.Scan(dests...); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	o.end = time.Now()
	oc.end(sp)
	if err := rows.Err(); err != nil {
		return nil, err
	}
	rows.Close() // counters and the trace are final once closed
	o.relational = true
	o.segScanned, o.segSkipped = rows.ScanStats()
	o.steals, o.fused = rows.Steals(), rows.Fused()
	o.rowsOut = int64(len(out))
	if tr := rows.Trace(); tr != nil {
		o.self = tr.OpSelfTimes()
		o.rowsScanned = scannedRows(tr)
	}
	return out, nil
}

// scannedRows sums the rows the scan operators of a traced query read
// (the table's row count where the scan ran inside a fused or fanned-out
// segment and kept no count of its own).
func scannedRows(tr *qtrace.Trace) int64 {
	var n int64
	for _, s := range tr.Spans() {
		if s.Kind() != qtrace.KindOp || s.Name() != "scan" {
			continue
		}
		if r := s.Rows(); r > 0 {
			n += r
		} else if tr, ok := s.Attr("table_rows").(int); ok {
			n += int64(tr)
		}
	}
	return n
}
