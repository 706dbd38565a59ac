package tpch

import (
	"fmt"

	"repro/advm"
)

// This file builds the TPC-H reference queries through the *public* advm
// plan builder — the single source of truth for every harness that drives
// Q1/Q3/Q6 end-to-end over the embedding API (integration tests, the repo
// benchmark, advm-bench's E20/E21 perf records), so the measured and the
// verified query cannot drift apart.

// PlanQ1 builds the full TPC-H Q1 (filter → disc_price → charge → grouped
// aggregation, all eight aggregates) as a public plan over a lineitem table
// — in-RAM or opened from a colstore directory. Column names match
// Q1Engine's output.
func PlanQ1(st advm.TableSource) *advm.Plan {
	return advm.Scan(st,
		"l_returnflag", "l_linestatus", "l_quantity",
		"l_extendedprice", "l_discount", "l_tax", "l_shipdate").
		Filter(fmt.Sprintf(`(\d -> d <= %d)`, Q1Cutoff), "l_shipdate").
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

// PlanQ3 builds TPC-H Q3, the shipping-priority query, as a public plan:
//
//	customer(σ segment) ⟵build⟶ orders(σ orderdate) ⟵build⟶ lineitem(σ shipdate)
//	→ revenue = l_extendedprice·(1−l_discount)
//	→ group by l_orderkey (carrying o_orderdate, o_shippriority)
//	→ top-K by revenue desc, o_orderdate asc
//
// It is the first multi-join scenario: under WithParallelism the lineitem
// probe fans out across morsel workers, both build sides are hashed in
// parallel into shared read-only tables, and the grouped aggregation folds
// worker-locally — with results byte-identical to serial execution.
func PlanQ3(li, ord, cust advm.TableSource, p Q3Params) *advm.Plan {
	customers := advm.Scan(cust, "c_custkey", "c_segkey").
		Filter(fmt.Sprintf(`(\s -> s == %d)`, p.Segment), "c_segkey")
	orders := advm.Scan(ord, "o_orderkey", "o_custkey", "o_orderdate", "o_shippriority").
		Filter(fmt.Sprintf(`(\d -> d < %d)`, p.Date), "o_orderdate").
		Join(customers, "o_custkey", "c_custkey")
	return advm.Scan(li, "l_orderkey", "l_extendedprice", "l_discount", "l_shipdate").
		Filter(fmt.Sprintf(`(\d -> d > %d)`, p.Date), "l_shipdate").
		Join(orders, "l_orderkey", "o_orderkey", "o_orderdate", "o_shippriority").
		Compute("revenue", `(\p d -> p * (1.0 - d))`, advm.F64, "l_extendedprice", "l_discount").
		Aggregate([]string{"l_orderkey"},
			advm.Agg{Func: advm.AggSum, Col: "revenue", As: "revenue"},
			advm.Agg{Func: advm.AggFirst, Col: "o_orderdate", As: "o_orderdate"},
			advm.Agg{Func: advm.AggFirst, Col: "o_shippriority", As: "o_shippriority"}).
		TopK(p.TopK, advm.Order{Col: "revenue", Desc: true}, advm.Order{Col: "o_orderdate"})
}

// PlanQ6 builds TPC-H Q6 (three filters → revenue → global sum) as a public
// plan. Over a stored table, the shipdate range filter prunes whole
// segments through the zone maps before any byte of them is decoded.
func PlanQ6(st advm.TableSource, p Q6Params) *advm.Plan {
	return advm.Scan(st, "l_quantity", "l_extendedprice", "l_discount", "l_shipdate").
		Filter(fmt.Sprintf(`(\d -> (d >= %d) && (d < %d))`, p.ShipLo, p.ShipHi), "l_shipdate").
		Filter(fmt.Sprintf(`(\x -> (x >= %v) && (x <= %v))`, p.DiscLo, p.DiscHi), "l_discount").
		Filter(fmt.Sprintf(`(\q -> q < %d)`, p.QtyMax), "l_quantity").
		Compute("revenue", `(\p d -> p * d)`, advm.F64, "l_extendedprice", "l_discount").
		Aggregate(nil, advm.Agg{Func: advm.AggSum, Col: "revenue", As: "revenue"})
}
