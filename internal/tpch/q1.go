package tpch

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/jit"
	"repro/internal/vector"
)

// Q1Options select the execution strategy knobs for the vectorized/adaptive
// Q1 plans.
type Q1Options struct {
	// JIT enables trace compilation in the expression VMs.
	JIT bool
	// JITOpt tunes compilation (latency model, tile size).
	JITOpt jit.Options
	// Mode fixes the predicate/projection evaluation flavor.
	Mode engine.EvalMode
	// PreAgg fixes the pre-aggregation flavor.
	PreAgg engine.PreAggMode
}

// exprJIT is the expression-VM configuration of these standalone pipelines:
// no engine owns them, so every expression VM compiles through a private
// service.
func (o Q1Options) exprJIT() engine.ExprJIT { return engine.ExprJIT{On: o.JIT, Opt: o.JITOpt} }

// Q1Engine answers Q1 through the engine pipeline
// scan → filter(shipdate ≤ cutoff) → disc_price → charge → hash aggregate,
// with every expression lowered through the DSL into the adaptive VM. With
// opts.JIT=false this is the MonetDB/X100-style purely vectorized plan; with
// JIT on it is the paper's adaptive VM executing the same program.
func Q1Engine(ctx context.Context, st *vector.DSMStore, cutoff int64, opts Q1Options) (Q1Result, error) {
	scan, err := engine.NewScan(st,
		"l_returnflag", "l_linestatus", "l_quantity",
		"l_extendedprice", "l_discount", "l_tax", "l_shipdate")
	if err != nil {
		return nil, err
	}
	filter := engine.NewFilter(scan, fmt.Sprintf(`(\d -> d <= %d)`, cutoff), "l_shipdate").
		SetMode(opts.Mode).SetJIT(opts.exprJIT())
	discPrice := engine.NewCompute(filter, "disc_price",
		`(\p d -> p * (1.0 - d))`, vector.F64, "l_extendedprice", "l_discount").
		SetMode(opts.Mode).SetJIT(opts.exprJIT())
	charge := engine.NewCompute(discPrice, "charge",
		`(\dp t -> dp * (1.0 + t))`, vector.F64, "disc_price", "l_tax").
		SetMode(opts.Mode).SetJIT(opts.exprJIT())
	agg := engine.NewHashAgg(charge,
		[]string{"l_returnflag", "l_linestatus"},
		[]engine.Aggregate{
			{Func: engine.AggSum, Col: "l_quantity", As: "sum_qty"},
			{Func: engine.AggSum, Col: "l_extendedprice", As: "sum_base_price"},
			{Func: engine.AggSum, Col: "disc_price", As: "sum_disc_price"},
			{Func: engine.AggSum, Col: "charge", As: "sum_charge"},
			{Func: engine.AggAvg, Col: "l_quantity", As: "avg_qty"},
			{Func: engine.AggAvg, Col: "l_extendedprice", As: "avg_price"},
			{Func: engine.AggAvg, Col: "l_discount", As: "avg_disc"},
			{Func: engine.AggCount, As: "count_order"},
		}).SetPreAgg(opts.PreAgg)

	out, err := engine.Collect(ctx, agg)
	if err != nil {
		return nil, err
	}
	sch := out.Schema()
	col := func(name string) *vector.Vector { return out.Col(sch.ColumnIndex(name)) }
	var res Q1Result
	for r := 0; r < out.Rows(); r++ {
		res = append(res, Q1Group{
			Returnflag:   col("l_returnflag").Str()[r],
			Linestatus:   col("l_linestatus").Str()[r],
			SumQty:       col("sum_qty").I64()[r],
			SumBasePrice: col("sum_base_price").F64()[r],
			SumDiscPrice: col("sum_disc_price").F64()[r],
			SumCharge:    col("sum_charge").F64()[r],
			AvgQty:       col("avg_qty").F64()[r],
			AvgPrice:     col("avg_price").F64()[r],
			AvgDisc:      col("avg_disc").F64()[r],
			CountOrder:   col("count_order").I64()[r],
		})
	}
	return sortQ1(res), nil
}

// CompactLineitem is the compact-data-types encoding of the Q1 columns
// ([12]): quantities fit i8 (stored i16 for headroom), prices in cents fit
// i64 totals with i32 per-row values, discount/tax in integer percent fit
// i8, and the 4-valued (returnflag, linestatus) pair becomes a 2-bit group
// code — making the whole aggregation an array update.
type CompactLineitem struct {
	N         int
	Qty       []int16
	PriceC    []int32 // extended price in cents
	DiscPct   []int8  // discount ·100
	TaxPct    []int8  // tax ·100
	GroupCode []uint8 // 0:A|F 1:N|F 2:N|O 3:R|F
	Shipdate  []int16
}

// GroupCodes maps codes back to (returnflag, linestatus).
var GroupCodes = [4][2]string{{"A", "F"}, {"N", "F"}, {"N", "O"}, {"R", "F"}}

// Compact encodes a generated lineitem store.
func Compact(st *vector.DSMStore) *CompactLineitem {
	n := st.Rows()
	cl := &CompactLineitem{
		N: n, Qty: make([]int16, n), PriceC: make([]int32, n),
		DiscPct: make([]int8, n), TaxPct: make([]int8, n),
		GroupCode: make([]uint8, n), Shipdate: make([]int16, n),
	}
	qty := st.Col(ColQuantity).I64()
	price := st.Col(ColExtendedprice).F64()
	disc := st.Col(ColDiscount).F64()
	tax := st.Col(ColTax).F64()
	flag := st.Col(ColReturnflag).Str()
	status := st.Col(ColLinestatus).Str()
	ship := st.Col(ColShipdate).I64()
	for i := 0; i < n; i++ {
		cl.Qty[i] = int16(qty[i])
		cl.PriceC[i] = int32(price[i]*100 + 0.5)
		cl.DiscPct[i] = int8(disc[i]*100 + 0.5)
		cl.TaxPct[i] = int8(tax[i]*100 + 0.5)
		cl.Shipdate[i] = int16(ship[i])
		switch {
		case flag[i] == "A":
			cl.GroupCode[i] = 0
		case flag[i] == "N" && status[i] == "F":
			cl.GroupCode[i] = 1
		case flag[i] == "N":
			cl.GroupCode[i] = 2
		default:
			cl.GroupCode[i] = 3
		}
	}
	return cl
}

// Q1Compact answers Q1 on the compact encoding with fixed-point arithmetic
// and a 4-slot direct-array aggregation table — the vectorized plan with the
// [12] optimization mix (smaller data types + perfect pre-aggregation) that
// the paper's §I cites as beating statically generated code.
func Q1Compact(cl *CompactLineitem, cutoff int64) Q1Result {
	type acc struct {
		sumQty, count, sumBaseC, sumDiscC2, sumChargeC3, sumDiscPct int64
	}
	var accs [4]acc
	cut := int16(cutoff)
	for i := 0; i < cl.N; i++ {
		if cl.Shipdate[i] > cut {
			continue
		}
		g := &accs[cl.GroupCode[i]]
		q := int64(cl.Qty[i])
		p := int64(cl.PriceC[i])
		d := int64(cl.DiscPct[i])
		t := int64(cl.TaxPct[i])
		g.sumQty += q
		g.count++
		g.sumBaseC += p
		dp := p * (100 - d) // price·(1-disc) ·10⁴ cents
		g.sumDiscC2 += dp
		g.sumChargeC3 += dp * (100 + t) // ·10⁶ cents
		g.sumDiscPct += d
	}
	var out Q1Result
	for code, a := range accs {
		if a.count == 0 {
			continue
		}
		out = append(out, Q1Group{
			Returnflag: GroupCodes[code][0], Linestatus: GroupCodes[code][1],
			SumQty: a.sumQty, CountOrder: a.count,
			SumBasePrice: float64(a.sumBaseC) / 100,
			SumDiscPrice: float64(a.sumDiscC2) / 1e4,
			SumCharge:    float64(a.sumChargeC3) / 1e6,
			AvgQty:       float64(a.sumQty) / float64(a.count),
			AvgPrice:     float64(a.sumBaseC) / 100 / float64(a.count),
			AvgDisc:      float64(a.sumDiscPct) / 100 / float64(a.count),
		})
	}
	return sortQ1(out)
}

// Q6Engine answers Q6 through the engine with DSL predicates: three filters
// then Σ ep·disc.
func Q6Engine(ctx context.Context, st *vector.DSMStore, p Q6Params, opts Q1Options) (float64, error) {
	scan, err := engine.NewScan(st, "l_quantity", "l_extendedprice", "l_discount", "l_shipdate")
	if err != nil {
		return 0, err
	}
	f1 := engine.NewFilter(scan, fmt.Sprintf(`(\d -> (d >= %d) && (d < %d))`, p.ShipLo, p.ShipHi), "l_shipdate").
		SetMode(opts.Mode).SetJIT(opts.exprJIT())
	f2 := engine.NewFilter(f1, fmt.Sprintf(`(\x -> (x >= %v) && (x <= %v))`, p.DiscLo, p.DiscHi), "l_discount").
		SetMode(opts.Mode).SetJIT(opts.exprJIT())
	f3 := engine.NewFilter(f2, fmt.Sprintf(`(\q -> q < %d)`, p.QtyMax), "l_quantity").
		SetMode(opts.Mode).SetJIT(opts.exprJIT())
	rev := engine.NewCompute(f3, "revenue", `(\p d -> p * d)`, vector.F64, "l_extendedprice", "l_discount").
		SetMode(opts.Mode).SetJIT(opts.exprJIT())
	agg := engine.NewHashAgg(rev, nil, []engine.Aggregate{
		{Func: engine.AggSum, Col: "revenue", As: "revenue"},
	})
	out, err := engine.Collect(ctx, agg)
	if err != nil {
		return 0, err
	}
	if out.Rows() == 0 {
		return 0, nil
	}
	return out.Col(out.Schema().ColumnIndex("revenue")).F64()[0], nil
}
