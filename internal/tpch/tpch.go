// Package tpch provides a scale-factor-parameterized synthetic workload
// shaped like the TPC-H lineitem/orders tables, plus the Q1 and Q6 queries
// the paper's motivation revolves around (§I: vectorized execution with a
// mix of optimizations — smaller data types, adaptively triggered
// pre-aggregation — beating statically generated tuple-at-a-time code on
// TPC-H Q1, per [12] vs [17]).
//
// The official generator is unavailable offline; this generator preserves
// the distributions those queries exercise: quantity 1..50, extended price
// derived from quantity, discount 0..0.10, tax 0..0.08, shipdate spread over
// ~7 years (making Q1's cutoff predicate ≈98% selective and Q6's conjunction
// ≈2%), and returnflag/linestatus correlated with shipdate so Q1 yields the
// canonical 4-6 groups.
package tpch

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/vector"
)

// LineitemRows is the canonical row count at scale factor 1.
const LineitemRows = 6_001_215

// Shipdate domain in days since 1992-01-01; Q1's cutoff is 1998-09-02
// (day 2436 of 2526).
const (
	ShipdateMax = 2526
	Q1Cutoff    = 2436
)

// Lineitem column order in the generated store.
const (
	ColOrderkey = iota
	ColQuantity
	ColExtendedprice
	ColDiscount
	ColTax
	ColReturnflag
	ColLinestatus
	ColShipdate
)

// LineitemSchema returns the generated lineitem schema.
func LineitemSchema() vector.Schema {
	return vector.NewSchema(
		"l_orderkey", vector.I64,
		"l_quantity", vector.I64,
		"l_extendedprice", vector.F64,
		"l_discount", vector.F64,
		"l_tax", vector.F64,
		"l_returnflag", vector.Str,
		"l_linestatus", vector.Str,
		"l_shipdate", vector.I64,
	)
}

// Returnflags and Linestatuses are the dictionaries of the generated
// l_returnflag and l_linestatus columns, which are dictionary-coded.
var (
	Returnflags  = []string{"A", "N", "R"}
	Linestatuses = []string{"F", "O"}
)

// Codes of Returnflags and Linestatuses.
const (
	flagA, flagN, flagR = 0, 1, 2
	statusF, statusO    = 0, 1
)

// GenLineitem generates a lineitem table at the given scale factor. Every
// column is allocated once at its final length, and l_returnflag and
// l_linestatus are coded over Returnflags and Linestatuses from the start:
// a row of either costs a 4-byte code.
func GenLineitem(sf float64, seed int64) *vector.DSMStore {
	n := int(sf * LineitemRows)
	rng := rand.New(rand.NewSource(seed))
	orderkeys, qtys, ships := make([]int64, n), make([]int64, n), make([]int64, n)
	prices, discounts, taxes := make([]float64, n), make([]float64, n), make([]float64, n)
	flags, statuses := make([]int32, n), make([]int32, n)
	for i := 0; i < n; i++ {
		orderkeys[i] = int64(i/4 + 1)
		qty := rng.Int63n(50) + 1
		qtys[i] = qty
		// Exact-cent prices keep the fixed-point compact plan bit-compatible
		// with the float plans.
		prices[i] = float64(qty*(90000+int64(rng.Intn(100001)))) / 100
		discounts[i] = float64(rng.Intn(11)) / 100
		taxes[i] = float64(rng.Intn(9)) / 100
		// Shipdates cluster by row position — rows arrive roughly in ship
		// order, as in a real TPC-H load — with ±90 days of noise, so each
		// marginal stays near-uniform over the domain while disk segments get
		// tight zone maps that range predicates can prune.
		shipdate := int64(i)*ShipdateMax/int64(n) + int64(rng.Intn(181)) - 90
		if shipdate < 0 {
			shipdate = 0
		}
		if shipdate >= ShipdateMax {
			shipdate = ShipdateMax - 1
		}
		ships[i] = shipdate
		// Returnflag/linestatus correlate with shipdate as in TPC-H: lines
		// shipped after the receipt horizon are N/O; older ones A|R / F.
		switch {
		case shipdate > 1750:
			flags[i], statuses[i] = flagN, statusO
		case shipdate > 1700:
			flags[i], statuses[i] = flagN, statusF // the small N|F boundary group
		default:
			flags[i] = flagA
			if rng.Intn(2) != 0 {
				flags[i] = flagR
			}
			statuses[i] = statusF
		}
	}
	return vector.DSMStoreOf(LineitemSchema(),
		vector.FromI64(orderkeys),
		vector.FromI64(qtys),
		vector.FromF64(prices),
		vector.FromF64(discounts),
		vector.FromF64(taxes),
		vector.FromCodes(flags, Returnflags),
		vector.FromCodes(statuses, Linestatuses),
		vector.FromI64(ships),
	)
}

// GenOrders generates a small orders table keyed compatibly with lineitem's
// l_orderkey (for the join experiments). Ship priorities follow TPC-H's
// small integer domain so Q3 has a carried column that is functionally
// dependent on the order key.
func GenOrders(sf float64, seed int64) *vector.DSMStore {
	n := int(sf*LineitemRows) / 4
	rng := rand.New(rand.NewSource(seed + 1))
	keys, dates, custs, prios := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i + 1)
		dates[i] = int64(rng.Intn(ShipdateMax))
		custs[i] = rng.Int63n(int64(n/10 + 1))
		prios[i] = int64(rng.Intn(3))
	}
	return vector.DSMStoreOf(vector.NewSchema(
		"o_orderkey", vector.I64,
		"o_orderdate", vector.I64,
		"o_custkey", vector.I64,
		"o_shippriority", vector.I64,
	), vector.FromI64(keys), vector.FromI64(dates), vector.FromI64(custs), vector.FromI64(prios))
}

// MktSegments are the customer market segments, indexed by segment key. The
// DSL has no string predicates, so queries filter on the dictionary code
// (c_segkey) and the name column exists for presentation — exactly how a
// dictionary-encoded column behaves in a real columnar store: c_mktsegment
// is coded over MktSegments, its codes the segment keys.
var MktSegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}

// GenCustomer generates the customer table keyed compatibly with GenOrders'
// o_custkey domain at the same scale factor.
func GenCustomer(sf float64, seed int64) *vector.DSMStore {
	nOrders := int(sf*LineitemRows) / 4
	n := nOrders/10 + 1
	rng := rand.New(rand.NewSource(seed + 2))
	keys, segkeys, nations := make([]int64, n), make([]int64, n), make([]int64, n)
	segments := make([]int32, n)
	for i := 0; i < n; i++ {
		seg := rng.Intn(len(MktSegments))
		keys[i] = int64(i)
		segkeys[i] = int64(seg)
		segments[i] = int32(seg)
		nations[i] = int64(rng.Intn(25))
	}
	return vector.DSMStoreOf(vector.NewSchema(
		"c_custkey", vector.I64,
		"c_segkey", vector.I64,
		"c_mktsegment", vector.Str,
		"c_nationkey", vector.I64,
	), vector.FromI64(keys), vector.FromI64(segkeys), vector.FromCodes(segments, MktSegments), vector.FromI64(nations))
}

// Q1Group is one Q1 result group.
type Q1Group struct {
	Returnflag, Linestatus                string
	SumQty, CountOrder                    int64
	SumBasePrice, SumDiscPrice, SumCharge float64
	AvgQty, AvgPrice, AvgDisc             float64
}

// Q1Result is the Q1 answer ordered by (returnflag, linestatus).
type Q1Result []Q1Group

// SortQ1 orders groups canonically (by returnflag, then linestatus), the
// ordering Equal expects.
func SortQ1(rs Q1Result) Q1Result {
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].Returnflag != rs[b].Returnflag {
			return rs[a].Returnflag < rs[b].Returnflag
		}
		return rs[a].Linestatus < rs[b].Linestatus
	})
	return rs
}

// Equal compares results with a floating tolerance (different evaluation
// orders accumulate differently).
func (r Q1Result) Equal(other Q1Result, eps float64) error {
	if len(r) != len(other) {
		return fmt.Errorf("group count %d vs %d", len(r), len(other))
	}
	near := func(a, b float64) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		scale := 1.0
		if a > 1 || a < -1 {
			scale = a
			if scale < 0 {
				scale = -scale
			}
		}
		return d <= eps*scale
	}
	for i := range r {
		a, b := r[i], other[i]
		if a.Returnflag != b.Returnflag || a.Linestatus != b.Linestatus {
			return fmt.Errorf("group %d key %s|%s vs %s|%s", i, a.Returnflag, a.Linestatus, b.Returnflag, b.Linestatus)
		}
		if a.SumQty != b.SumQty || a.CountOrder != b.CountOrder {
			return fmt.Errorf("group %s|%s ints: %+v vs %+v", a.Returnflag, a.Linestatus, a, b)
		}
		if !near(a.SumBasePrice, b.SumBasePrice) || !near(a.SumDiscPrice, b.SumDiscPrice) ||
			!near(a.SumCharge, b.SumCharge) || !near(a.AvgQty, b.AvgQty) ||
			!near(a.AvgPrice, b.AvgPrice) || !near(a.AvgDisc, b.AvgDisc) {
			return fmt.Errorf("group %s|%s floats: %+v vs %+v", a.Returnflag, a.Linestatus, a, b)
		}
	}
	return nil
}

// Q1HyPer answers Q1 with a single hand-written tuple-at-a-time loop — the
// statically compiled data-centric plan of [17], the paper's "HyPer
// mimicking" baseline. It reads the two key columns as codes and keeps one
// accumulator per code pair.
func Q1HyPer(st *vector.DSMStore, cutoff int64) Q1Result {
	type acc struct {
		sumQty, count                       int64
		sumBase, sumDisc, sumCharge, sumDco float64
	}
	qty := st.Col(ColQuantity).I64()
	price := st.Col(ColExtendedprice).F64()
	disc := st.Col(ColDiscount).F64()
	tax := st.Col(ColTax).F64()
	flag, flags := keyCodes(st.Col(ColReturnflag))
	status, statuses := keyCodes(st.Col(ColLinestatus))
	ship := st.Col(ColShipdate).I64()

	ns := int32(len(statuses))
	accs := make([]acc, len(flags)*len(statuses))
	for i := range ship {
		if ship[i] > cutoff {
			continue
		}
		a := &accs[flag[i]*ns+status[i]]
		a.sumQty += qty[i]
		a.count++
		a.sumBase += price[i]
		dp := price[i] * (1 - disc[i])
		a.sumDisc += dp
		a.sumCharge += dp * (1 + tax[i])
		a.sumDco += disc[i]
	}
	var out Q1Result
	for k, a := range accs {
		if a.count == 0 {
			continue
		}
		out = append(out, Q1Group{
			Returnflag: flags[k/int(ns)], Linestatus: statuses[k%int(ns)],
			SumQty: a.sumQty, CountOrder: a.count,
			SumBasePrice: a.sumBase, SumDiscPrice: a.sumDisc, SumCharge: a.sumCharge,
			AvgQty:   float64(a.sumQty) / float64(a.count),
			AvgPrice: a.sumBase / float64(a.count),
			AvgDisc:  a.sumDco / float64(a.count),
		})
	}
	return SortQ1(out)
}

// keyCodes returns a key column's codes and dictionary, coding the column
// first when it is plain. The dictionary must hold each string once, as the
// generator's and vector.Encode's do.
func keyCodes(v *vector.Vector) ([]int32, []string) {
	if !v.Coded() {
		v = vector.Encode(v.Str())
	}
	return v.Codes(), v.Dict()
}

// Q6HyPer is the tuple-at-a-time Q6 baseline: revenue = Σ ep·disc for
// shipdate∈[lo,hi), disc∈[dLo,dHi], qty<qMax (≈2% selectivity at the
// standard parameters).
func Q6HyPer(st *vector.DSMStore, lo, hi int64, dLo, dHi float64, qMax int64) float64 {
	qty := st.Col(ColQuantity).I64()
	price := st.Col(ColExtendedprice).F64()
	disc := st.Col(ColDiscount).F64()
	ship := st.Col(ColShipdate).I64()
	var rev float64
	for i := range ship {
		if ship[i] >= lo && ship[i] < hi && disc[i] >= dLo && disc[i] <= dHi && qty[i] < qMax {
			rev += price[i] * disc[i]
		}
	}
	return rev
}

// Q6Params are the standard Q6 parameters mapped onto the generator's
// shipdate domain: one year starting at day 730, discount 0.05..0.07,
// quantity < 24.
type Q6Params struct {
	ShipLo, ShipHi int64
	DiscLo, DiscHi float64
	QtyMax         int64
}

// DefaultQ6Params returns the standard selectivity (~2%).
func DefaultQ6Params() Q6Params {
	return Q6Params{ShipLo: 730, ShipHi: 1095, DiscLo: 0.05, DiscHi: 0.07, QtyMax: 24}
}
