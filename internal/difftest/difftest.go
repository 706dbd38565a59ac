// Package difftest is a differential-testing harness for the relational
// layer: a seeded random plan generator over generated tables, plus a
// canonical byte encoding of query results. The invariant under test is the
// engine's core determinism guarantee — at a fixed WithMorselLen, every
// execution strategy the session options can select (serial,
// WithParallelism(1..n), any execution tier, any chunk granularity) must
// produce results byte-identical to serial execution at that same morsel
// length, floating-point aggregates included.
// The morsel length itself is part of the result identity: it pins the
// blocking of per-morsel f64 pre-aggregation, so configs are compared
// against a serial reference sharing their morsel length.
//
// The generator favours plan shapes that stress the parallel structures:
// scan→filter/compute chains (exchange), hash-join probes against a second
// table (shared build + worker probes), grouped aggregation with
// order-sensitive f64 sums (per-morsel tables merged in sequence order),
// and top-k (stable merge under ties).
//
// Every case also runs over a copy of its probe table whose Str column is
// dictionary-coded (Case.Coded, Case.CodedPlan): coded and plain strings
// must give the same bytes. Some cases draw that column from a domain too
// large for the aggregation's dense code table, so a grouping on it takes
// the code-id path.
//
// Case.Redraw adds a literal axis: the same plan structure with every
// numeric literal of its lambdas drawn again. Redraws share one plan shape,
// so on an engine at the default tier thresholds the later ones run hot,
// each through a fused program compiled with its own constants.
package difftest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"

	"repro/advm"
	"repro/internal/colstore"
	"repro/internal/vector"
)

// Case is one generated differential scenario: a plan over generated
// tables, with a human-readable description for failure reports. When the
// case is colstore-backed (NewCaseStored), StoredPlan is the structurally
// identical plan whose scans read the persisted compressed copies of the
// same tables — its results must be byte-identical to Plan's.
type Case struct {
	Probe      *advm.Table
	Build      *advm.Table
	Plan       *advm.Plan
	StoredPlan *advm.Plan
	// Coded is Probe with its Str column dictionary-coded, and CodedPlan
	// Plan over it.
	Coded     *advm.Table
	CodedPlan *advm.Plan
	Desc      string

	planSeed int64
	stored   []*colstore.Table
}

// Redraws is the number of literal variants Case.Redraw serves: the base
// plan, ordinary redraws, and the special redraws below, placed late enough
// that an engine at the default tier thresholds (hot from a shape's 8th
// execution) runs them hot.
const Redraws = 12

// The special redraws. Each applies to the literal sites it names and draws
// every other site as an ordinary redraw.
const (
	// RedrawEmptyRange turns every i64 range filter into one with lo > hi,
	// which the fused compiler lowers to a filter that keeps nothing.
	RedrawEmptyRange = 8
	// RedrawExtremes puts every i64 filter bound and i64 factor at
	// MaxInt64, or at -MaxInt64 where the base literal is negative (MinInt64
	// is not a DSL literal: its magnitude overflows), so `v < -MaxInt64` is
	// an inclusive bound at MinInt64 and factors wrap.
	RedrawExtremes = 9
	// RedrawModZero sets every modulus to 0: the fused compiler declines the
	// segment, which runs interpreted, where x % 0 is 0.
	RedrawModZero = 10
)

// Redraw returns the case's in-RAM plan with literal redraw r in
// [0, Redraws) and its description; redraw 0 is Plan itself. A redraw keeps
// every structural choice and each literal's lexical kind and sign (a '-' is
// a token of the lambda), so all redraws of a case share one plan shape.
func (c *Case) Redraw(r int) (*advm.Plan, string) {
	g := &gen{rng: rand.New(rand.NewSource(c.planSeed)), special: r}
	if r > 0 {
		g.lits = rand.New(rand.NewSource(c.planSeed + int64(r)))
	}
	p := g.genPlan(c.Probe, c.Build)
	return p, fmt.Sprintf("redraw %d: %s", r, strings.Join(g.desc, " → "))
}

// Close releases the file mappings of any colstore-backed tables the case
// opened. Safe on cases without stored backing.
func (c *Case) Close() error {
	var first error
	for _, st := range c.stored {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.stored = nil
	return first
}

// col tracks one column available at the current plan position.
type col struct {
	name string
	kind advm.Kind
}

// gen carries generator state.
type gen struct {
	rng *rand.Rand
	// lits, when set, draws every numeric literal of a redraw. The structural
	// draws from rng are still made — literal draws included, then discarded —
	// so the plan's structure does not move.
	lits    *rand.Rand
	special int // the redraw number, for the special redraws
	desc    []string
	// lastAggSchema remembers the output columns of the last generated
	// aggregate, so a stacked top-k can sort on them.
	lastAggSchema []col
}

func (g *gen) note(format string, args ...any) {
	g.desc = append(g.desc, fmt.Sprintf(format, args...))
}

// NewCase generates the scenario for one seed. The same seed always yields
// the same tables and plan.
func NewCase(seed int64) *Case {
	c, err := newCase(seed, "")
	if err != nil {
		// newCase only fails on colstore I/O, which "" disables.
		panic(err)
	}
	return c
}

// NewCaseStored generates the same scenario as NewCase(seed) and
// additionally persists both tables as compressed colstore directories under
// dir (with a seed-derived segment size), exposing StoredPlan — the same
// random plan scanning the disk-backed copies. The caller must Close the
// case to release the mappings.
func NewCaseStored(seed int64, dir string) (*Case, error) {
	return newCase(seed, dir)
}

func newCase(seed int64, dir string) (*Case, error) {
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	// Every fourth case draws s from a large domain; its own rng keeps the
	// other draws, and so every other case, as they were.
	var wide *rand.Rand
	if seed%4 == 3 {
		wide = rand.New(rand.NewSource(seed))
	}
	probe := g.genProbeTable(wide)
	build := g.genBuildTable()
	// The plan generator runs from its own derived seed so it can be replayed
	// verbatim against a different pair of table sources.
	planSeed := g.rng.Int63()
	c := &Case{Probe: probe, Build: build, Coded: codedCopy(probe), planSeed: planSeed}
	pg := &gen{rng: rand.New(rand.NewSource(planSeed))}
	c.Plan = pg.genPlan(probe, build)
	c.CodedPlan = (&gen{rng: rand.New(rand.NewSource(planSeed))}).genPlan(c.Coded, build)
	c.Desc = fmt.Sprintf("seed=%d rows=%d/%d: %s", seed, probe.Rows(), build.Rows(), strings.Join(pg.desc, " → "))
	if wide != nil {
		c.Desc += " [wide s]"
	}
	if dir == "" {
		return c, nil
	}
	// Small, varied segments: even the few-thousand-row tables span many
	// segments, so zone-map pruning has real decisions to make, and a
	// chunk's rows come from several segments, each with its own string
	// dictionary.
	segRows := []int{300, 512, 1024, 4096}[g.rng.Intn(4)]
	sources := make([]advm.TableSource, 0, 2)
	for i, tb := range []*advm.Table{probe, build} {
		sub := filepath.Join(dir, fmt.Sprintf("t%d", i))
		if err := colstore.Write(sub, tb, colstore.WriteOptions{SegmentRows: segRows}); err != nil {
			c.Close()
			return nil, err
		}
		st, err := colstore.Open(sub)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.stored = append(c.stored, st)
		sources = append(sources, st)
	}
	sg := &gen{rng: rand.New(rand.NewSource(planSeed))}
	c.StoredPlan = sg.genPlan(sources[0], sources[1])
	c.Desc += fmt.Sprintf(" [colstore seg=%d]", segRows)
	return c, nil
}

// genProbeTable builds the scan-side table: small-domain i64 group keys, a
// wide i64, an f64 measure, a short string, and an i64 join key. With wide,
// the string is drawn from wide out of wideDomain values instead of five.
func (g *gen) genProbeTable(wide *rand.Rand) *advm.Table {
	rows := 2000 + g.rng.Intn(18000)
	st := advm.NewTable(advm.NewSchema(
		"a", advm.I64, "b", advm.I64, "x", advm.F64, "s", advm.Str, "k", advm.I64))
	groups := []string{"red", "green", "blue", "teal", "plum"}
	for i := 0; i < rows; i++ {
		a := g.rng.Int63n(40)
		b := g.rng.Int63n(100000) - 50000
		x := (g.rng.Float64() - 0.5) * 1e4
		s := groups[g.rng.Intn(len(groups))]
		if wide != nil {
			s = fmt.Sprintf("w%04d", wide.Intn(wideDomain))
		}
		st.AppendRow(advm.I64Value(a), advm.I64Value(b), advm.F64Value(x), advm.StrValue(s),
			advm.I64Value(g.rng.Int63n(600)))
	}
	return st
}

// wideDomain is the number of distinct strings of a wide s column: more
// than the aggregation's dense code table takes alone.
const wideDomain = 6000

// codedCopy returns tb with its Str columns dictionary-coded.
func codedCopy(tb *advm.Table) *advm.Table {
	cols := make([]*vector.Vector, len(tb.Schema().Names))
	for i := range cols {
		cols[i] = tb.Col(i)
		if cols[i].Kind() == advm.Str {
			cols[i] = vector.Encode(cols[i].Str())
		}
	}
	return vector.DSMStoreOf(tb.Schema(), cols...)
}

// genBuildTable builds the join build side: keys overlapping the probe's k
// domain (with duplicates, so probes hit multi-match lists) and two payload
// columns.
func (g *gen) genBuildTable() *advm.Table {
	rows := 200 + g.rng.Intn(800)
	st := advm.NewTable(advm.NewSchema("bk", advm.I64, "p", advm.I64, "q", advm.F64))
	for i := 0; i < rows; i++ {
		st.AppendRow(
			advm.I64Value(g.rng.Int63n(500)),
			advm.I64Value(g.rng.Int63n(1000)),
			advm.F64Value(g.rng.Float64()*100),
		)
	}
	return st
}

// genPlan assembles a random plan over the tables: streaming stages, maybe
// a join, then one of {stream, aggregate, top-k, aggregate→top-k}.
func (g *gen) genPlan(probe, build advm.TableSource) *advm.Plan {
	cols := []col{{"a", advm.I64}, {"b", advm.I64}, {"x", advm.F64}, {"s", advm.Str}, {"k", advm.I64}}
	g.note("scan(a,b,x,s,k)")
	p := advm.Scan(probe, "a", "b", "x", "s", "k")

	p, cols = g.genStages(p, cols, 2)
	if g.rng.Intn(100) < 50 {
		p, cols = g.genJoin(p, cols, build)
		p, cols = g.genStages(p, cols, 1)
	}

	switch g.rng.Intn(4) {
	case 0: // plain stream
		g.note("stream")
		return p
	case 1:
		return g.genTopK(p, cols)
	case 2:
		return g.genAggregate(p, cols)
	default:
		p = g.genAggregate(p, cols)
		// Aggregate output: re-derive the column set for the sort.
		aggCols := []col{}
		// The aggregate's schema is keys then aggregate outputs; TopK resolves
		// names at build time, so ordering by revenue-style outputs works.
		for _, c := range g.lastAggSchema {
			aggCols = append(aggCols, c)
		}
		return g.genTopK(p, aggCols)
	}
}

// genStages appends up to max random filter/compute stages.
func (g *gen) genStages(p *advm.Plan, cols []col, max int) (*advm.Plan, []col) {
	n := g.rng.Intn(max + 1)
	for i := 0; i < n; i++ {
		if g.rng.Intn(100) < 50 {
			p = g.genFilter(p, cols)
		} else {
			p, cols = g.genCompute(p, cols)
		}
	}
	return p, cols
}

// pickNumeric returns a random numeric column.
func (g *gen) pickNumeric(cols []col) col {
	var numeric []col
	for _, c := range cols {
		if c.kind == advm.I64 || c.kind == advm.F64 {
			numeric = append(numeric, c)
		}
	}
	return numeric[g.rng.Intn(len(numeric))]
}

// genFilter appends a random predicate over a numeric column. Selectivities
// vary from near-0 to near-1, including predicates that empty the stream.
func (g *gen) genFilter(p *advm.Plan, cols []col) *advm.Plan {
	c := g.pickNumeric(cols)
	var lambda string
	if c.kind == advm.I64 {
		switch g.rng.Intn(3) {
		case 0:
			cut := g.rng.Int63n(120000) - 60000
			if g.lits != nil {
				cut = g.bound(cut, 1+g.lits.Int63n(60000))
			}
			lambda = fmt.Sprintf(`(\v -> v < %d)`, cut)
		case 1:
			m := int64(2 + g.rng.Intn(7))
			r := g.rng.Int63n(m)
			if g.lits != nil {
				m = int64(2 + g.lits.Intn(7))
				r = g.lits.Int63n(m)
				m = g.modulus(m)
			}
			lambda = fmt.Sprintf(`(\v -> (v %% %d) == %d)`, m, r)
		default:
			lo := g.rng.Int63n(400)
			hi := lo + g.rng.Int63n(300)
			if g.lits != nil {
				lo = g.lits.Int63n(400)
				hi = lo + g.lits.Int63n(300)
				switch g.special {
				case RedrawEmptyRange:
					lo, hi = hi+1, lo
				case RedrawExtremes:
					hi = math.MaxInt64
				}
			}
			lambda = fmt.Sprintf(`(\v -> (v >= %d) && (v < %d))`, lo, hi)
		}
	} else {
		cut := (g.rng.Float64() - 0.5) * 1.2e4
		if g.lits != nil {
			// A magnitude in (0, 6e3], signed like the base draw.
			cut = math.Copysign((1-g.lits.Float64())*6e3, cut)
		}
		if g.rng.Intn(2) == 0 {
			lambda = fmt.Sprintf(`(\v -> v < %g)`, cut)
		} else {
			lambda = fmt.Sprintf(`(\v -> v > %g)`, cut)
		}
	}
	g.note("filter[%s %s]", c.name, lambda)
	mode := []advm.EvalMode{advm.EvalAdaptive, advm.EvalFull, advm.EvalSelective}[g.rng.Intn(3)]
	return p.FilterMode(mode, lambda, c.name)
}

// genCompute appends a random arithmetic compute over 1–2 numeric columns.
func (g *gen) genCompute(p *advm.Plan, cols []col) (*advm.Plan, []col) {
	c1 := g.pickNumeric(cols)
	out := fmt.Sprintf("c%d_%d", len(cols), g.rng.Intn(1000))
	var lambda string
	var kind advm.Kind
	var inputs []string
	if c1.kind == advm.I64 {
		kind = advm.I64
		switch g.rng.Intn(3) {
		case 0:
			a, b := 1+g.rng.Int63n(5), g.rng.Int63n(100)
			if g.lits != nil {
				a, b = g.bound(1, 1+g.lits.Int63n(5)), g.lits.Int63n(100)
			}
			lambda = fmt.Sprintf(`(\v -> v * %d + %d)`, a, b)
			inputs = []string{c1.name}
		case 1:
			m := 2 + g.rng.Int63n(9)
			if g.lits != nil {
				m = g.modulus(2 + g.lits.Int63n(9))
			}
			lambda = fmt.Sprintf(`(\v -> (v %% %d) * 3)`, m)
			inputs = []string{c1.name}
		default:
			// Two-input compute over i64 columns.
			c2 := g.pickNumeric(cols)
			for c2.kind != advm.I64 {
				c2 = g.pickNumeric(cols)
			}
			lambda = `(\u v -> u + v * 2)`
			inputs = []string{c1.name, c2.name}
		}
	} else {
		kind = advm.F64
		switch g.rng.Intn(2) {
		case 0:
			a, b := 0.5+g.rng.Float64(), g.rng.Float64()*10
			if g.lits != nil {
				a, b = 0.5+g.lits.Float64(), g.lits.Float64()*10
			}
			lambda = fmt.Sprintf(`(\v -> v * %g + %g)`, a, b)
			inputs = []string{c1.name}
		default:
			lambda = `(\v -> v * v)`
			inputs = []string{c1.name}
		}
	}
	g.note("compute[%s=%s(%s)]", out, lambda, strings.Join(inputs, ","))
	mode := []advm.EvalMode{advm.EvalAdaptive, advm.EvalFull, advm.EvalSelective}[g.rng.Intn(3)]
	return p.ComputeMode(mode, out, lambda, kind, inputs...), append(cols, col{out, kind})
}

// genJoin probes the build table on k = bk, carrying payload columns. The
// build side gets its own random filter about half the time.
func (g *gen) genJoin(p *advm.Plan, cols []col, build advm.TableSource) (*advm.Plan, []col) {
	b := advm.Scan(build, "bk", "p", "q")
	note := "join[k=bk"
	if g.rng.Intn(2) == 0 {
		cut := g.rng.Int63n(900) + 50
		if g.lits != nil {
			cut = g.bound(cut, g.lits.Int63n(900)+50)
		}
		b = b.Filter(fmt.Sprintf(`(\v -> v < %d)`, cut), "p")
		note += fmt.Sprintf(" | build p<%d", cut)
	}
	payload := [][]string{{"p"}, {"q"}, {"p", "q"}}[g.rng.Intn(3)]
	g.note("%s payload=%v]", note, payload)
	p = p.Join(b, "k", "bk", payload...)
	for _, pay := range payload {
		kind := advm.I64
		if pay == "q" {
			kind = advm.F64
		}
		cols = append(cols, col{pay, kind})
	}
	return p, cols
}

// bound is a redrawn i64 bound or factor: mag ≥ 1, signed like the base
// literal, or ±MaxInt64 in RedrawExtremes.
func (g *gen) bound(base, mag int64) int64 {
	if g.special == RedrawExtremes {
		mag = math.MaxInt64
	}
	if base < 0 {
		return -mag
	}
	return mag
}

// modulus is a redrawn modulus m, or 0 in RedrawModZero.
func (g *gen) modulus(m int64) int64 {
	if g.special == RedrawModZero {
		return 0
	}
	return m
}

func (g *gen) genAggregate(p *advm.Plan, cols []col) *advm.Plan {
	keyChoices := [][]string{nil, {"a"}, {"s"}, {"a", "s"}}
	// Keys must still be present in the stream (they always are: a and s are
	// never dropped — plans only append columns).
	keys := keyChoices[g.rng.Intn(len(keyChoices))]

	var aggs []advm.Agg
	var out []col
	for _, k := range keys {
		kind := advm.I64
		if k == "s" {
			kind = advm.Str
		}
		out = append(out, col{k, kind})
	}
	// Always include an order-sensitive f64 sum — the hardest identity case.
	fcol := g.pickF64(cols)
	aggs = append(aggs, advm.Agg{Func: advm.AggSum, Col: fcol, As: "sum_f"})
	out = append(out, col{"sum_f", advm.F64})
	if g.rng.Intn(2) == 0 {
		icol := g.pickI64(cols)
		aggs = append(aggs, advm.Agg{Func: advm.AggSum, Col: icol, As: "sum_i"})
		out = append(out, col{"sum_i", advm.I64})
	}
	if g.rng.Intn(2) == 0 {
		aggs = append(aggs, advm.Agg{Func: advm.AggCount, As: "n"})
		out = append(out, col{"n", advm.I64})
	}
	if g.rng.Intn(2) == 0 {
		icol := g.pickI64(cols)
		fn := []advm.AggFunc{advm.AggMin, advm.AggMax}[g.rng.Intn(2)]
		aggs = append(aggs, advm.Agg{Func: fn, Col: icol, As: "mm"})
		out = append(out, col{"mm", advm.I64})
	}
	if g.rng.Intn(3) == 0 {
		fcol2 := g.pickF64(cols)
		aggs = append(aggs, advm.Agg{Func: advm.AggAvg, Col: fcol2, As: "avg_f"})
		out = append(out, col{"avg_f", advm.F64})
	}
	g.note("aggregate[keys=%v aggs=%d]", keys, len(aggs))
	g.lastAggSchema = out
	return p.Aggregate(keys, aggs...)
}

func (g *gen) pickF64(cols []col) string {
	var fs []string
	for _, c := range cols {
		if c.kind == advm.F64 {
			fs = append(fs, c.name)
		}
	}
	return fs[g.rng.Intn(len(fs))]
}

func (g *gen) pickI64(cols []col) string {
	var is []string
	for _, c := range cols {
		if c.kind == advm.I64 {
			is = append(is, c.name)
		}
	}
	return is[g.rng.Intn(len(is))]
}

// genTopK appends a top-k with 1–2 random sort columns. Low-cardinality
// sort keys (group keys, strings) produce heavy ties, exercising the
// stable-merge determinism.
func (g *gen) genTopK(p *advm.Plan, cols []col) *advm.Plan {
	k := 1 + g.rng.Intn(60)
	nOrd := 1 + g.rng.Intn(2)
	var by []advm.Order
	used := map[string]bool{}
	for i := 0; i < nOrd; i++ {
		c := cols[g.rng.Intn(len(cols))]
		if used[c.name] {
			continue
		}
		used[c.name] = true
		by = append(by, advm.Order{Col: c.name, Desc: g.rng.Intn(2) == 0})
	}
	g.note("topk[k=%d by=%v]", k, by)
	return p.TopK(k, by...)
}

// Collect drains a plan through sess and returns every result row in a
// canonical byte encoding: integers in decimal, strings raw, and floats as
// the hex of their IEEE-754 bits — so two executions agree iff their
// results are byte-identical.
func Collect(ctx context.Context, sess *advm.Session, plan *advm.Plan) ([]string, error) {
	rows, err := sess.Query(ctx, plan)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	n := len(rows.Columns())
	var out []string
	var sb strings.Builder
	for rows.Next() {
		vals := make([]advm.Value, n)
		dests := make([]any, n)
		for i := range vals {
			dests[i] = &vals[i]
		}
		if err := rows.Scan(dests...); err != nil {
			return nil, err
		}
		sb.Reset()
		for i, v := range vals {
			if i > 0 {
				sb.WriteByte('|')
			}
			switch v.Kind {
			case advm.F64:
				fmt.Fprintf(&sb, "f:%016x", math.Float64bits(v.F))
			case advm.Str:
				sb.WriteString("s:" + v.S)
			case advm.Bool:
				fmt.Fprintf(&sb, "b:%v", v.B)
			default:
				fmt.Fprintf(&sb, "i:%d", v.I)
			}
		}
		out = append(out, sb.String())
	}
	return out, rows.Err()
}
