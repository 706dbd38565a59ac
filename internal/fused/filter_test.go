package fused_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/fused"
	"repro/internal/vector"
)

// cmpOps are the comparisons a fused filter compiles, in BinOp form.
var cmpOps = []dsl.BinOp{dsl.OpLt, dsl.OpLe, dsl.OpGt, dsl.OpGe, dsl.OpEq, dsl.OpNe}

// cmp builds the predicate body `v OP c`. Lambdas are built as trees, not
// parsed, so that constants no literal can spell (MinInt64, -0.0, NaN) are
// reachable.
func cmp(op dsl.BinOp, c vector.Value) dsl.Expr {
	return &dsl.Bin{Op: op, L: &dsl.VarRef{Name: "v"}, R: &dsl.Const{Val: c}}
}

func and(l, r dsl.Expr) dsl.Expr { return &dsl.Bin{Op: dsl.OpAnd, L: l, R: r} }

func pred(body dsl.Expr) *dsl.Lambda { return &dsl.Lambda{Params: []string{"v"}, Body: body} }

// holds evaluates `v OP c` with Go's operators; the tests use it only to
// build data of a chosen selectivity, never as the expected result.
func holds[T int64 | float64](op dsl.BinOp, v, c T) bool {
	switch op {
	case dsl.OpLt:
		return v < c
	case dsl.OpLe:
		return v <= c
	case dsl.OpGt:
		return v > c
	case dsl.OpGe:
		return v >= c
	case dsl.OpEq:
		return v == c
	}
	return v != c
}

// i64Pool and f64Pool are the values test columns draw from: the edges of
// the type, the constant and its neighbours, and a spread of ordinary
// values.
func i64Pool(consts ...int64) []int64 {
	pool := []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64, -1, 0, 1}
	for _, c := range consts {
		pool = append(pool, c, c-1, c+1, c/2, c+100, c-100) // wrap-around at the edges is fine
	}
	for v := int64(-90); v <= 90; v += 15 {
		pool = append(pool, v)
	}
	return pool
}

func f64Pool(consts ...float64) []float64 {
	pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, c := range consts {
		pool = append(pool, c, math.Nextafter(c, math.Inf(1)), math.Nextafter(c, math.Inf(-1)), c/2, c*3)
	}
	for v := -4.5; v <= 4.5; v += 0.75 {
		pool = append(pool, v)
	}
	return pool
}

// column draws n values from pool such that exactly hits of them satisfy
// keep, at positions scattered by rng. When no pool value satisfies keep
// (or none fails it) every row takes the other side.
func column[T int64 | float64](rng *rand.Rand, n, hits int, pool []T, keep func(T) bool) []T {
	var yes, no []T
	for _, v := range pool {
		if keep(v) {
			yes = append(yes, v)
		} else {
			no = append(no, v)
		}
	}
	out := make([]T, n)
	for i, r := range rng.Perm(n) {
		side := no
		if (i < hits && len(yes) > 0) || len(no) == 0 {
			side = yes
		}
		out[r] = side[rng.Intn(len(side))]
	}
	return out
}

// draw returns n values drawn from pool by rng.
func draw[T int64 | float64](rng *rand.Rand, n int, pool []T) []T {
	out := make([]T, n)
	for r := range out {
		out[r] = pool[rng.Intn(len(pool))]
	}
	return out
}

// selLeaf hands out a store in 256-row chunks that each carry a selection,
// as a chunk reaching a fused loop through an upstream filter would. The
// selection keeps about three rows in four, scattered, except in the first
// chunk, where it keeps none: a loop must not read that empty selection as
// "no selection".
type selLeaf struct {
	st    *vector.DSMStore
	names []string
	pos   int
	chunk int
}

func newSelLeaf(st *vector.DSMStore) *selLeaf {
	return &selLeaf{st: st, names: st.Schema().Names}
}

func (l *selLeaf) Schema() []engine.ColInfo {
	var cols []engine.ColInfo
	for i, n := range l.names {
		cols = append(cols, engine.ColInfo{Name: n, Kind: l.st.Schema().Kinds[i]})
	}
	return cols
}

func (l *selLeaf) Open(context.Context) error { l.pos, l.chunk = 0, 0; return nil }

func (l *selLeaf) Close() error { return nil }

func (l *selLeaf) Next(context.Context) (*vector.Chunk, error) {
	if l.pos >= l.st.Rows() {
		return nil, nil
	}
	hi := min(l.pos+256, l.st.Rows())
	cols := make([]*vector.Vector, len(l.names))
	for i := range cols {
		cols[i] = l.st.Col(i).Slice(l.pos, hi)
	}
	c := vector.ChunkFrom(l.names, cols)
	sel := vector.Sel{}
	for r := 0; r < hi-l.pos && l.chunk != 0; r++ {
		if (uint32(r+l.pos)*2654435761)>>29%4 != 0 {
			sel = append(sel, int32(r))
		}
	}
	c.SetSel(sel)
	l.pos, l.chunk = hi, l.chunk+1
	return c, nil
}

// filterMatches runs one filter over st's column v both fused and
// interpreted, on chunks with no selection or, when withSel is set, on
// chunks that carry one. It fails unless both emit the same rows, bit for
// bit and in the same order (st's second column holds each row's number),
// and returns the fused program's op count and how many rows survived.
func filterMatches(t *testing.T, st *vector.DSMStore, lam *dsl.Lambda, withSel bool) (ops, kept int) {
	t.Helper()
	schema := []engine.ColInfo{ci("v", st.Schema().Kinds[0]), ci("row", vector.I64)}
	prog, ok := fused.Compile(schema, []fused.Stage{{Kind: fused.StageFilter, Fn: lam, Col: "v"}})
	if !ok {
		t.Fatal("must compile")
	}
	leaf := func() engine.Operator {
		if withSel {
			return newSelLeaf(st)
		}
		return newScan(t, st, []string{"v", "row"})
	}
	got, _ := drain(t, fused.NewExec(prog, leaf(), nil, nil))
	want, _ := drain(t, engine.NewFilter(leaf(), lam, "v"))
	storesEqual(t, got, want)
	return prog.Ops(), got.Rows()
}

// valueTable is a (v, row) table over v's values and their row numbers.
func valueTable(v *vector.Vector) *vector.DSMStore {
	rows := make([]int64, v.Len())
	for r := range rows {
		rows[r] = int64(r)
	}
	st := vector.NewDSMStore(vector.NewSchema("v", v.Kind(), "row", vector.I64))
	st.AppendChunk(vector.ChunkFrom([]string{"v", "row"}, []*vector.Vector{v, vector.FromI64(rows)}))
	return st
}

// TestFusedFilterMatchesInterpreter compares every fused comparison filter
// with the interpreted Filter byte for byte: each comparison on i64 and on
// f64, at selectivities 0, about 1, 50, about 99 and 100 %, over chunks with
// and without a selection. The f64 columns mix NaN, ±Inf, -0.0 and 0.0 into
// ordinary values, and the f64 constants include 0.0 and -0.0, which
// compare equal.
func TestFusedFilterMatchesInterpreter(t *testing.T) {
	const n = 2048
	rng := rand.New(rand.NewSource(7))
	pcts := []int{0, 1, 50, 99, 100}
	for _, op := range cmpOps {
		for _, c := range []int64{0, -7, 40} {
			for _, pct := range pcts {
				vals := column(rng, n, n*pct/100, i64Pool(c), func(v int64) bool { return holds(op, v, c) })
				st := valueTable(vector.FromI64(vals))
				for _, withSel := range []bool{false, true} {
					t.Run(fmt.Sprintf("i64/v%v%d/%d%%/selection=%v", op, c, pct, withSel), func(t *testing.T) {
						_, kept := filterMatches(t, st, pred(cmp(op, vector.I64Value(c))), withSel)
						if !withSel && kept != n*pct/100 {
							t.Fatalf("%d of %d rows passed, the data was built for %d%%", kept, n, pct)
						}
					})
				}
			}
		}
		for _, c := range []float64{0, math.Copysign(0, -1), 2.5, math.Inf(1), math.NaN()} {
			for _, pct := range pcts {
				vals := column(rng, n, n*pct/100, f64Pool(c), func(v float64) bool { return holds(op, v, c) })
				st := valueTable(vector.FromF64(vals))
				for _, withSel := range []bool{false, true} {
					t.Run(fmt.Sprintf("f64/v%v%v/%d%%/selection=%v", op, c, pct, withSel), func(t *testing.T) {
						filterMatches(t, st, pred(cmp(op, vector.F64Value(c))), withSel)
					})
				}
			}
		}
	}
}

// TestFusedRangeEdges: a lower and an upper bound on one i64 column compile
// to one op in either order and with any strictness, and keep exactly the
// interpreter's rows at the edges of int64 — bounds at MinInt64 and
// MaxInt64, strict bounds no value meets, ranges whose low end passes their
// high end — while a conjunction of two lower bounds stays two ops.
func TestFusedRangeEdges(t *testing.T) {
	const n = 2048
	lo, hi := vector.I64Value(math.MinInt64), vector.I64Value(math.MaxInt64)
	i := vector.I64Value
	cases := []struct {
		name string
		body dsl.Expr
		ops  int
	}{
		{"closed", and(cmp(dsl.OpGe, i(-30)), cmp(dsl.OpLe, i(45))), 1},
		{"half-open", and(cmp(dsl.OpGe, i(-30)), cmp(dsl.OpLt, i(45))), 1},
		{"open", and(cmp(dsl.OpGt, i(-30)), cmp(dsl.OpLt, i(45))), 1},
		{"reversed", and(cmp(dsl.OpLt, i(45)), cmp(dsl.OpGt, i(-30))), 1},
		{"reversed-closed", and(cmp(dsl.OpLe, i(45)), cmp(dsl.OpGe, i(-30))), 1},
		{"single-value", and(cmp(dsl.OpGe, i(15)), cmp(dsl.OpLe, i(15))), 1},
		{"whole-int64", and(cmp(dsl.OpGe, lo), cmp(dsl.OpLe, hi)), 1},
		{"from-min", and(cmp(dsl.OpGe, lo), cmp(dsl.OpLt, i(0))), 1},
		{"to-max", and(cmp(dsl.OpGt, i(0)), cmp(dsl.OpLe, hi)), 1},
		{"strict-at-both-edges", and(cmp(dsl.OpGt, lo), cmp(dsl.OpLt, hi)), 1},
		{"only-max", and(cmp(dsl.OpGe, hi), cmp(dsl.OpLe, hi)), 1},
		{"only-min", and(cmp(dsl.OpGe, lo), cmp(dsl.OpLe, lo)), 1},
		{"above-max", and(cmp(dsl.OpGt, hi), cmp(dsl.OpLe, hi)), 1},
		{"below-min", and(cmp(dsl.OpGe, lo), cmp(dsl.OpLt, lo)), 1},
		{"lo-above-hi", and(cmp(dsl.OpGe, i(45)), cmp(dsl.OpLe, i(-30))), 1},
		{"open-gap-of-one", and(cmp(dsl.OpGt, i(15)), cmp(dsl.OpLt, i(16))), 1},
		{"two-lower-bounds", and(cmp(dsl.OpGe, i(-30)), cmp(dsl.OpGt, i(15))), 2},
		{"two-upper-bounds", and(cmp(dsl.OpLt, i(45)), cmp(dsl.OpLe, i(15))), 2},
		{"bound-and-equality", and(cmp(dsl.OpGe, i(-30)), cmp(dsl.OpNe, i(15))), 2},
	}
	st := valueTable(vector.FromI64(draw(rand.New(rand.NewSource(11)), n, i64Pool(-30, 45, 15, 16))))
	for _, tc := range cases {
		for _, withSel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/selection=%v", tc.name, withSel), func(t *testing.T) {
				if ops, _ := filterMatches(t, st, pred(tc.body), withSel); ops != tc.ops {
					t.Fatalf("%d ops, want %d", ops, tc.ops)
				}
			})
		}
	}
}

// FuzzFusedFilter compares a fused filter with the interpreted one on random
// data: one comparison or a conjunction of two on one i64 or f64 column,
// with random constants, over chunks with or without a selection.
func FuzzFusedFilter(f *testing.F) {
	f.Add(int64(1), false, false, uint8(3), uint8(0), int64(-5), int64(20), 0.0, 0.0)
	f.Add(int64(2), false, true, uint8(1), uint8(2), int64(math.MaxInt64), int64(math.MinInt64), 0.0, 0.0)
	f.Add(int64(3), false, false, uint8(2), uint8(1), int64(math.MinInt64), int64(math.MaxInt64), 0.0, 0.0)
	f.Add(int64(4), true, true, uint8(4), uint8(6), int64(0), int64(0), math.Copysign(0, -1), 0.0)
	f.Add(int64(5), true, false, uint8(0), uint8(3), int64(0), int64(0), math.Inf(-1), math.NaN())
	f.Fuzz(func(t *testing.T, seed int64, isF64, withSel bool, op1, op2 uint8, i1, i2 int64, f1, f2 float64) {
		rng := rand.New(rand.NewSource(seed))
		const n = 600
		st := valueTable(vector.FromI64(draw(rng, n, i64Pool(i1, i2))))
		c1, c2 := vector.I64Value(i1), vector.I64Value(i2)
		if isF64 {
			st = valueTable(vector.FromF64(draw(rng, n, f64Pool(f1, f2))))
			c1, c2 = vector.F64Value(f1), vector.F64Value(f2)
		}
		body := cmp(cmpOps[int(op1)%len(cmpOps)], c1)
		if int(op2)%(len(cmpOps)+1) < len(cmpOps) {
			body = and(body, cmp(cmpOps[int(op2)%(len(cmpOps)+1)], c2))
		}
		filterMatches(t, st, pred(body), withSel)
	})
}
