package advm

import (
	"repro/internal/colstore"
	"repro/internal/dsl"
	"repro/internal/vector"
)

// Scan pruning: before a query instantiates its operators, the builder walks
// the plan, and for every scan leaf backed by a disk-backed stored table it
// tries to turn the filters stacked on that scan into conjunctive interval
// predicates on the scanned columns. When it succeeds, the scan reads a
// pruned view of the table that answers the engine's RangeSkipper contract
// from the stored per-segment zone maps (and, for dictionary- and
// run-length-encoded segments, from the encoded value domain), so whole
// segments the filters would reject are never decoded — or even touched.
//
// Pruning is strictly an elision: the filters still execute downstream over
// every surviving row, and a skipped window contains only rows those filters
// would have dropped, so pruned and unpruned queries produce byte-identical
// results. Extraction is conservative — any lambda shape it does not fully
// understand contributes no predicate.

// storeFor returns the store a scan leaf should read: the pruned view when
// the annotate pass derived one, else the plan's own table.
func (b *builder) storeFor(scan *Plan) TableSource {
	if st, ok := b.pruned[scan]; ok {
		return st
	}
	return scan.table
}

// annotatePruning walks the plan tree — through pipeline breakers and into
// join build sides — and installs pruned views for prunable scan leaves.
func (b *builder) annotatePruning(p *Plan) {
	if p == nil || !b.s.opt.pruning {
		return
	}
	if stages, scan, ok := p.segment(); ok {
		b.pruneScan(scan, stages)
		for _, st := range stages {
			if st.kind == planJoin {
				b.annotatePruning(st.buildSide)
			}
		}
		return
	}
	b.annotatePruning(p.child)
}

// pruneScan decides the store for one scan leaf. A leaf shared by several
// consumers (the same *Plan reached along two paths) is never pruned: each
// path implies different predicates, and only rows rejected by every
// consumer could be skipped safely.
func (b *builder) pruneScan(scan *Plan, stages []*Plan) {
	if b.pruned == nil {
		b.pruned = map[*Plan]TableSource{}
	}
	if _, seen := b.pruned[scan]; seen {
		b.pruned[scan] = scan.table
		return
	}
	b.pruned[scan] = scan.table
	ct, ok := scan.table.(*colstore.Table)
	if !ok || ct == nil {
		return
	}
	preds := extractPreds(scan, stages)
	if len(preds) == 0 {
		return
	}
	pv := ct.Pruned(preds)
	b.pruned[scan] = pv
	b.views = append(b.views, pv)
}

// extractPreds converts the segment's filters into interval predicates on
// scanned base columns. A filter qualifies when its input column is read
// straight off the scan — not produced by a compute or carried in as join
// payload anywhere in the segment — so the predicate constrains the stored
// values themselves.
func extractPreds(scan *Plan, stages []*Plan) []colstore.Pred {
	sch := scan.table.Schema()
	scanned := map[string]bool{}
	cols := scan.columns
	if len(cols) == 0 {
		cols = sch.Names
	}
	for _, c := range cols {
		scanned[c] = true
	}
	produced := map[string]bool{}
	for _, st := range stages {
		switch st.kind {
		case planCompute:
			produced[st.out] = true
		case planJoin:
			for _, c := range st.payload {
				produced[c] = true
			}
		}
	}
	var preds []colstore.Pred
	for _, st := range stages {
		if st.kind != planFilter || !scanned[st.col] || produced[st.col] {
			continue
		}
		ci := sch.ColumnIndex(st.col)
		if ci < 0 {
			continue
		}
		kind := sch.Kinds[ci]
		if kind != vector.I64 && kind != vector.F64 {
			continue
		}
		fn, err := st.fn()
		if err != nil {
			continue // the query fails with ErrCompile when it builds the filter
		}
		if p, ok := predFromLambda(fn, st.col, kind == vector.F64); ok {
			preds = append(preds, p)
		}
	}
	return preds
}

// predFromLambda extracts the interval a single-parameter filter lambda
// implies on col, when the whole body is a conjunction of comparisons
// between the parameter and constants. Anything else — other operators,
// derived operands, disjunctions — yields no predicate.
func predFromLambda(fn *dsl.Lambda, col string, float bool) (colstore.Pred, bool) {
	if len(fn.Params) != 1 {
		return colstore.Pred{}, false
	}
	p := colstore.Pred{Col: col, Float: float}
	if !collectInterval(fn.Body, fn.Params[0], &p) {
		return colstore.Pred{}, false
	}
	return p, p.HasLo || p.HasHi
}

// collectInterval folds one conjunct (or conjunction) of the lambda body
// into the predicate, reporting whether the expression was fully understood.
func collectInterval(e dsl.Expr, param string, p *colstore.Pred) bool {
	bin, ok := e.(*dsl.Bin)
	if !ok {
		return false
	}
	if bin.Op == dsl.OpAnd {
		// Logical conjunction — but only when both operands are themselves
		// comparisons; a bitwise & over arithmetic is rejected below.
		return collectInterval(bin.L, param, p) && collectInterval(bin.R, param, p)
	}
	op := bin.Op
	v, okV := bin.L.(*dsl.VarRef)
	c, okC := bin.R.(*dsl.Const)
	if !okV || !okC {
		// Mirrored spelling: const op param.
		if v2, ok2 := bin.R.(*dsl.VarRef); ok2 {
			if c2, ok3 := bin.L.(*dsl.Const); ok3 {
				v, c, op = v2, c2, mirror(op)
				okV, okC = true, true
			}
		}
	}
	if !okV || !okC || v.Name != param || !op.IsComparison() || op == dsl.OpNe {
		return false
	}
	var iv int64
	var fv float64
	switch {
	case c.Val.Kind == vector.F64:
		if !p.Float {
			return false // float bound on an integer column: don't round
		}
		fv = c.Val.F
	case c.Val.Kind.IsInteger():
		iv, fv = c.Val.I, float64(c.Val.I)
	default:
		return false
	}
	switch op {
	case dsl.OpLt:
		tightenHi(p, iv, fv, true)
	case dsl.OpLe:
		tightenHi(p, iv, fv, false)
	case dsl.OpGt:
		tightenLo(p, iv, fv, true)
	case dsl.OpGe:
		tightenLo(p, iv, fv, false)
	case dsl.OpEq:
		tightenLo(p, iv, fv, false)
		tightenHi(p, iv, fv, false)
	}
	return true
}

// mirror rewrites "const op param" as "param op' const".
func mirror(op dsl.BinOp) dsl.BinOp {
	switch op {
	case dsl.OpLt:
		return dsl.OpGt
	case dsl.OpLe:
		return dsl.OpGe
	case dsl.OpGt:
		return dsl.OpLt
	case dsl.OpGe:
		return dsl.OpLe
	}
	return op
}

// tightenLo raises the predicate's lower bound when the new one is tighter.
func tightenLo(p *colstore.Pred, iv int64, fv float64, open bool) {
	if p.Float {
		if !p.HasLo || fv > p.LoF || (fv == p.LoF && open && !p.LoOpen) {
			p.HasLo, p.LoF, p.LoOpen = true, fv, open
		}
		return
	}
	if !p.HasLo || iv > p.LoI || (iv == p.LoI && open && !p.LoOpen) {
		p.HasLo, p.LoI, p.LoOpen = true, iv, open
	}
}

// tightenHi lowers the predicate's upper bound when the new one is tighter.
func tightenHi(p *colstore.Pred, iv int64, fv float64, open bool) {
	if p.Float {
		if !p.HasHi || fv < p.HiF || (fv == p.HiF && open && !p.HiOpen) {
			p.HasHi, p.HiF, p.HiOpen = true, fv, open
		}
		return
	}
	if !p.HasHi || iv < p.HiI || (iv == p.HiI && open && !p.HiOpen) {
		p.HasHi, p.HiI, p.HiOpen = true, iv, open
	}
}
