package fused

import (
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/vector"
)

// opCode selects one monomorphized snippet of the defunctionalized loop.
// Every (column type, predicate shape, compute op) combination the compiler
// recognizes gets its own opcode, so the execution loop dispatches once per
// op per chunk and the inner row loops carry no interface calls, closures or
// per-element branches beyond the operation itself.
type opCode uint8

const (
	opInvalid opCode = iota

	// Filters narrow the selection in place: slot a compared to a constant.
	opFilterLtI64
	opFilterLeI64
	opFilterGtI64
	opFilterGeI64
	opFilterEqI64
	opFilterNeI64
	opFilterLtF64
	opFilterLeF64
	opFilterGtF64
	opFilterGeF64
	opFilterEqF64
	opFilterNeF64
	// opFilterModEqI64 keeps rows with a%ci == cj (Go truncated %, matching
	// the expression VM).
	opFilterModEqI64

	// Computes append a fresh output vector.
	opAffineI64      // out = a*ci + cj
	opModMulI64      // out = (a%ci) * cj
	opMulAddI64      // out = a + b*ci
	opSquareI64      // out = a*a
	opAffineF64      // out = a*cf + cg
	opSquareF64      // out = a*a
	opMulF64         // out = a*b
	opMulConstSubF64 // out = a*(cf-b)
	opMulConstAddF64 // out = a*(cf+b)

	// opProbe matches slot a against a shared join table and condenses the
	// stream to (probe row, build row) pairs, appending payload columns.
	opProbe
)

// op is one defunctionalized instruction of a fused program.
type op struct {
	code   opCode
	a, b   int     // input slots
	out    int     // output slot (computes)
	ci, cj int64   // integer immediates
	cf, cg float64 // float immediates
	table  int     // probe: index into the per-query shared-table list
	payIdx []int   // probe: payload column indexes in the build rows
}

// Program is an immutable compiled segment: the opcode list plus the slot
// layout (scan columns first, then each compute/probe output bottom-up —
// exactly the schema the interpreted operator chain would produce). One
// Program is shared by every query and worker that hits its cache entry;
// all per-query state (join-table handles, guards, scratch buffers) lives
// in Exec.
type Program struct {
	ops    []op
	slots  []engine.ColInfo
	tables int // shared join tables the program references
}

// Schema returns the fused segment's output schema.
func (p *Program) Schema() []engine.ColInfo {
	return append([]engine.ColInfo(nil), p.slots...)
}

// Ops reports the instruction count (observability/tests).
func (p *Program) Ops() int { return len(p.ops) }

// Tables reports how many shared join-table handles an Exec must supply.
func (p *Program) Tables() int { return p.tables }

// Compile lowers a streaming segment into a fused program. ok is false when
// any stage has no monomorphized snippet — an unrecognized lambda shape, a
// constant whose kind does not match its column, an unknown column — in
// which case the segment stays on the vectorized interpreter.
func Compile(scan []engine.ColInfo, stages []Stage) (*Program, bool) {
	p := &Program{slots: append([]engine.ColInfo(nil), scan...)}
	slot := make(map[string]int, len(scan))
	for i, c := range scan {
		if _, dup := slot[c.Name]; dup {
			return nil, false
		}
		slot[c.Name] = i
	}
	for _, st := range stages {
		var ok bool
		switch st.Kind {
		case StageFilter:
			ok = p.compileFilter(st, slot)
		case StageCompute:
			ok = p.compileCompute(st, slot)
		case StageProbe:
			ok = p.compileProbe(st, slot)
		}
		if !ok {
			return nil, false
		}
	}
	return p, true
}

// constOf extracts a literal constant, looking through a folded unary minus.
func constOf(e dsl.Expr) (vector.Value, bool) {
	switch c := e.(type) {
	case *dsl.Const:
		return c.Val, true
	case *dsl.Un:
		if c.Op != dsl.UnNeg {
			return vector.Value{}, false
		}
		v, ok := constOf(c.E)
		if !ok {
			return vector.Value{}, false
		}
		switch v.Kind {
		case vector.I64:
			v.I = -v.I
			return v, true
		case vector.F64:
			v.F = -v.F
			return v, true
		}
	}
	return vector.Value{}, false
}

// varIs reports whether e is a reference to the named parameter.
func varIs(e dsl.Expr, name string) bool {
	v, ok := e.(*dsl.VarRef)
	return ok && v.Name == name
}

func (p *Program) compileFilter(st Stage, slot map[string]int) bool {
	lam := st.Fn
	if len(lam.Params) != 1 {
		return false
	}
	a, ok := slot[st.Col]
	if !ok {
		return false
	}
	return p.compilePred(lam.Body, lam.Params[0], a)
}

// compilePred lowers a predicate body over one column slot. Conjunctions
// become sequential filter ops (each narrows the selection further, which is
// exactly short-circuit && over set semantics).
func (p *Program) compilePred(e dsl.Expr, param string, a int) bool {
	bin, ok := e.(*dsl.Bin)
	if !ok {
		return false
	}
	kind := p.slots[a].Kind
	if bin.Op == dsl.OpAnd {
		return p.compilePred(bin.L, param, a) && p.compilePred(bin.R, param, a)
	}
	// (v % m) == r
	if bin.Op == dsl.OpEq && kind == vector.I64 {
		if inner, ok := bin.L.(*dsl.Bin); ok && inner.Op == dsl.OpMod && varIs(inner.L, param) {
			m, okM := constOf(inner.R)
			r, okR := constOf(bin.R)
			if okM && okR && m.Kind == vector.I64 && r.Kind == vector.I64 && m.I != 0 {
				p.ops = append(p.ops, op{code: opFilterModEqI64, a: a, ci: m.I, cj: r.I})
				return true
			}
		}
	}
	if !bin.Op.IsComparison() || !varIs(bin.L, param) {
		return false
	}
	c, ok := constOf(bin.R)
	if !ok || c.Kind != kind {
		return false
	}
	var code opCode
	switch kind {
	case vector.I64:
		code = map[dsl.BinOp]opCode{
			dsl.OpLt: opFilterLtI64, dsl.OpLe: opFilterLeI64,
			dsl.OpGt: opFilterGtI64, dsl.OpGe: opFilterGeI64,
			dsl.OpEq: opFilterEqI64, dsl.OpNe: opFilterNeI64,
		}[bin.Op]
	case vector.F64:
		code = map[dsl.BinOp]opCode{
			dsl.OpLt: opFilterLtF64, dsl.OpLe: opFilterLeF64,
			dsl.OpGt: opFilterGtF64, dsl.OpGe: opFilterGeF64,
			dsl.OpEq: opFilterEqF64, dsl.OpNe: opFilterNeF64,
		}[bin.Op]
	}
	if code == opInvalid {
		return false
	}
	p.ops = append(p.ops, op{code: code, a: a, ci: c.I, cf: c.F})
	return true
}

func (p *Program) compileCompute(st Stage, slot map[string]int) bool {
	lam := st.Fn
	if len(lam.Params) != len(st.Cols) {
		return false
	}
	if _, shadow := slot[st.Out]; shadow {
		return false
	}
	in := make([]int, len(st.Cols))
	for i, c := range st.Cols {
		s, ok := slot[c]
		if !ok {
			return false
		}
		in[i] = s
	}
	o, ok := p.matchCompute(lam, in, st.OutKind)
	if !ok {
		return false
	}
	o.out = len(p.slots)
	p.ops = append(p.ops, o)
	slot[st.Out] = len(p.slots)
	p.slots = append(p.slots, engine.ColInfo{Name: st.Out, Kind: st.OutKind})
	return true
}

// matchCompute recognizes the monomorphized compute shapes. Operand order is
// preserved exactly (IEEE float arithmetic is not associative or
// commutative-with-rounding, and byte-identity to the interpreter is the
// contract), so each pattern matches one fixed operand arrangement.
func (p *Program) matchCompute(lam *dsl.Lambda, in []int, outKind vector.Kind) (op, bool) {
	bin, ok := lam.Body.(*dsl.Bin)
	if !ok {
		return op{}, false
	}
	kindOf := func(s int) vector.Kind { return p.slots[s].Kind }
	switch len(in) {
	case 1:
		a, u := in[0], lam.Params[0]
		switch {
		// u*c + d
		case bin.Op == dsl.OpAdd:
			mul, ok := bin.L.(*dsl.Bin)
			if !ok || mul.Op != dsl.OpMul || !varIs(mul.L, u) {
				return op{}, false
			}
			c, okC := constOf(mul.R)
			d, okD := constOf(bin.R)
			if !okC || !okD || c.Kind != d.Kind || c.Kind != kindOf(a) || outKind != c.Kind {
				return op{}, false
			}
			if c.Kind == vector.I64 {
				return op{code: opAffineI64, a: a, ci: c.I, cj: d.I}, true
			}
			if c.Kind == vector.F64 {
				return op{code: opAffineF64, a: a, cf: c.F, cg: d.F}, true
			}
		case bin.Op == dsl.OpMul:
			// u*u
			if varIs(bin.L, u) && varIs(bin.R, u) && kindOf(a) == outKind {
				if outKind == vector.I64 {
					return op{code: opSquareI64, a: a}, true
				}
				if outKind == vector.F64 {
					return op{code: opSquareF64, a: a}, true
				}
				return op{}, false
			}
			// u*c
			if varIs(bin.L, u) {
				if c, ok := constOf(bin.R); ok && c.Kind == kindOf(a) && outKind == c.Kind {
					if c.Kind == vector.I64 {
						return op{code: opAffineI64, a: a, ci: c.I, cj: 0}, true
					}
					if c.Kind == vector.F64 {
						return op{code: opAffineF64, a: a, cf: c.F, cg: 0}, true
					}
				}
				return op{}, false
			}
			// (u%m) * c
			mod, ok := bin.L.(*dsl.Bin)
			if !ok || mod.Op != dsl.OpMod || !varIs(mod.L, u) {
				return op{}, false
			}
			m, okM := constOf(mod.R)
			c, okC := constOf(bin.R)
			if okM && okC && m.Kind == vector.I64 && c.Kind == vector.I64 &&
				kindOf(a) == vector.I64 && outKind == vector.I64 && m.I != 0 {
				return op{code: opModMulI64, a: a, ci: m.I, cj: c.I}, true
			}
		}
	case 2:
		a, b := in[0], in[1]
		u, v := lam.Params[0], lam.Params[1]
		switch bin.Op {
		case dsl.OpAdd:
			// u + v*c
			mul, ok := bin.R.(*dsl.Bin)
			if !ok || mul.Op != dsl.OpMul || !varIs(bin.L, u) || !varIs(mul.L, v) {
				return op{}, false
			}
			c, okC := constOf(mul.R)
			if okC && c.Kind == vector.I64 && kindOf(a) == vector.I64 &&
				kindOf(b) == vector.I64 && outKind == vector.I64 {
				return op{code: opMulAddI64, a: a, b: b, ci: c.I}, true
			}
		case dsl.OpMul:
			if !varIs(bin.L, u) {
				return op{}, false
			}
			if kindOf(a) != vector.F64 || kindOf(b) != vector.F64 || outKind != vector.F64 {
				return op{}, false
			}
			// u * v
			if varIs(bin.R, v) {
				return op{code: opMulF64, a: a, b: b}, true
			}
			// u * (c-v)  /  u * (c+v)
			inner, ok := bin.R.(*dsl.Bin)
			if !ok || !varIs(inner.R, v) {
				return op{}, false
			}
			c, okC := constOf(inner.L)
			if !okC || c.Kind != vector.F64 {
				return op{}, false
			}
			if inner.Op == dsl.OpSub {
				return op{code: opMulConstSubF64, a: a, b: b, cf: c.F}, true
			}
			if inner.Op == dsl.OpAdd {
				return op{code: opMulConstAddF64, a: a, b: b, cf: c.F}, true
			}
		}
	}
	return op{}, false
}

func (p *Program) compileProbe(st Stage, slot map[string]int) bool {
	a, ok := slot[st.ProbeKey]
	if !ok || p.slots[a].Kind != vector.I64 {
		return false
	}
	if len(st.BuildNames) != len(st.BuildKinds) {
		return false
	}
	o := op{code: opProbe, a: a, table: st.Table}
	for _, pay := range st.Payload {
		if _, shadow := slot[pay]; shadow {
			return false
		}
		idx := -1
		for i, n := range st.BuildNames {
			if n == pay {
				idx = i
				break
			}
		}
		if idx < 0 {
			return false
		}
		o.payIdx = append(o.payIdx, idx)
		slot[pay] = len(p.slots)
		p.slots = append(p.slots, engine.ColInfo{Name: pay, Kind: st.BuildKinds[idx]})
	}
	p.ops = append(p.ops, o)
	if st.Table+1 > p.tables {
		p.tables = st.Table + 1
	}
	return true
}
