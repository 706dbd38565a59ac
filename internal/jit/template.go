package jit

import (
	"fmt"
	"strings"

	"repro/internal/interp"
	"repro/internal/nir"
	"repro/internal/primitive"
	"repro/internal/vector"
)

// template is the generated code of one fragment shape, with holes where a
// concrete program's registers and instructions go: every operand is a slot
// index resolved through the executing trace's binding, and constants are
// read from scalar registers at run time. One template therefore serves
// every program whose fragment has the same shape (copy-and-patch: pay code
// generation once per shape, then patch registers in for free). Templates are
// immutable after compileTemplate and safe for concurrent use.
type template struct {
	ops   []templateOp
	label string
	nodes int
	// firstDst is the slot of the first member's flow destination, whose
	// length is the tuple count the trace reports to the profile (-1 when
	// the first member produces no flow).
	firstDst int
}

// templateOp executes one fused unit of a template over a whole chunk on
// behalf of trace tr.
type templateOp func(tr *Trace, env *interp.Env) error

// bind patches a concrete program into the template.
func (t *template) bind(b binding, cached bool) *Trace {
	return &Trace{tmpl: t, binding: b, cached: cached}
}

// compileTemplate generates the code for a shape. It must depend on nothing
// but the shape: that is what lets the template cache key traces by it.
func compileTemplate(s *shape) (*template, error) {
	t := &template{nodes: len(s.instrs), firstDst: -1}
	if first := s.instrs[0]; first.dst >= 0 && !s.slots[first.dst].scalar {
		t.firstDst = first.dst
	}
	var parts []string
	for i := 0; i < len(s.instrs); {
		if n := s.elementwiseRun(i); n > 0 {
			op, passes, err := compileRun(s, i, i+n)
			if err != nil {
				return nil, err
			}
			t.ops = append(t.ops, op)
			if n > 1 {
				parts = append(parts, fmt.Sprintf("fused×%d(%d passes)", n, passes))
			} else {
				parts = append(parts, s.instrs[i].op.String())
			}
			i += n
			continue
		}
		op, err := compileSingle(s, i)
		if err != nil {
			return nil, err
		}
		t.ops = append(t.ops, op)
		parts = append(parts, s.instrs[i].op.String())
		i++
	}
	t.label = fmt.Sprintf("trace[%s]", strings.Join(parts, "+"))
	return t, nil
}

// elementwiseRun returns the length of the maximal run of element-wise
// members starting at position i (0 when instrs[i] is not element-wise).
func (s *shape) elementwiseRun(i int) int {
	n := 0
	for j := i; j < len(s.instrs); j++ {
		in := s.instrs[j]
		switch in.op {
		case nir.OpMapBin, nir.OpMapCmp, nir.OpMapUn:
		case nir.OpCast:
			if s.slots[in.a].scalar {
				return n
			}
		default:
			return n
		}
		n++
	}
	return n
}

// compileSingle handles the non-element-wise member ops. They execute
// through the shared opcode implementation on the bound instruction; the
// trace still saves their per-op profiling and plan-step dispatch overhead.
func compileSingle(s *shape, i int) (templateOp, error) {
	switch op := s.instrs[i].op; op {
	case nir.OpRead, nir.OpWrite, nir.OpGather, nir.OpIota, nir.OpCondense, nir.OpFold:
		return func(tr *Trace, env *interp.Env) error {
			_, err := interp.ExecInstr(env, tr.instrs[i])
			return err
		}, nil
	default:
		return nil, fmt.Errorf("jit: operation %v is not compilable", op)
	}
}

// operand names where a pass finds one vector input: the output of an
// earlier pass of the same run (pass ≥ 0), or the flow currently held by the
// register bound to slot.
type operand struct {
	pass, slot int
}

func (o operand) vec(tr *Trace, env *interp.Env, bufs []*vector.Vector) *vector.Vector {
	if o.pass >= 0 {
		return bufs[o.pass]
	}
	return env.FlowOf(tr.regs[o.slot]).Vec
}

// pass is one windowed kernel application inside a fused run. Output buffers
// are resolved once per chunk, then every pass runs once per window.
type pass struct {
	dst  int // slot
	kind vector.Kind
	exec func(tr *Trace, env *interp.Env, dst *vector.Vector, bufs []*vector.Vector, sel vector.Sel, lo, hi int) error
}

// runCompiled is the compiled form of an element-wise run: a list of passes
// swept window by window over the chunk.
type runCompiled struct {
	inputs   []int // slots of the flows the run reads from outside itself
	passes   []pass
	tileSize int
}

// compileRun compiles members [lo, hi) of the shape, an element-wise run.
func compileRun(s *shape, lo, hi int) (templateOp, int, error) {
	rc := &runCompiled{tileSize: s.tile}
	run := s.instrs[lo:hi]

	defined := map[int]bool{}
	useCount := map[int]int{}
	for _, in := range run {
		defined[in.dst] = true
		for _, u := range [...]int{in.a, in.b, in.c} {
			if u >= 0 {
				useCount[u]++
			}
		}
	}
	seen := map[int]bool{}
	for _, in := range run {
		for _, u := range [...]int{in.a, in.b, in.c} {
			if u >= 0 && !defined[u] && !s.slots[u].scalar && !seen[u] {
				seen[u] = true
				rc.inputs = append(rc.inputs, u)
			}
		}
	}
	if len(rc.inputs) == 0 {
		return nil, 0, fmt.Errorf("jit: element-wise run has no flow input")
	}
	// A value read outside the run — by another member of the fragment or by
	// the rest of the program — cannot be fused away.
	usedOutside := map[int]bool{}
	for i, in := range s.instrs {
		if in.escapes {
			usedOutside[in.dst] = true
		}
		if i >= lo && i < hi {
			continue
		}
		for _, u := range [...]int{in.a, in.b, in.c} {
			if u >= 0 {
				usedOutside[u] = true
			}
		}
	}

	// producer[slot] is the pass whose output buffer holds slot's value.
	producer := map[int]int{}
	src := func(slot int) operand {
		if p, ok := producer[slot]; ok {
			return operand{pass: p, slot: slot}
		}
		return operand{pass: -1, slot: slot}
	}
	// Operands resolve after every pass is known: as in the interpreter, a
	// register's output buffer is one object however often the run writes it.
	type pending struct {
		pair bool
		a, b shapeInstr
	}
	var todo []pending

	// Pair fusion: merge run[i] and run[i+1] when i+1 is a constant map
	// consuming i's output, i's output is used nowhere else, and a fused
	// kernel exists.
	for i := 0; i < len(run); {
		if i+1 < len(run) {
			a, b := run[i], run[i+1]
			if a.op == nir.OpMapBin && b.op == nir.OpMapBin &&
				!s.slots[a.a].scalar && s.slots[a.b].scalar &&
				b.a == a.dst && s.slots[b.b].scalar &&
				a.kind == b.kind &&
				!usedOutside[a.dst] && useCount[a.dst] == 1 {
				if _, ok := primitive.MapPair(a.kind, a.arith, b.arith); ok {
					producer[b.dst] = len(todo)
					todo = append(todo, pending{pair: true, a: a, b: b})
					i += 2
					continue
				}
			}
		}
		producer[run[i].dst] = len(todo)
		todo = append(todo, pending{a: run[i]})
		i++
	}
	for _, td := range todo {
		if td.pair {
			a, b := td.a, td.b
			k, _ := primitive.MapPair(a.kind, a.arith, b.arith)
			in, c1, c2 := src(a.a), a.b, b.b
			rc.passes = append(rc.passes, pass{
				dst: b.dst, kind: b.kind,
				exec: func(tr *Trace, env *interp.Env, dst *vector.Vector, bufs []*vector.Vector, sel vector.Sel, lo, hi int) error {
					k(dst, in.vec(tr, env, bufs), env.ScalarOf(tr.regs[c1]), env.ScalarOf(tr.regs[c2]), sel, lo, hi)
					return nil
				},
			})
			continue
		}
		p, err := compilePass(s, td.a, src)
		if err != nil {
			return nil, 0, err
		}
		rc.passes = append(rc.passes, p)
	}
	return rc.run, len(rc.passes), nil
}

func (rc *runCompiled) run(tr *Trace, env *interp.Env) error {
	base := env.FlowOf(tr.regs[rc.inputs[0]])
	if base.Vec == nil {
		return fmt.Errorf("jit: input register r%d is empty", tr.regs[rc.inputs[0]])
	}
	n := base.Vec.Len()
	sel := base.Sel
	for _, u := range rc.inputs[1:] {
		f := env.FlowOf(tr.regs[u])
		if f.Vec == nil || f.Vec.Len() != n {
			return fmt.Errorf("jit: misaligned run inputs (r%d)", tr.regs[u])
		}
		if f.Sel != nil {
			sel = f.Sel
		}
	}

	// Resolve every pass output once, full chunk size.
	bufs := env.Scratch(len(rc.passes))
	for i, p := range rc.passes {
		bufs[i] = env.OutBuf(tr.regs[p.dst], p.kind, n)
	}

	span := n
	if sel != nil {
		span = len(sel)
	}
	step := rc.tileSize
	if step <= 0 || len(rc.passes) == 1 {
		step = span
	}
	if step == 0 {
		step = 1 // empty chunk: single no-op window
	}
	for lo := 0; lo < span || (span == 0 && lo == 0); lo += step {
		hi := lo + step
		if hi > span {
			hi = span
		}
		for i, p := range rc.passes {
			if err := p.exec(tr, env, bufs[i], bufs, sel, lo, hi); err != nil {
				return err
			}
		}
		if span == 0 {
			break
		}
	}
	for i, p := range rc.passes {
		env.SetFlow(tr.regs[p.dst], interp.Flow{Vec: bufs[i], Sel: sel})
	}
	return nil
}

// compilePass resolves kernel and operand plumbing for one member.
func compilePass(s *shape, in shapeInstr, src func(slot int) operand) (pass, error) {
	outKind := in.kind
	if in.op == nir.OpMapCmp {
		outKind = vector.Bool
	}
	p := pass{dst: in.dst, kind: outKind}
	type execFn = func(tr *Trace, env *interp.Env, dst *vector.Vector, bufs []*vector.Vector, sel vector.Sel, lo, hi int) error
	// vv, vs and sv wrap a kernel of the matching operand arrangement.
	vv := func(k primitive.BinVVFunc) execFn {
		a, b := src(in.a), src(in.b)
		return func(tr *Trace, env *interp.Env, dst *vector.Vector, bufs []*vector.Vector, sel vector.Sel, lo, hi int) error {
			k(dst, a.vec(tr, env, bufs), b.vec(tr, env, bufs), sel, lo, hi)
			return nil
		}
	}
	vs := func(k primitive.BinVSFunc) execFn {
		a, b := src(in.a), in.b
		return func(tr *Trace, env *interp.Env, dst *vector.Vector, bufs []*vector.Vector, sel vector.Sel, lo, hi int) error {
			k(dst, a.vec(tr, env, bufs), env.ScalarOf(tr.regs[b]), sel, lo, hi)
			return nil
		}
	}
	sv := func(k primitive.BinSVFunc) execFn {
		a, b := in.a, src(in.b)
		return func(tr *Trace, env *interp.Env, dst *vector.Vector, bufs []*vector.Vector, sel vector.Sel, lo, hi int) error {
			k(dst, env.ScalarOf(tr.regs[a]), b.vec(tr, env, bufs), sel, lo, hi)
			return nil
		}
	}
	switch in.op {
	case nir.OpMapBin, nir.OpMapCmp:
		aScalar := s.slots[in.a].scalar
		bScalar := s.slots[in.b].scalar
		if aScalar && bScalar {
			return p, fmt.Errorf("jit: map with two scalar operands")
		}
		isBin := in.op == nir.OpMapBin
		what := fmt.Sprintf("map.cmp.%v<%v>", in.cmp, in.kind)
		if isBin {
			what = fmt.Sprintf("map.bin.%v<%v>", in.arith, in.kind)
		}
		var ok bool
		switch {
		case !aScalar && !bScalar:
			what += " vv"
			var k primitive.BinVVFunc
			if isBin {
				k, ok = primitive.MapBinVV(in.kind, in.arith)
			} else {
				k, ok = primitive.MapCmpVV(in.kind, in.cmp)
			}
			p.exec = vv(k)
		case !aScalar:
			what += " vs"
			var k primitive.BinVSFunc
			if isBin {
				k, ok = primitive.MapBinVS(in.kind, in.arith)
			} else {
				k, ok = primitive.MapCmpVS(in.kind, in.cmp)
			}
			p.exec = vs(k)
		default:
			what += " sv"
			var k primitive.BinSVFunc
			if isBin {
				k, ok = primitive.MapBinSV(in.kind, in.arith)
			} else {
				k, ok = primitive.MapCmpSV(in.kind, in.cmp)
			}
			p.exec = sv(k)
		}
		if !ok {
			return p, fmt.Errorf("jit: no kernel %s", what)
		}
		return p, nil

	case nir.OpMapUn:
		k, ok := primitive.MapUn(in.kind, in.unary)
		if !ok {
			return p, fmt.Errorf("jit: no kernel map.un.%v<%v>", in.unary, in.kind)
		}
		a := src(in.a)
		p.exec = func(tr *Trace, env *interp.Env, dst *vector.Vector, bufs []*vector.Vector, sel vector.Sel, lo, hi int) error {
			k(dst, a.vec(tr, env, bufs), sel, lo, hi)
			return nil
		}
		return p, nil

	case nir.OpCast:
		a, to := src(in.a), in.kind
		p.exec = func(tr *Trace, env *interp.Env, dst *vector.Vector, bufs []*vector.Vector, sel vector.Sel, lo, hi int) error {
			v := a.vec(tr, env, bufs)
			k, ok := primitive.Cast(v.Kind(), to)
			if !ok {
				return fmt.Errorf("jit: no cast kernel %v→%v", v.Kind(), to)
			}
			k(dst, v, sel, lo, hi)
			return nil
		}
		return p, nil
	}
	return p, fmt.Errorf("jit: %v is not element-wise", in.op)
}
