package interp

import (
	"fmt"
	"math"

	"repro/internal/nir"
	"repro/internal/primitive"
	"repro/internal/vector"
)

// ExecInstr executes one normalized instruction against env, returning the
// number of tuples processed (for profiling). It is the single place where
// opcodes meet kernels; fused traces bypass it, the interpreter goes through
// it.
func ExecInstr(env *Env, in *nir.Instr) (int, error) {
	switch in.Op {
	case nir.OpConst:
		env.SetScalar(in.Dst, in.Imm)
		return 1, nil

	case nir.OpMove:
		if env.Prog.Reg(in.A).Scalar {
			env.SetScalar(in.Dst, env.ScalarOf(in.A))
			return 1, nil
		}
		// Deep-copy flows on move: the destination register must not alias
		// the source's buffer, which later instructions may overwrite.
		src := env.FlowOf(in.A)
		n := 0
		if src.Vec != nil {
			n = src.Vec.Len()
		}
		dst := env.OutBuf(in.Dst, in.Kind, n)
		if src.Vec != nil {
			dst.CopyFrom(0, src.Vec, 0, n)
		}
		env.SetFlow(in.Dst, Flow{Vec: dst, Sel: src.Sel})
		return n, nil

	case nir.OpBinS:
		a, b := env.ScalarOf(in.A), env.ScalarOf(in.B)
		if in.Cmp != nir.CInvalid {
			v, err := scalarCmp(in.Cmp, in.Kind, a, b)
			if err != nil {
				return 0, err
			}
			env.SetScalar(in.Dst, v)
			return 1, nil
		}
		v, err := scalarArith(in.Arith, in.Kind, a, b)
		if err != nil {
			return 0, err
		}
		env.SetScalar(in.Dst, v)
		return 1, nil

	case nir.OpUnS:
		v, err := scalarUnary(in.Unary, in.Kind, env.ScalarOf(in.A))
		if err != nil {
			return 0, err
		}
		env.SetScalar(in.Dst, v)
		return 1, nil

	case nir.OpLen:
		f := env.FlowOf(in.A)
		env.SetScalar(in.Dst, vector.I64Value(int64(f.Len())))
		return 1, nil

	case nir.OpMapBin:
		return execMapBin(env, in)

	case nir.OpMapCmp:
		return execMapCmp(env, in)

	case nir.OpMapUn:
		f := env.FlowOf(in.A)
		k, ok := primitive.MapUn(in.Kind, in.Unary)
		if !ok {
			return 0, fmt.Errorf("interp: no kernel map.un.%v<%v>", in.Unary, in.Kind)
		}
		dst := env.OutBuf(in.Dst, in.Kind, f.Vec.Len())
		k(dst, f.Vec, f.Sel, 0, primitive.Span(f.Vec, f.Sel))
		env.SetFlow(in.Dst, Flow{Vec: dst, Sel: f.Sel})
		return f.Len(), nil

	case nir.OpCast:
		return execCast(env, in)

	case nir.OpSelect:
		f := env.FlowOf(in.A)
		mask := env.FlowOf(in.B)
		sel := primitive.SelectFromBool(mask.Vec, f.Sel)
		env.SetFlow(in.Dst, Flow{Vec: f.Vec, Sel: sel})
		return f.Len(), nil

	case nir.OpSelectCmp:
		f := env.FlowOf(in.A)
		k, ok := primitive.SelectCmp(in.Kind, in.Cmp)
		if !ok {
			return 0, fmt.Errorf("interp: no kernel select.%v<%v>", in.Cmp, in.Kind)
		}
		sel := k(f.Vec, env.ScalarOf(in.B), f.Sel, 0, primitive.Span(f.Vec, f.Sel))
		env.SetFlow(in.Dst, Flow{Vec: f.Vec, Sel: sel})
		return f.Len(), nil

	case nir.OpRead:
		data, err := env.External(in.Data)
		if err != nil {
			return 0, err
		}
		pos := env.ScalarInt(in.A)
		count := in.Imm.I
		if in.C != nir.NoReg {
			count = env.ScalarInt(in.C)
		}
		n := int64(data.Len()) - pos
		if n < 0 {
			n = 0
		}
		if n > count {
			n = count
		}
		if pos < 0 {
			return 0, fmt.Errorf("interp: read at negative position %d of %q", pos, in.Data)
		}
		view := data.Slice(int(pos), int(pos+n))
		env.SetFlow(in.Dst, Flow{Vec: view, Sel: nil})
		return int(n), nil

	case nir.OpWrite:
		data, err := env.External(in.Data)
		if err != nil {
			return 0, err
		}
		pos := env.ScalarInt(in.A)
		if pos < 0 {
			return 0, fmt.Errorf("interp: write at negative position %d of %q", pos, in.Data)
		}
		if env.Prog.Reg(in.B).Scalar {
			// Scalars are arrays of length 1 (§II of the paper).
			if need := int(pos) + 1; need > data.Len() {
				data.SetLen(need)
			}
			data.Set(int(pos), env.ScalarOf(in.B))
			return 1, nil
		}
		f := env.FlowOf(in.B)
		n := f.Len()
		if need := int(pos) + n; need > data.Len() {
			data.SetLen(need)
		}
		if f.Sel == nil {
			data.CopyFrom(int(pos), f.Vec, 0, n)
		} else {
			for k, i := range f.Sel {
				data.Set(int(pos)+k, f.Vec.Get(int(i)))
			}
		}
		return n, nil

	case nir.OpGather:
		data, err := env.External(in.Data)
		if err != nil {
			return 0, err
		}
		idx := env.FlowOf(in.A)
		dst := env.OutBuf(in.Dst, in.Kind, idx.Vec.Len())
		primitive.Gather(dst, data, idx.Vec, idx.Sel)
		env.SetFlow(in.Dst, Flow{Vec: dst, Sel: idx.Sel})
		return idx.Len(), nil

	case nir.OpScatter:
		data, err := env.External(in.Data)
		if err != nil {
			return 0, err
		}
		idx := env.FlowOf(in.A)
		val := env.FlowOf(in.B)
		primitive.Scatter(data, idx.Vec, val.Vec, val.Sel, in.Conf)
		return val.Len(), nil

	case nir.OpIota:
		n := env.ScalarInt(in.A)
		if n < 0 {
			n = 0
		}
		dst := env.OutBuf(in.Dst, vector.I64, int(n))
		primitive.Iota(dst, 0)
		env.SetFlow(in.Dst, Flow{Vec: dst, Sel: nil})
		return int(n), nil

	case nir.OpCondense:
		f := env.FlowOf(in.A)
		out := f.Condensed()
		env.SetFlow(in.Dst, Flow{Vec: out, Sel: nil})
		return out.Len(), nil

	case nir.OpFold:
		f := env.FlowOf(in.B)
		k, ok := primitive.Fold(in.Kind, in.Arith)
		if !ok {
			return 0, fmt.Errorf("interp: no kernel fold.%v<%v>", in.Arith, in.Kind)
		}
		env.SetScalar(in.Dst, k(env.ScalarOf(in.A), f.Vec, f.Sel, 0, primitive.Span(f.Vec, f.Sel)))
		return f.Len(), nil

	case nir.OpMerge:
		a := env.FlowOf(in.A).Condensed()
		b := env.FlowOf(in.B).Condensed()
		out := primitive.MergeValues(in.Merge, a, b)
		env.SetFlow(in.Dst, Flow{Vec: out, Sel: nil})
		return a.Len() + b.Len(), nil
	}
	return 0, fmt.Errorf("interp: unknown opcode %v", in.Op)
}

func execMapBin(env *Env, in *nir.Instr) (int, error) {
	aScalar := env.Prog.Reg(in.A).Scalar
	bScalar := env.Prog.Reg(in.B).Scalar
	switch {
	case !aScalar && !bScalar:
		fa, fb := env.FlowOf(in.A), env.FlowOf(in.B)
		k, ok := primitive.MapBinVV(in.Kind, in.Arith)
		if !ok {
			return 0, fmt.Errorf("interp: no kernel map.bin.%v<%v> vv", in.Arith, in.Kind)
		}
		dst := env.OutBuf(in.Dst, in.Kind, fa.Vec.Len())
		k(dst, fa.Vec, fb.Vec, fa.Sel, 0, primitive.Span(fa.Vec, fa.Sel))
		env.SetFlow(in.Dst, Flow{Vec: dst, Sel: fa.Sel})
		return fa.Len(), nil
	case !aScalar && bScalar:
		fa := env.FlowOf(in.A)
		k, ok := primitive.MapBinVS(in.Kind, in.Arith)
		if !ok {
			return 0, fmt.Errorf("interp: no kernel map.bin.%v<%v> vs", in.Arith, in.Kind)
		}
		dst := env.OutBuf(in.Dst, in.Kind, fa.Vec.Len())
		k(dst, fa.Vec, env.ScalarOf(in.B), fa.Sel, 0, primitive.Span(fa.Vec, fa.Sel))
		env.SetFlow(in.Dst, Flow{Vec: dst, Sel: fa.Sel})
		return fa.Len(), nil
	case aScalar && !bScalar:
		fb := env.FlowOf(in.B)
		k, ok := primitive.MapBinSV(in.Kind, in.Arith)
		if !ok {
			return 0, fmt.Errorf("interp: no kernel map.bin.%v<%v> sv", in.Arith, in.Kind)
		}
		dst := env.OutBuf(in.Dst, in.Kind, fb.Vec.Len())
		k(dst, env.ScalarOf(in.A), fb.Vec, fb.Sel, 0, primitive.Span(fb.Vec, fb.Sel))
		env.SetFlow(in.Dst, Flow{Vec: dst, Sel: fb.Sel})
		return fb.Len(), nil
	}
	return 0, fmt.Errorf("interp: map.bin with two scalar operands should have been OpBinS")
}

func execMapCmp(env *Env, in *nir.Instr) (int, error) {
	aScalar := env.Prog.Reg(in.A).Scalar
	bScalar := env.Prog.Reg(in.B).Scalar
	switch {
	case !aScalar && !bScalar:
		fa, fb := env.FlowOf(in.A), env.FlowOf(in.B)
		k, ok := primitive.MapCmpVV(in.Kind, in.Cmp)
		if !ok {
			return 0, fmt.Errorf("interp: no kernel map.cmp.%v<%v> vv", in.Cmp, in.Kind)
		}
		dst := env.OutBuf(in.Dst, vector.Bool, fa.Vec.Len())
		k(dst, fa.Vec, fb.Vec, fa.Sel, 0, primitive.Span(fa.Vec, fa.Sel))
		env.SetFlow(in.Dst, Flow{Vec: dst, Sel: fa.Sel})
		return fa.Len(), nil
	case !aScalar && bScalar:
		fa := env.FlowOf(in.A)
		k, ok := primitive.MapCmpVS(in.Kind, in.Cmp)
		if !ok {
			return 0, fmt.Errorf("interp: no kernel map.cmp.%v<%v> vs", in.Cmp, in.Kind)
		}
		dst := env.OutBuf(in.Dst, vector.Bool, fa.Vec.Len())
		k(dst, fa.Vec, env.ScalarOf(in.B), fa.Sel, 0, primitive.Span(fa.Vec, fa.Sel))
		env.SetFlow(in.Dst, Flow{Vec: dst, Sel: fa.Sel})
		return fa.Len(), nil
	case aScalar && !bScalar:
		fb := env.FlowOf(in.B)
		k, ok := primitive.MapCmpSV(in.Kind, in.Cmp)
		if !ok {
			return 0, fmt.Errorf("interp: no kernel map.cmp.%v<%v> sv", in.Cmp, in.Kind)
		}
		dst := env.OutBuf(in.Dst, vector.Bool, fb.Vec.Len())
		k(dst, env.ScalarOf(in.A), fb.Vec, fb.Sel, 0, primitive.Span(fb.Vec, fb.Sel))
		env.SetFlow(in.Dst, Flow{Vec: dst, Sel: fb.Sel})
		return fb.Len(), nil
	}
	return 0, fmt.Errorf("interp: map.cmp with two scalar operands should have been OpBinS")
}

func execCast(env *Env, in *nir.Instr) (int, error) {
	if env.Prog.Reg(in.A).Scalar {
		v := env.ScalarOf(in.A)
		env.SetScalar(in.Dst, castScalar(v, in.Kind))
		return 1, nil
	}
	f := env.FlowOf(in.A)
	from := f.Vec.Kind()
	if from == in.Kind {
		env.SetFlow(in.Dst, f)
		return f.Len(), nil
	}
	k, ok := primitive.Cast(from, in.Kind)
	if !ok {
		return 0, fmt.Errorf("interp: no cast kernel %v→%v", from, in.Kind)
	}
	dst := env.OutBuf(in.Dst, in.Kind, f.Vec.Len())
	k(dst, f.Vec, f.Sel, 0, primitive.Span(f.Vec, f.Sel))
	env.SetFlow(in.Dst, Flow{Vec: dst, Sel: f.Sel})
	return f.Len(), nil
}

func castScalar(v vector.Value, to vector.Kind) vector.Value {
	if v.Kind == to {
		return v
	}
	if to == vector.F64 {
		if v.Kind == vector.F64 {
			return v
		}
		return vector.F64Value(float64(v.I))
	}
	var i int64
	if v.Kind == vector.F64 {
		i = int64(v.F)
	} else {
		i = v.I
	}
	switch to {
	case vector.I8:
		i = int64(int8(i))
	case vector.I16:
		i = int64(int16(i))
	case vector.I32:
		i = int64(int32(i))
	}
	return vector.IntValue(to, i)
}

// scalarArith evaluates a scalar arithmetic op in the given kind.
func scalarArith(op nir.ArithOp, kind vector.Kind, a, b vector.Value) (vector.Value, error) {
	if kind == vector.Bool {
		switch op {
		case nir.AAnd:
			return vector.BoolValue(a.B && b.B), nil
		case nir.AOr:
			return vector.BoolValue(a.B || b.B), nil
		case nir.AXor:
			return vector.BoolValue(a.B != b.B), nil
		}
		return vector.Value{}, fmt.Errorf("interp: scalar op %v not defined on bool", op)
	}
	if kind == vector.F64 {
		x, y := a.F, b.F
		var r float64
		switch op {
		case nir.AAdd:
			r = x + y
		case nir.ASub:
			r = x - y
		case nir.AMul:
			r = x * y
		case nir.ADiv:
			r = primitive.Div(x, y)
		case nir.AMin:
			r = primitive.Min(x, y)
		case nir.AMax:
			r = primitive.Max(x, y)
		default:
			return vector.Value{}, fmt.Errorf("interp: scalar op %v not defined on f64", op)
		}
		return vector.F64Value(r), nil
	}
	x, y := a.I, b.I
	var r int64
	switch op {
	case nir.AAdd:
		r = x + y
	case nir.ASub:
		r = x - y
	case nir.AMul:
		r = x * y
	case nir.ADiv:
		r = primitive.Div(x, y)
	case nir.AMod:
		r = primitive.Mod(x, y)
	case nir.AAnd:
		r = x & y
	case nir.AOr:
		r = x | y
	case nir.AXor:
		r = x ^ y
	case nir.AShl:
		r = primitive.Shl(x, y)
	case nir.AShr:
		r = primitive.Shr(x, y)
	case nir.AMin:
		r = primitive.Min(x, y)
	case nir.AMax:
		r = primitive.Max(x, y)
	default:
		return vector.Value{}, fmt.Errorf("interp: unknown scalar op %v", op)
	}
	return vector.IntValue(kind, r), nil
}

// scalarCmp evaluates a scalar comparison in the operand kind. a > b is
// evaluated as b < a, not as !(a <= b), so that a NaN operand makes every
// ordered comparison false, as IEEE 754 and the kernels do.
func scalarCmp(op nir.CmpOp, kind vector.Kind, a, b vector.Value) (vector.Value, error) {
	switch op {
	case nir.CGt:
		return scalarCmp(nir.CLt, kind, b, a)
	case nir.CGe:
		return scalarCmp(nir.CLe, kind, b, a)
	}
	var lt, eq bool
	switch kind {
	case vector.F64:
		lt, eq = a.F < b.F, a.F == b.F
	case vector.Bool:
		lt, eq = !a.B && b.B, a.B == b.B
	case vector.Str:
		lt, eq = a.S < b.S, a.S == b.S
	default:
		lt, eq = a.I < b.I, a.I == b.I
	}
	var r bool
	switch op {
	case nir.CEq:
		r = eq
	case nir.CNe:
		r = !eq
	case nir.CLt:
		r = lt
	case nir.CLe:
		r = lt || eq
	default:
		return vector.Value{}, fmt.Errorf("interp: unknown comparison %v", op)
	}
	return vector.BoolValue(r), nil
}

func scalarUnary(op nir.UnaryOp, kind vector.Kind, a vector.Value) (vector.Value, error) {
	switch op {
	case nir.UNeg:
		if kind == vector.F64 {
			return vector.F64Value(-a.F), nil
		}
		return vector.IntValue(kind, -a.I), nil
	case nir.UNot:
		return vector.BoolValue(!a.B), nil
	case nir.UAbs:
		if kind == vector.F64 {
			return vector.F64Value(math.Abs(a.F)), nil
		}
		if a.I < 0 {
			return vector.IntValue(kind, -a.I), nil
		}
		return a, nil
	case nir.USqrt:
		return vector.F64Value(math.Sqrt(a.F)), nil
	}
	return vector.Value{}, fmt.Errorf("interp: unknown unary %v", op)
}
