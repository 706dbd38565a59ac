package interp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nir"
	"repro/internal/primitive"
	"repro/internal/vector"
)

// The vectorized kernels and the scalar interpreter must agree: an expression
// evaluated over a chunk gives, element by element, what the scalar path
// gives for one value. TestKernelsMatchScalarSemantics checks every kernel
// in the registry against scalarArith, scalarCmp, scalarUnary and
// castScalar on edge-heavy inputs, VV/VS/SV, with and without a selection
// vector, over random windows.

var kernelKinds = []vector.Kind{vector.Bool, vector.I8, vector.I16, vector.I32, vector.I64, vector.F64}

const kernelLen = 257

func edgeValue(r *rand.Rand, k vector.Kind) vector.Value {
	switch k {
	case vector.Bool:
		return vector.BoolValue(r.Intn(2) == 1)
	case vector.F64:
		edges := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1, 0.5,
			math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 3e9, -129.5, 1e19}
		if r.Intn(2) == 0 {
			return vector.F64Value(edges[r.Intn(len(edges))])
		}
		return vector.F64Value(r.NormFloat64() * 1000)
	}
	lo, hi := vector.IntRange(k)
	edges := []int64{0, 1, -1, 2, 3, 7, 8, 31, 32, 63, 64, 65, -64, lo, hi, lo + 1, hi - 1}
	if r.Intn(2) == 0 {
		return vector.IntValue(k, edges[r.Intn(len(edges))])
	}
	return vector.IntValue(k, narrow(k, vector.I64Value(r.Int63()-r.Int63())).I)
}

func edgeVector(r *rand.Rand, k vector.Kind) *vector.Vector {
	v := vector.NewLen(k, kernelLen)
	for i := 0; i < kernelLen; i++ {
		v.Set(i, edgeValue(r, k))
	}
	return v
}

// narrow stores x in a vector of kind k and reads it back: the scalar path
// computes integers in int64, a kernel in the element width.
func narrow(k vector.Kind, x vector.Value) vector.Value {
	v := vector.NewLen(k, 1)
	v.Set(0, x)
	return v.Get(0)
}

// sameBits compares values exactly: floats by bit pattern (so -0 and +0
// differ), any NaN equal to any NaN.
func sameBits(x, y vector.Value) bool {
	if x.Kind == vector.F64 && y.Kind == vector.F64 {
		return math.Float64bits(x.F) == math.Float64bits(y.F) || (math.IsNaN(x.F) && math.IsNaN(y.F))
	}
	return x.Equal(y)
}

// window draws a selection vector (nil half of the time) and a window of it,
// and returns the positions the window denotes.
func window(r *rand.Rand) (sel vector.Sel, lo, hi int, pos []int) {
	span := kernelLen
	if r.Intn(2) == 0 {
		for i := 0; i < kernelLen; i++ {
			if r.Intn(3) > 0 {
				sel = append(sel, int32(i))
			}
		}
		span = len(sel)
	}
	lo = r.Intn(span + 1)
	hi = lo + r.Intn(span-lo+1)
	for w := lo; w < hi; w++ {
		if sel == nil {
			pos = append(pos, w)
		} else {
			pos = append(pos, int(sel[w]))
		}
	}
	return sel, lo, hi, pos
}

func scalarOK(t *testing.T) func(vector.Value, error) vector.Value {
	return func(v vector.Value, err error) vector.Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

func TestKernelsMatchScalarSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ok := scalarOK(t)
	covered := 0
	const trials = 12

	// checkMap runs one map kernel and compares every windowed position of
	// dst with want(p), or with any of the alternatives.
	checkMap := func(name string, out vector.Kind, run func(dst *vector.Vector, sel vector.Sel, lo, hi int), want func(p int) vector.Value, alts ...func(p int) vector.Value) {
		t.Helper()
		for trial := 0; trial < trials; trial++ {
			dst := vector.NewLen(out, kernelLen)
			sel, lo, hi, pos := window(r)
			run(dst, sel, lo, hi)
		positions:
			for _, p := range pos {
				got := dst.Get(p)
				if sameBits(got, want(p)) {
					continue
				}
				for _, alt := range alts {
					if sameBits(got, alt(p)) {
						continue positions
					}
				}
				t.Errorf("%s: position %d = %v, scalar path gives %v", name, p, got, want(p))
				return
			}
		}
	}

	for _, k := range kernelKinds {
		arith := func(op nir.ArithOp, x, y vector.Value) vector.Value { return narrow(k, ok(scalarArith(op, k, x, y))) }
		for op := nir.AAdd; op <= nir.AMax; op++ {
			name := fmt.Sprintf("%v<%v>", op, k)
			a, b, s := edgeVector(r, k), edgeVector(r, k), edgeValue(r, k)
			if f, found := primitive.MapBinVV(k, op); found {
				covered++
				checkMap("map.bin."+name+" vv", k, func(d *vector.Vector, sel vector.Sel, lo, hi int) { f(d, a, b, sel, lo, hi) },
					func(p int) vector.Value { return arith(op, a.Get(p), b.Get(p)) })
			}
			if f, found := primitive.MapBinVS(k, op); found {
				covered++
				checkMap("map.bin."+name+" vs", k, func(d *vector.Vector, sel vector.Sel, lo, hi int) { f(d, a, s, sel, lo, hi) },
					func(p int) vector.Value { return arith(op, a.Get(p), s) })
			}
			if f, found := primitive.MapBinSV(k, op); found {
				covered++
				checkMap("map.bin."+name+" sv", k, func(d *vector.Vector, sel vector.Sel, lo, hi int) { f(d, s, b, sel, lo, hi) },
					func(p int) vector.Value { return arith(op, s, b.Get(p)) })
			}
			if f, found := primitive.Fold(k, op); found {
				covered++
				for trial := 0; trial < trials; trial++ {
					sel, lo, hi, pos := window(r)
					want := s
					for _, p := range pos {
						want = arith(op, want, a.Get(p))
					}
					if got := f(s, a, sel, lo, hi); !sameBits(got, want) {
						t.Errorf("fold.%s: got %v, scalar path gives %v", name, got, want)
						break
					}
				}
			}
			for op2 := nir.AAdd; op2 <= nir.AMax; op2++ {
				f, found := primitive.MapPair(k, op, op2)
				if !found {
					continue
				}
				covered++
				s2 := edgeValue(r, k)
				var fused []func(int) vector.Value
				if k == vector.F64 && op == nir.AMul && (op2 == nir.AAdd || op2 == nir.ASub) {
					// Go may fuse x*s1 ± s2 into one FMA instruction (arm64,
					// amd64 at GOAMD64=v3); accept that rounding too.
					c := s2.F
					if op2 == nir.ASub {
						c = -c
					}
					fused = append(fused, func(p int) vector.Value { return vector.F64Value(math.FMA(a.Get(p).F, s.F, c)) })
				}
				checkMap(fmt.Sprintf("map2.%v.%v<%v>", op, op2, k), k,
					func(d *vector.Vector, sel vector.Sel, lo, hi int) { f(d, a, s, s2, sel, lo, hi) },
					func(p int) vector.Value { return arith(op2, arith(op, a.Get(p), s), s2) }, fused...)
			}
		}

		cmp := func(op nir.CmpOp, x, y vector.Value) vector.Value { return ok(scalarCmp(op, k, x, y)) }
		for op := nir.CEq; op <= nir.CGe; op++ {
			name := fmt.Sprintf("%v<%v>", op, k)
			a, b, s := edgeVector(r, k), edgeVector(r, k), edgeValue(r, k)
			if f, found := primitive.MapCmpVV(k, op); found {
				covered++
				checkMap("map.cmp."+name+" vv", vector.Bool, func(d *vector.Vector, sel vector.Sel, lo, hi int) { f(d, a, b, sel, lo, hi) },
					func(p int) vector.Value { return cmp(op, a.Get(p), b.Get(p)) })
			}
			if f, found := primitive.MapCmpVS(k, op); found {
				covered++
				checkMap("map.cmp."+name+" vs", vector.Bool, func(d *vector.Vector, sel vector.Sel, lo, hi int) { f(d, a, s, sel, lo, hi) },
					func(p int) vector.Value { return cmp(op, a.Get(p), s) })
			}
			if f, found := primitive.MapCmpSV(k, op); found {
				covered++
				checkMap("map.cmp."+name+" sv", vector.Bool, func(d *vector.Vector, sel vector.Sel, lo, hi int) { f(d, s, b, sel, lo, hi) },
					func(p int) vector.Value { return cmp(op, s, b.Get(p)) })
			}
			if f, found := primitive.SelectCmp(k, op); found {
				covered++
				for trial := 0; trial < trials; trial++ {
					sel, lo, hi, pos := window(r)
					var want vector.Sel
					for _, p := range pos {
						if cmp(op, a.Get(p), s).B {
							want = append(want, int32(p))
						}
					}
					if got := f(a, s, sel, lo, hi); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("select.%s: got %v, scalar path gives %v", name, got, want)
						break
					}
				}
			}
		}

		for op := nir.UNeg; op <= nir.USqrt; op++ {
			f, found := primitive.MapUn(k, op)
			if !found {
				continue
			}
			covered++
			a := edgeVector(r, k)
			checkMap(fmt.Sprintf("map.un.%v<%v>", op, k), k, func(d *vector.Vector, sel vector.Sel, lo, hi int) { f(d, a, sel, lo, hi) },
				func(p int) vector.Value { return narrow(k, ok(scalarUnary(op, k, a.Get(p)))) })
		}

		for _, to := range kernelKinds {
			f, found := primitive.Cast(k, to)
			if !found {
				continue
			}
			covered++
			a := edgeVector(r, k)
			if k == vector.F64 && to != vector.F64 {
				// Go leaves converting an out-of-range float to an integer
				// implementation-defined; both paths see in-range values only.
				lo, hi := vector.IntRange(to)
				for i := 0; i < kernelLen; i++ {
					if x := a.Get(i).F; !(x >= float64(lo) && x <= float64(hi)) {
						a.Set(i, vector.F64Value(math.Mod(float64(i)*37.25, float64(hi))))
					}
				}
			}
			checkMap(fmt.Sprintf("cast<%v→%v>", k, to), to, func(d *vector.Vector, sel vector.Sel, lo, hi int) { f(d, a, sel, lo, hi) },
				func(p int) vector.Value { return castScalar(a.Get(p), to) })
		}
	}
	if covered != primitive.Count() || covered != 544 {
		t.Fatalf("checked %d kernels; the registry holds %d, want 544", covered, primitive.Count())
	}
}
