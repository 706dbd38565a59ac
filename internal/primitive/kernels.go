package primitive

import (
	"math"

	"repro/internal/nir"
	"repro/internal/vector"
)

type (
	integer interface {
		int8 | int16 | int32 | int64
	}
	number interface {
		integer | float64
	}
	// scalarElem is every element type but string: what the map and
	// comparison kernels take.
	scalarElem interface {
		number | bool
	}
)

// ---------------------------------------------------------------------------
// Element functions: the ops whose meaning is more than one Go operator.
// The scalar interpreter calls the same functions, so a scalar and a
// vectorized evaluation of one expression agree.

// Div divides, made total on integers: x/0 is 0, and MinInt/-1 wraps to
// MinInt as Go defines it. On f64 it is IEEE 754 division.
func Div[T number](a, b T) T {
	if !isFloat[T]() && b == 0 {
		return 0
	}
	return a / b
}

// Mod is the integer remainder with x%0 = 0.
func Mod[T integer](a, b T) T {
	if b == 0 {
		return 0
	}
	return a % b
}

// Shl shifts left by b mod 64.
func Shl[T integer](a, b T) T { return a << (uint64(b) & 63) }

// Shr shifts right (arithmetically) by b mod 64.
func Shr[T integer](a, b T) T { return a >> (uint64(b) & 63) }

// Min returns a < b ? a : b. On f64 that is not math.Min: Min(NaN, x) = x and
// Min(-0, +0) = +0.
func Min[T number](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// Max returns a > b ? a : b, with the same f64 caveats as Min.
func Max[T number](a, b T) T {
	if a > b {
		return a
	}
	return b
}

func abs[T number](a T) T {
	if isFloat[T]() {
		return T(math.Abs(float64(a)))
	}
	if a < 0 {
		return -a
	}
	return a
}

// isFloat reports whether T is float64. It folds to a constant in each
// instantiation, so the branches it guards cost nothing inside a loop.
func isFloat[T number]() bool {
	var half T = 1
	half /= 2
	return half != 0
}

// scalar reads a kernel's scalar operand (or a fold's initial value) as a T.
func scalar[T scalarElem](x vector.Value) T {
	var s T
	switch p := any(&s).(type) {
	case *bool:
		*p = x.B
	case *int8:
		*p = int8(x.I)
	case *int16:
		*p = int16(x.I)
	case *int32:
		*p = int32(x.I)
	case *int64:
		*p = x.I
	case *float64:
		*p = x.F
	}
	return s
}

// value wraps a fold's result as a Value of T's kind.
func value[T number](x T) vector.Value {
	switch any((*T)(nil)).(type) {
	case *int8:
		return vector.IntValue(vector.I8, int64(x))
	case *int16:
		return vector.IntValue(vector.I16, int64(x))
	case *int32:
		return vector.IntValue(vector.I32, int64(x))
	case *int64:
		return vector.I64Value(int64(x))
	}
	return vector.F64Value(float64(x))
}

// ---------------------------------------------------------------------------
// map.bin: dst[i] = a[i] op b[i] (VV), a[i] op s (VS), s op b[i] (SV).

func addVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := vector.Data[T](dst), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] + y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] + y[i]
	}
}

func addVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := vector.Data[T](dst), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] + s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] + s
	}
}

func addSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := vector.Data[T](dst), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = s + y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = s + y[i]
	}
}

func subVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := vector.Data[T](dst), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] - y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] - y[i]
	}
}

func subVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := vector.Data[T](dst), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] - s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] - s
	}
}

func subSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := vector.Data[T](dst), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = s - y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = s - y[i]
	}
}

func mulVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := vector.Data[T](dst), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] * y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] * y[i]
	}
}

func mulVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := vector.Data[T](dst), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] * s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] * s
	}
}

func mulSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := vector.Data[T](dst), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = s * y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = s * y[i]
	}
}

func divVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := vector.Data[T](dst), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Div(x[i], y[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Div(x[i], y[i])
	}
}

func divVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := vector.Data[T](dst), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Div(x[i], s)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Div(x[i], s)
	}
}

func divSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := vector.Data[T](dst), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Div(s, y[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Div(s, y[i])
	}
}

func modVV[T integer](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := vector.Data[T](dst), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Mod(x[i], y[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Mod(x[i], y[i])
	}
}

func modVS[T integer](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := vector.Data[T](dst), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Mod(x[i], s)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Mod(x[i], s)
	}
}

func modSV[T integer](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := vector.Data[T](dst), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Mod(s, y[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Mod(s, y[i])
	}
}

func andVV[T integer](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := vector.Data[T](dst), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] & y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] & y[i]
	}
}

func andVS[T integer](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := vector.Data[T](dst), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] & s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] & s
	}
}

func andSV[T integer](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := vector.Data[T](dst), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = s & y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = s & y[i]
	}
}

func orVV[T integer](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := vector.Data[T](dst), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] | y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] | y[i]
	}
}

func orVS[T integer](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := vector.Data[T](dst), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] | s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] | s
	}
}

func orSV[T integer](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := vector.Data[T](dst), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = s | y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = s | y[i]
	}
}

func xorVV[T integer](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := vector.Data[T](dst), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] ^ y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] ^ y[i]
	}
}

func xorVS[T integer](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := vector.Data[T](dst), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] ^ s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] ^ s
	}
}

func xorSV[T integer](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := vector.Data[T](dst), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = s ^ y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = s ^ y[i]
	}
}

func shlVV[T integer](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := vector.Data[T](dst), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Shl(x[i], y[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Shl(x[i], y[i])
	}
}

func shlVS[T integer](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := vector.Data[T](dst), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Shl(x[i], s)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Shl(x[i], s)
	}
}

func shlSV[T integer](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := vector.Data[T](dst), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Shl(s, y[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Shl(s, y[i])
	}
}

func shrVV[T integer](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := vector.Data[T](dst), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Shr(x[i], y[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Shr(x[i], y[i])
	}
}

func shrVS[T integer](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := vector.Data[T](dst), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Shr(x[i], s)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Shr(x[i], s)
	}
}

func shrSV[T integer](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := vector.Data[T](dst), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Shr(s, y[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Shr(s, y[i])
	}
}

func minVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := vector.Data[T](dst), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Min(x[i], y[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Min(x[i], y[i])
	}
}

func minVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := vector.Data[T](dst), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Min(x[i], s)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Min(x[i], s)
	}
}

func minSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := vector.Data[T](dst), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Min(s, y[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Min(s, y[i])
	}
}

func maxVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := vector.Data[T](dst), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Max(x[i], y[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Max(x[i], y[i])
	}
}

func maxVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := vector.Data[T](dst), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Max(x[i], s)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Max(x[i], s)
	}
}

func maxSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := vector.Data[T](dst), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Max(s, y[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Max(s, y[i])
	}
}

// The bool connectives are plain loops: routing them through a generic body
// with a per-element operator switch made them several times slower.

func andBoolVV(dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := dst.Bool(), a.Bool(), b.Bool()
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] && y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] && y[i]
	}
}

func andBoolVS(dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := dst.Bool(), a.Bool(), b.B
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] && s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] && s
	}
}

func andBoolSV(dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := dst.Bool(), a.B, b.Bool()
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = s && y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = s && y[i]
	}
}

func orBoolVV(dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := dst.Bool(), a.Bool(), b.Bool()
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] || y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] || y[i]
	}
}

func orBoolVS(dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := dst.Bool(), a.Bool(), b.B
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] || s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] || s
	}
}

func orBoolSV(dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := dst.Bool(), a.B, b.Bool()
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = s || y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = s || y[i]
	}
}

// Bool xor is the ne comparison: neVV/neVS/neSV[bool] register as both.

// ---------------------------------------------------------------------------
// map.cmp: dst[i] = a[i] cmp b[i], a bool vector.

func eqVV[T scalarElem](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := dst.Bool(), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] == y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] == y[i]
	}
}

func eqVS[T scalarElem](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := dst.Bool(), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] == s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] == s
	}
}

func eqSV[T scalarElem](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := dst.Bool(), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = s == y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = s == y[i]
	}
}

func neVV[T scalarElem](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := dst.Bool(), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] != y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] != y[i]
	}
}

func neVS[T scalarElem](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := dst.Bool(), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] != s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] != s
	}
}

func neSV[T scalarElem](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := dst.Bool(), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = s != y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = s != y[i]
	}
}

func ltVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := dst.Bool(), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] < y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] < y[i]
	}
}

func ltVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := dst.Bool(), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] < s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] < s
	}
}

func ltSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := dst.Bool(), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = s < y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = s < y[i]
	}
}

func leVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := dst.Bool(), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] <= y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] <= y[i]
	}
}

func leVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := dst.Bool(), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] <= s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] <= s
	}
}

func leSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := dst.Bool(), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = s <= y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = s <= y[i]
	}
}

func gtVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := dst.Bool(), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] > y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] > y[i]
	}
}

func gtVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := dst.Bool(), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] > s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] > s
	}
}

func gtSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := dst.Bool(), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = s > y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = s > y[i]
	}
}

func geVV[T number](dst, a, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x, y := dst.Bool(), vector.Data[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] >= y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] >= y[i]
	}
}

func geVS[T number](dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s := dst.Bool(), vector.Data[T](a), scalar[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = x[i] >= s
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = x[i] >= s
	}
}

func geSV[T number](dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int) {
	d, s, y := dst.Bool(), scalar[T](a), vector.Data[T](b)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = s >= y[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = s >= y[i]
	}
}

// ---------------------------------------------------------------------------
// map.un: dst[i] = op a[i].

func negMap[T number](dst, a *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x := vector.Data[T](dst), vector.Data[T](a)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = -x[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = -x[i]
	}
}

func absMap[T number](dst, a *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x := vector.Data[T](dst), vector.Data[T](a)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = abs(x[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = abs(x[i])
	}
}

func notMap(dst, a *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x := dst.Bool(), a.Bool()
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = !x[i]
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = !x[i]
	}
}

func sqrtMap(dst, a *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x := dst.F64(), a.F64()
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = math.Sqrt(x[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = math.Sqrt(x[i])
	}
}

// ---------------------------------------------------------------------------
// select: the sub-selection of the window where a[i] cmp s.

func selEq[T number](a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) vector.Sel {
	x, s := vector.Data[T](a), scalar[T](b)
	out := make(vector.Sel, 0, hi-lo)
	if sel == nil {
		for i := lo; i < hi; i++ {
			if x[i] == s {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel[lo:hi] {
		if x[i] == s {
			out = append(out, i)
		}
	}
	return out
}

func selNe[T number](a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) vector.Sel {
	x, s := vector.Data[T](a), scalar[T](b)
	out := make(vector.Sel, 0, hi-lo)
	if sel == nil {
		for i := lo; i < hi; i++ {
			if x[i] != s {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel[lo:hi] {
		if x[i] != s {
			out = append(out, i)
		}
	}
	return out
}

func selLt[T number](a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) vector.Sel {
	x, s := vector.Data[T](a), scalar[T](b)
	out := make(vector.Sel, 0, hi-lo)
	if sel == nil {
		for i := lo; i < hi; i++ {
			if x[i] < s {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel[lo:hi] {
		if x[i] < s {
			out = append(out, i)
		}
	}
	return out
}

func selLe[T number](a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) vector.Sel {
	x, s := vector.Data[T](a), scalar[T](b)
	out := make(vector.Sel, 0, hi-lo)
	if sel == nil {
		for i := lo; i < hi; i++ {
			if x[i] <= s {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel[lo:hi] {
		if x[i] <= s {
			out = append(out, i)
		}
	}
	return out
}

func selGt[T number](a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) vector.Sel {
	x, s := vector.Data[T](a), scalar[T](b)
	out := make(vector.Sel, 0, hi-lo)
	if sel == nil {
		for i := lo; i < hi; i++ {
			if x[i] > s {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel[lo:hi] {
		if x[i] > s {
			out = append(out, i)
		}
	}
	return out
}

func selGe[T number](a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) vector.Sel {
	x, s := vector.Data[T](a), scalar[T](b)
	out := make(vector.Sel, 0, hi-lo)
	if sel == nil {
		for i := lo; i < hi; i++ {
			if x[i] >= s {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel[lo:hi] {
		if x[i] >= s {
			out = append(out, i)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// fold: init op a[lo] op … op a[hi-1], left to right.

func foldAdd[T number](init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	x, acc := vector.Data[T](a), scalar[T](init)
	if sel == nil {
		for i := lo; i < hi; i++ {
			acc += x[i]
		}
	} else {
		for _, i := range sel[lo:hi] {
			acc += x[i]
		}
	}
	return value(acc)
}

func foldMul[T number](init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	x, acc := vector.Data[T](a), scalar[T](init)
	if sel == nil {
		for i := lo; i < hi; i++ {
			acc *= x[i]
		}
	} else {
		for _, i := range sel[lo:hi] {
			acc *= x[i]
		}
	}
	return value(acc)
}

func foldMin[T number](init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	x, acc := vector.Data[T](a), scalar[T](init)
	if sel == nil {
		for i := lo; i < hi; i++ {
			acc = Min(acc, x[i])
		}
	} else {
		for _, i := range sel[lo:hi] {
			acc = Min(acc, x[i])
		}
	}
	return value(acc)
}

func foldMax[T number](init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	x, acc := vector.Data[T](a), scalar[T](init)
	if sel == nil {
		for i := lo; i < hi; i++ {
			acc = Max(acc, x[i])
		}
	} else {
		for _, i := range sel[lo:hi] {
			acc = Max(acc, x[i])
		}
	}
	return value(acc)
}

func foldAnd[T integer](init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	x, acc := vector.Data[T](a), scalar[T](init)
	if sel == nil {
		for i := lo; i < hi; i++ {
			acc &= x[i]
		}
	} else {
		for _, i := range sel[lo:hi] {
			acc &= x[i]
		}
	}
	return value(acc)
}

func foldOr[T integer](init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	x, acc := vector.Data[T](a), scalar[T](init)
	if sel == nil {
		for i := lo; i < hi; i++ {
			acc |= x[i]
		}
	} else {
		for _, i := range sel[lo:hi] {
			acc |= x[i]
		}
	}
	return value(acc)
}

func foldXor[T integer](init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	x, acc := vector.Data[T](a), scalar[T](init)
	if sel == nil {
		for i := lo; i < hi; i++ {
			acc ^= x[i]
		}
	} else {
		for _, i := range sel[lo:hi] {
			acc ^= x[i]
		}
	}
	return value(acc)
}

func foldAndBool(init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	x, acc := a.Bool(), init.B
	if sel == nil {
		for i := lo; i < hi; i++ {
			acc = acc && x[i]
		}
	} else {
		for _, i := range sel[lo:hi] {
			acc = acc && x[i]
		}
	}
	return vector.BoolValue(acc)
}

func foldOrBool(init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	x, acc := a.Bool(), init.B
	if sel == nil {
		for i := lo; i < hi; i++ {
			acc = acc || x[i]
		}
	} else {
		for _, i := range sel[lo:hi] {
			acc = acc || x[i]
		}
	}
	return vector.BoolValue(acc)
}

func foldXorBool(init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value {
	x, acc := a.Bool(), init.B
	if sel == nil {
		for i := lo; i < hi; i++ {
			acc = acc != x[i]
		}
	} else {
		for _, i := range sel[lo:hi] {
			acc = acc != x[i]
		}
	}
	return vector.BoolValue(acc)
}

// ---------------------------------------------------------------------------
// cast: dst[i] = To(a[i]), Go conversion semantics.

func cast[From, To number](dst, a *vector.Vector, sel vector.Sel, lo, hi int) {
	d, x := vector.Data[To](dst), vector.Data[From](a)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = To(x[i])
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = To(x[i])
	}
}

// ---------------------------------------------------------------------------
// map2: dst[i] = (a[i] op1 s1) op2 s2, the fused constant chain.

func pairAddAdd[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = (x[i] + s1) + s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = (x[i] + s1) + s2
	}
}

func pairAddSub[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = (x[i] + s1) - s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = (x[i] + s1) - s2
	}
}

func pairAddMul[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = (x[i] + s1) * s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = (x[i] + s1) * s2
	}
}

func pairAddDiv[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Div(x[i]+s1, s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Div(x[i]+s1, s2)
	}
}

func pairAddMin[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Min(x[i]+s1, s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Min(x[i]+s1, s2)
	}
}

func pairAddMax[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Max(x[i]+s1, s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Max(x[i]+s1, s2)
	}
}

func pairSubAdd[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = (x[i] - s1) + s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = (x[i] - s1) + s2
	}
}

func pairSubSub[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = (x[i] - s1) - s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = (x[i] - s1) - s2
	}
}

func pairSubMul[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = (x[i] - s1) * s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = (x[i] - s1) * s2
	}
}

func pairSubDiv[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Div(x[i]-s1, s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Div(x[i]-s1, s2)
	}
}

func pairSubMin[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Min(x[i]-s1, s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Min(x[i]-s1, s2)
	}
}

func pairSubMax[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Max(x[i]-s1, s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Max(x[i]-s1, s2)
	}
}

func pairMulAdd[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = (x[i] * s1) + s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = (x[i] * s1) + s2
	}
}

func pairMulSub[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = (x[i] * s1) - s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = (x[i] * s1) - s2
	}
}

func pairMulMul[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = (x[i] * s1) * s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = (x[i] * s1) * s2
	}
}

func pairMulDiv[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Div(x[i]*s1, s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Div(x[i]*s1, s2)
	}
}

func pairMulMin[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Min(x[i]*s1, s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Min(x[i]*s1, s2)
	}
}

func pairMulMax[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Max(x[i]*s1, s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Max(x[i]*s1, s2)
	}
}

func pairDivAdd[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Div(x[i], s1) + s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Div(x[i], s1) + s2
	}
}

func pairDivSub[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Div(x[i], s1) - s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Div(x[i], s1) - s2
	}
}

func pairDivMul[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Div(x[i], s1) * s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Div(x[i], s1) * s2
	}
}

func pairDivDiv[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Div(Div(x[i], s1), s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Div(Div(x[i], s1), s2)
	}
}

func pairDivMin[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Min(Div(x[i], s1), s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Min(Div(x[i], s1), s2)
	}
}

func pairDivMax[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Max(Div(x[i], s1), s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Max(Div(x[i], s1), s2)
	}
}

func pairMinAdd[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Min(x[i], s1) + s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Min(x[i], s1) + s2
	}
}

func pairMinSub[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Min(x[i], s1) - s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Min(x[i], s1) - s2
	}
}

func pairMinMul[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Min(x[i], s1) * s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Min(x[i], s1) * s2
	}
}

func pairMinDiv[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Div(Min(x[i], s1), s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Div(Min(x[i], s1), s2)
	}
}

func pairMinMin[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Min(Min(x[i], s1), s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Min(Min(x[i], s1), s2)
	}
}

func pairMinMax[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Max(Min(x[i], s1), s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Max(Min(x[i], s1), s2)
	}
}

func pairMaxAdd[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Max(x[i], s1) + s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Max(x[i], s1) + s2
	}
}

func pairMaxSub[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Max(x[i], s1) - s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Max(x[i], s1) - s2
	}
}

func pairMaxMul[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Max(x[i], s1) * s2
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Max(x[i], s1) * s2
	}
}

func pairMaxDiv[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Div(Max(x[i], s1), s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Div(Max(x[i], s1), s2)
	}
}

func pairMaxMin[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Min(Max(x[i], s1), s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Min(Max(x[i], s1), s2)
	}
}

func pairMaxMax[T number](dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int) {
	d, x, s1, s2 := vector.Data[T](dst), vector.Data[T](a), scalar[T](b1), scalar[T](b2)
	if sel == nil {
		for i := lo; i < hi; i++ {
			d[i] = Max(Max(x[i], s1), s2)
		}
		return
	}
	for _, i := range sel[lo:hi] {
		d[i] = Max(Max(x[i], s1), s2)
	}
}

// ---------------------------------------------------------------------------
// Registration: one instantiation per element kind.

func init() {
	registerInt[int8](vector.I8)
	registerInt[int16](vector.I16)
	registerInt[int32](vector.I32)
	registerInt[int64](vector.I64)
	registerNumber[float64](vector.F64)

	registerBin(vector.Bool, nir.AAnd, andBoolVV, andBoolVS, andBoolSV)
	registerBin(vector.Bool, nir.AOr, orBoolVV, orBoolVS, orBoolSV)
	registerBin(vector.Bool, nir.AXor, neVV[bool], neVS[bool], neSV[bool])
	registerCmp(vector.Bool, nir.CEq, eqVV[bool], eqVS[bool], eqSV[bool])
	registerCmp(vector.Bool, nir.CNe, neVV[bool], neVS[bool], neSV[bool])
	mapUn[unKey{vector.Bool, nir.UNot}] = notMap
	mapUn[unKey{vector.F64, nir.USqrt}] = sqrtMap
	foldKernels[binKey{vector.Bool, nir.AAnd}] = foldAndBool
	foldKernels[binKey{vector.Bool, nir.AOr}] = foldOrBool
	foldKernels[binKey{vector.Bool, nir.AXor}] = foldXorBool

	registerCasts[int8](vector.I8)
	registerCasts[int16](vector.I16)
	registerCasts[int32](vector.I32)
	registerCasts[int64](vector.I64)
	registerCasts[float64](vector.F64)
}

// registerNumber registers the kernels every numeric kind has.
func registerNumber[T number](k vector.Kind) {
	registerBin(k, nir.AAdd, addVV[T], addVS[T], addSV[T])
	registerBin(k, nir.ASub, subVV[T], subVS[T], subSV[T])
	registerBin(k, nir.AMul, mulVV[T], mulVS[T], mulSV[T])
	registerBin(k, nir.ADiv, divVV[T], divVS[T], divSV[T])
	registerBin(k, nir.AMin, minVV[T], minVS[T], minSV[T])
	registerBin(k, nir.AMax, maxVV[T], maxVS[T], maxSV[T])
	registerCmp(k, nir.CEq, eqVV[T], eqVS[T], eqSV[T])
	registerCmp(k, nir.CNe, neVV[T], neVS[T], neSV[T])
	registerCmp(k, nir.CLt, ltVV[T], ltVS[T], ltSV[T])
	registerCmp(k, nir.CLe, leVV[T], leVS[T], leSV[T])
	registerCmp(k, nir.CGt, gtVV[T], gtVS[T], gtSV[T])
	registerCmp(k, nir.CGe, geVV[T], geVS[T], geSV[T])
	mapUn[unKey{k, nir.UNeg}] = negMap[T]
	mapUn[unKey{k, nir.UAbs}] = absMap[T]
	for op, f := range map[nir.CmpOp]SelCmpFunc{
		nir.CEq: selEq[T], nir.CNe: selNe[T], nir.CLt: selLt[T],
		nir.CLe: selLe[T], nir.CGt: selGt[T], nir.CGe: selGe[T],
	} {
		selCmp[cmpKey{k, op}] = f
	}
	for op, f := range map[nir.ArithOp]FoldFunc{
		nir.AAdd: foldAdd[T], nir.AMul: foldMul[T], nir.AMin: foldMin[T], nir.AMax: foldMax[T],
	} {
		foldKernels[binKey{k, op}] = f
	}
	for ops, f := range map[[2]nir.ArithOp]PairFunc{
		{nir.AAdd, nir.AAdd}: pairAddAdd[T], {nir.AAdd, nir.ASub}: pairAddSub[T], {nir.AAdd, nir.AMul}: pairAddMul[T],
		{nir.AAdd, nir.ADiv}: pairAddDiv[T], {nir.AAdd, nir.AMin}: pairAddMin[T], {nir.AAdd, nir.AMax}: pairAddMax[T],
		{nir.ASub, nir.AAdd}: pairSubAdd[T], {nir.ASub, nir.ASub}: pairSubSub[T], {nir.ASub, nir.AMul}: pairSubMul[T],
		{nir.ASub, nir.ADiv}: pairSubDiv[T], {nir.ASub, nir.AMin}: pairSubMin[T], {nir.ASub, nir.AMax}: pairSubMax[T],
		{nir.AMul, nir.AAdd}: pairMulAdd[T], {nir.AMul, nir.ASub}: pairMulSub[T], {nir.AMul, nir.AMul}: pairMulMul[T],
		{nir.AMul, nir.ADiv}: pairMulDiv[T], {nir.AMul, nir.AMin}: pairMulMin[T], {nir.AMul, nir.AMax}: pairMulMax[T],
		{nir.ADiv, nir.AAdd}: pairDivAdd[T], {nir.ADiv, nir.ASub}: pairDivSub[T], {nir.ADiv, nir.AMul}: pairDivMul[T],
		{nir.ADiv, nir.ADiv}: pairDivDiv[T], {nir.ADiv, nir.AMin}: pairDivMin[T], {nir.ADiv, nir.AMax}: pairDivMax[T],
		{nir.AMin, nir.AAdd}: pairMinAdd[T], {nir.AMin, nir.ASub}: pairMinSub[T], {nir.AMin, nir.AMul}: pairMinMul[T],
		{nir.AMin, nir.ADiv}: pairMinDiv[T], {nir.AMin, nir.AMin}: pairMinMin[T], {nir.AMin, nir.AMax}: pairMinMax[T],
		{nir.AMax, nir.AAdd}: pairMaxAdd[T], {nir.AMax, nir.ASub}: pairMaxSub[T], {nir.AMax, nir.AMul}: pairMaxMul[T],
		{nir.AMax, nir.ADiv}: pairMaxDiv[T], {nir.AMax, nir.AMin}: pairMaxMin[T], {nir.AMax, nir.AMax}: pairMaxMax[T],
	} {
		pairKernels[pairKey{k, ops[0], ops[1]}] = f
	}
}

// registerInt registers the numeric kernels plus the integer-only ones.
func registerInt[T integer](k vector.Kind) {
	registerNumber[T](k)
	registerBin(k, nir.AMod, modVV[T], modVS[T], modSV[T])
	registerBin(k, nir.AAnd, andVV[T], andVS[T], andSV[T])
	registerBin(k, nir.AOr, orVV[T], orVS[T], orSV[T])
	registerBin(k, nir.AXor, xorVV[T], xorVS[T], xorSV[T])
	registerBin(k, nir.AShl, shlVV[T], shlVS[T], shlSV[T])
	registerBin(k, nir.AShr, shrVV[T], shrVS[T], shrSV[T])
	for op, f := range map[nir.ArithOp]FoldFunc{nir.AAnd: foldAnd[T], nir.AOr: foldOr[T], nir.AXor: foldXor[T]} {
		foldKernels[binKey{k, op}] = f
	}
}

// registerCasts registers the conversions from kind from (element type F)
// to every other numeric kind.
func registerCasts[F number](from vector.Kind) {
	for to, f := range map[vector.Kind]CastFunc{
		vector.I8: cast[F, int8], vector.I16: cast[F, int16], vector.I32: cast[F, int32],
		vector.I64: cast[F, int64], vector.F64: cast[F, float64],
	} {
		if to != from {
			castKernels[castKey{from, to}] = f
		}
	}
}

func registerBin(k vector.Kind, op nir.ArithOp, vv BinVVFunc, vs BinVSFunc, sv BinSVFunc) {
	key := binKey{k, op}
	mapBinVV[key], mapBinVS[key], mapBinSV[key] = vv, vs, sv
}

func registerCmp(k vector.Kind, op nir.CmpOp, vv BinVVFunc, vs BinVSFunc, sv BinSVFunc) {
	key := cmpKey{k, op}
	mapCmpVV[key], mapCmpVS[key], mapCmpSV[key] = vv, vs, sv
}
