// Package primitive is the pre-compiled vectorized kernel library the
// interpreter (and the fused traces) dispatch into. §III-A of the paper:
// "specialized functions that operate on a chunk of data in a tight loop are
// needed. We can generate and compile these functions during startup through
// our compilation infrastructure, such that they will be available during
// runtime with near to zero compilation effort."
//
// The registry is the classic MonetDB/Vectorwise primitive matrix: one
// monomorphic tight loop per (operation, element kind, operand shape), each
// with a no-selection and a selection-vector path. kernels.go writes each
// (operation, operand shape) once as a generic function and its init
// registers one instantiation per element kind; Go compiles a separate copy
// for every basic element type, so no generator is involved. Three rules
// keep those copies as fast as hand-specialised loops:
//
//   - Reach a vector's storage through vector.Data[T], which switches on the
//     type of a nil *T; boxing the slice into an interface allocates on
//     every call.
//   - Register the generic kernel itself, never a closure returned by a
//     generic factory: such closures run the loop several times slower.
//     Derive anything kind-specific (a fold's result kind) from T inside the
//     kernel.
//   - Keep function values and per-element switches out of loops: the element
//     functions (Div, Min, …) are plain generic functions that inline, and
//     the bool connectives are separate plain loops.
package primitive

import (
	"fmt"

	"repro/internal/nir"
	"repro/internal/vector"
)

// Kernel signatures. All kernels write results positionally: dst[i] is
// produced for every selected i, so downstream operations can keep using the
// same selection vector without re-alignment.
//
// Every kernel operates on a [lo, hi) window of the index space: positions
// lo..hi-1 without a selection vector, entries sel[lo..hi-1] with one. Fused
// traces and morsel workers use windows to process ranges without slicing;
// whole-chunk callers pass lo=0, hi=n (use Span to compute n).
type (
	// BinVVFunc computes dst[i] = a[i] op b[i].
	BinVVFunc func(dst, a, b *vector.Vector, sel vector.Sel, lo, hi int)
	// BinVSFunc computes dst[i] = a[i] op s.
	BinVSFunc func(dst, a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int)
	// BinSVFunc computes dst[i] = s op b[i].
	BinSVFunc func(dst *vector.Vector, a vector.Value, b *vector.Vector, sel vector.Sel, lo, hi int)
	// UnFunc computes dst[i] = op a[i].
	UnFunc func(dst, a *vector.Vector, sel vector.Sel, lo, hi int)
	// SelCmpFunc returns the sub-selection of the window where a[i] cmp s.
	SelCmpFunc func(a *vector.Vector, b vector.Value, sel vector.Sel, lo, hi int) vector.Sel
	// FoldFunc reduces the windowed elements of a with a fixed operator.
	FoldFunc func(init vector.Value, a *vector.Vector, sel vector.Sel, lo, hi int) vector.Value
	// CastFunc converts elements between kinds.
	CastFunc func(dst, a *vector.Vector, sel vector.Sel, lo, hi int)
	// PairFunc computes dst[i] = (a[i] op1 s1) op2 s2 in one pass (fused).
	PairFunc func(dst, a *vector.Vector, b1, b2 vector.Value, sel vector.Sel, lo, hi int)
)

// Span returns the window upper bound for whole-chunk execution: len(sel)
// when a selection vector is present, the vector length otherwise.
func Span(v *vector.Vector, sel vector.Sel) int {
	if sel != nil {
		return len(sel)
	}
	return v.Len()
}

type binKey struct {
	K  vector.Kind
	Op nir.ArithOp
}

type cmpKey struct {
	K  vector.Kind
	Op nir.CmpOp
}

type unKey struct {
	K  vector.Kind
	Op nir.UnaryOp
}

type castKey struct {
	From, To vector.Kind
}

type pairKey struct {
	K        vector.Kind
	Op1, Op2 nir.ArithOp
}

var (
	mapBinVV    = map[binKey]BinVVFunc{}
	mapBinVS    = map[binKey]BinVSFunc{}
	mapBinSV    = map[binKey]BinSVFunc{}
	mapCmpVV    = map[cmpKey]BinVVFunc{}
	mapCmpVS    = map[cmpKey]BinVSFunc{}
	mapCmpSV    = map[cmpKey]BinSVFunc{}
	mapUn       = map[unKey]UnFunc{}
	selCmp      = map[cmpKey]SelCmpFunc{}
	foldKernels = map[binKey]FoldFunc{}
	castKernels = map[castKey]CastFunc{}
	pairKernels = map[pairKey]PairFunc{}
)

// MapBinVV looks up the vector⊗vector arithmetic kernel.
func MapBinVV(k vector.Kind, op nir.ArithOp) (BinVVFunc, bool) {
	f, ok := mapBinVV[binKey{k, op}]
	return f, ok
}

// MapBinVS looks up the vector⊗scalar arithmetic kernel.
func MapBinVS(k vector.Kind, op nir.ArithOp) (BinVSFunc, bool) {
	f, ok := mapBinVS[binKey{k, op}]
	return f, ok
}

// MapBinSV looks up the scalar⊗vector arithmetic kernel.
func MapBinSV(k vector.Kind, op nir.ArithOp) (BinSVFunc, bool) {
	f, ok := mapBinSV[binKey{k, op}]
	return f, ok
}

// MapCmpVV looks up the vector⊗vector comparison kernel.
func MapCmpVV(k vector.Kind, op nir.CmpOp) (BinVVFunc, bool) {
	f, ok := mapCmpVV[cmpKey{k, op}]
	return f, ok
}

// MapCmpVS looks up the vector⊗scalar comparison kernel.
func MapCmpVS(k vector.Kind, op nir.CmpOp) (BinVSFunc, bool) {
	f, ok := mapCmpVS[cmpKey{k, op}]
	return f, ok
}

// MapCmpSV looks up the scalar⊗vector comparison kernel.
func MapCmpSV(k vector.Kind, op nir.CmpOp) (BinSVFunc, bool) {
	f, ok := mapCmpSV[cmpKey{k, op}]
	return f, ok
}

// MapUn looks up the unary map kernel.
func MapUn(k vector.Kind, op nir.UnaryOp) (UnFunc, bool) {
	f, ok := mapUn[unKey{k, op}]
	return f, ok
}

// SelectCmp looks up the fused selection kernel (filter against a scalar).
func SelectCmp(k vector.Kind, op nir.CmpOp) (SelCmpFunc, bool) {
	f, ok := selCmp[cmpKey{k, op}]
	return f, ok
}

// Fold looks up the reduction kernel.
func Fold(k vector.Kind, op nir.ArithOp) (FoldFunc, bool) {
	f, ok := foldKernels[binKey{k, op}]
	return f, ok
}

// Cast looks up the element-kind conversion kernel.
func Cast(from, to vector.Kind) (CastFunc, bool) {
	f, ok := castKernels[castKey{from, to}]
	return f, ok
}

// MapPair looks up the fused two-op constant-chain kernel computing
// (a[i] op1 s1) op2 s2.
func MapPair(k vector.Kind, op1, op2 nir.ArithOp) (PairFunc, bool) {
	f, ok := pairKernels[pairKey{k, op1, op2}]
	return f, ok
}

// Count returns the number of registered kernels, the "pre-compiled at
// startup" inventory the VM reports.
func Count() int {
	return len(mapBinVV) + len(mapBinVS) + len(mapBinSV) +
		len(mapCmpVV) + len(mapCmpVS) + len(mapCmpSV) +
		len(mapUn) + len(selCmp) + len(foldKernels) + len(castKernels) +
		len(pairKernels)
}

// ---------------------------------------------------------------------------
// Hand-written kernels for the memory skeletons and selection plumbing.

// SelectFromBool narrows sel to the rows where the (positionally aligned)
// bool vector is true.
func SelectFromBool(mask *vector.Vector, sel vector.Sel) vector.Sel {
	m := mask.Bool()
	out := make(vector.Sel, 0, sel.Count(len(m)))
	if sel == nil {
		for i := range m {
			if m[i] {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if m[i] {
			out = append(out, i)
		}
	}
	return out
}

// Iota fills dst (kind i64, length n) with 0..n-1 offset by start.
func Iota(dst *vector.Vector, start int64) {
	d := dst.I64()
	for i := range d {
		d[i] = start + int64(i)
	}
}

// Gather reads data at the positions given by the selected elements of idx:
// dst[i] = data[idx[i]] for i in sel; dst and data have the same kind.
// Out-of-range indexes produce the zero value (the host is expected to
// validate bounds; zero-fill keeps kernels total, matching the safe-division
// convention).
func Gather(dst, data, idx *vector.Vector, sel vector.Sel) {
	switch dst.Kind() {
	case vector.Bool:
		gatherKind[bool](dst, data, idx, sel)
	case vector.I8:
		gatherKind[int8](dst, data, idx, sel)
	case vector.I16:
		gatherKind[int16](dst, data, idx, sel)
	case vector.I32:
		gatherKind[int32](dst, data, idx, sel)
	case vector.I64:
		gatherKind[int64](dst, data, idx, sel)
	case vector.F64:
		gatherKind[float64](dst, data, idx, sel)
	case vector.Str:
		if data.Coded() {
			gatherCoded(dst, data, idx, sel)
			return
		}
		gatherKind[string](dst, data, idx, sel)
	default:
		panic(fmt.Sprintf("primitive: cannot gather into a %v vector", dst.Kind()))
	}
}

func gatherKind[T vector.Elem](dst, data, idx *vector.Vector, sel vector.Sel) {
	d, src := vector.Data[T](dst), vector.Data[T](data)
	switch idx.Kind() {
	case vector.I8:
		gather(d, src, idx.I8(), sel)
	case vector.I16:
		gather(d, src, idx.I16(), sel)
	case vector.I32:
		gather(d, src, idx.I32(), sel)
	case vector.I64:
		gather(d, src, idx.I64(), sel)
	default:
		panic(fmt.Sprintf("primitive: index vector must be integer, got %v", idx.Kind()))
	}
}

func gather[T vector.Elem, I integer](dst, data []T, idx []I, sel vector.Sel) {
	n := int64(len(data))
	var zero T
	if sel == nil {
		for i := range dst {
			if j := int64(idx[i]); j >= 0 && j < n {
				dst[i] = data[j]
			} else {
				dst[i] = zero
			}
		}
		return
	}
	for _, i := range sel {
		if j := int64(idx[i]); j >= 0 && j < n {
			dst[i] = data[j]
		} else {
			dst[i] = zero
		}
	}
}

// gatherCoded is gather from a dictionary-coded data vector into a plain
// dst: it reads each gathered row's string through its code, so a chunk's
// gather costs its own rows, not a decode of all of data.
func gatherCoded(dst, data, idx *vector.Vector, sel vector.Sel) {
	d, codes, dict := dst.Str(), data.Codes(), data.Dict()
	switch idx.Kind() {
	case vector.I8:
		gatherCodes(d, codes, dict, idx.I8(), sel)
	case vector.I16:
		gatherCodes(d, codes, dict, idx.I16(), sel)
	case vector.I32:
		gatherCodes(d, codes, dict, idx.I32(), sel)
	case vector.I64:
		gatherCodes(d, codes, dict, idx.I64(), sel)
	default:
		panic(fmt.Sprintf("primitive: index vector must be integer, got %v", idx.Kind()))
	}
}

func gatherCodes[I integer](dst []string, codes []int32, dict []string, idx []I, sel vector.Sel) {
	n := int64(len(codes))
	at := func(i int) {
		if j := int64(idx[i]); j >= 0 && j < n {
			dst[i] = dict[codes[j]]
		} else {
			dst[i] = ""
		}
	}
	if sel == nil {
		for i := range dst {
			at(i)
		}
		return
	}
	for _, i := range sel {
		at(int(i))
	}
}

// Scatter writes the selected elements of val to data at positions idx,
// resolving duplicate target positions with the conflict function
// (Table I: "using function f to handle conflicts").
func Scatter(data, idx, val *vector.Vector, sel vector.Sel, conf nir.Conflict) {
	ix := toIndexes(idx)
	n := data.Len()
	// The conflict function combines values scattered to the same position
	// within this call; the first write to a position overwrites whatever
	// the array held before.
	seen := map[int64]bool{}
	forSel(val.Len(), sel, func(i int) {
		j := ix(i)
		if j < 0 || j >= int64(n) {
			return
		}
		v := val.Get(i)
		if !seen[j] {
			data.Set(int(j), v)
			seen[j] = true
			return
		}
		cur := data.Get(int(j))
		switch conf {
		case nir.ConfLast:
			data.Set(int(j), v)
		case nir.ConfFirst:
			// keep cur
		case nir.ConfSum:
			data.Set(int(j), addValues(cur, v))
		case nir.ConfMin:
			if lessValue(v, cur) {
				data.Set(int(j), v)
			}
		case nir.ConfMax:
			if lessValue(cur, v) {
				data.Set(int(j), v)
			}
		}
	})
}

// ConflictOf maps a conflict-function name to its nir code. Panics on
// unknown names (validated during normalization).
func ConflictOf(name string) nir.Conflict {
	switch name {
	case "last", "":
		return nir.ConfLast
	case "first":
		return nir.ConfFirst
	case "sum":
		return nir.ConfSum
	case "min":
		return nir.ConfMin
	case "max":
		return nir.ConfMax
	}
	panic(fmt.Sprintf("primitive: unknown conflict function %q", name))
}

func addValues(a, b vector.Value) vector.Value {
	if a.Kind == vector.F64 {
		return vector.F64Value(a.F + b.F)
	}
	return vector.IntValue(a.Kind, a.I+b.I)
}

func lessValue(a, b vector.Value) bool {
	switch a.Kind {
	case vector.F64:
		return a.F < b.F
	case vector.Str:
		return a.S < b.S
	default:
		return a.I < b.I
	}
}

// toIndexes returns an accessor reading idx[i] as int64 regardless of the
// index vector's integer kind.
func toIndexes(idx *vector.Vector) func(int) int64 {
	switch idx.Kind() {
	case vector.I64:
		d := idx.I64()
		return func(i int) int64 { return d[i] }
	case vector.I32:
		d := idx.I32()
		return func(i int) int64 { return int64(d[i]) }
	case vector.I16:
		d := idx.I16()
		return func(i int) int64 { return int64(d[i]) }
	case vector.I8:
		d := idx.I8()
		return func(i int) int64 { return int64(d[i]) }
	}
	panic(fmt.Sprintf("primitive: index vector must be integer, got %v", idx.Kind()))
}

func forSel(n int, sel vector.Sel, fn func(int)) {
	if sel == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	for _, i := range sel {
		fn(int(i))
	}
}

// ---------------------------------------------------------------------------
// Merge kernels over sorted flows (the abstract merge skeleton).

// MergeJoin returns, for two sorted vectors, the pairs of matching positions
// (li, ri) in join order. Duplicate keys produce the full cross product of
// matches, as a relational merge join requires.
func MergeJoin(a, b *vector.Vector) (li, ri vector.Sel) {
	i, j := 0, 0
	for i < a.Len() && j < b.Len() {
		av, bv := a.Get(i), b.Get(j)
		switch {
		case lessValue(av, bv):
			i++
		case lessValue(bv, av):
			j++
		default:
			// Emit the cross product of the equal runs.
			i2 := i
			for i2 < a.Len() && a.Get(i2).Equal(bv) {
				j2 := j
				for j2 < b.Len() && b.Get(j2).Equal(av) {
					li = append(li, int32(i2))
					ri = append(ri, int32(j2))
					j2++
				}
				i2++
			}
			// Skip both runs.
			for i < a.Len() && a.Get(i).Equal(bv) {
				i++
			}
			for j < b.Len() && b.Get(j).Equal(av) {
				j++
			}
		}
	}
	return li, ri
}

// MergeValues computes the merge skeleton in value space: join yields the
// matched left values, union/diff/intersect the respective sorted multiset
// results.
func MergeValues(flavor nir.MergeFlavor, a, b *vector.Vector) *vector.Vector {
	out := vector.New(a.Kind(), 0, a.Len())
	i, j := 0, 0
	switch flavor {
	case nir.MJoin, nir.MIntersect:
		for i < a.Len() && j < b.Len() {
			av, bv := a.Get(i), b.Get(j)
			switch {
			case lessValue(av, bv):
				i++
			case lessValue(bv, av):
				j++
			default:
				out.AppendValue(av)
				i++
				j++
			}
		}
	case nir.MUnion:
		for i < a.Len() && j < b.Len() {
			av, bv := a.Get(i), b.Get(j)
			switch {
			case lessValue(av, bv):
				out.AppendValue(av)
				i++
			case lessValue(bv, av):
				out.AppendValue(bv)
				j++
			default:
				out.AppendValue(av)
				i++
				j++
			}
		}
		for ; i < a.Len(); i++ {
			out.AppendValue(a.Get(i))
		}
		for ; j < b.Len(); j++ {
			out.AppendValue(b.Get(j))
		}
	case nir.MDiff:
		for i < a.Len() {
			av := a.Get(i)
			for j < b.Len() && lessValue(b.Get(j), av) {
				j++
			}
			if j < b.Len() && b.Get(j).Equal(av) {
				i++
				continue
			}
			out.AppendValue(av)
			i++
		}
	default:
		panic(fmt.Sprintf("primitive: unknown merge flavor %v", flavor))
	}
	return out
}
