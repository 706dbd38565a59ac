// Package vector provides the columnar data substrate used by every layer of
// the adaptive VM: typed vectors, selection vectors, chunks (cache-resident
// batches in the MonetDB/X100 style) and row/column storage layouts.
//
// Vectors are fixed-capacity, variable-length typed arrays. Filters never
// physically modify a vector; instead they compute a selection vector
// (see Sel) that downstream operations honour, exactly as the paper's
// Table I prescribes for the filter/condense skeletons.
package vector

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// DefaultChunkLen is the default number of tuples per chunk. 1024 keeps a
// handful of vectors resident in L1/L2, the regime vectorized interpretation
// is designed for.
const DefaultChunkLen = 1024

// Kind identifies the element type of a Vector.
type Kind uint8

// Element kinds supported by the substrate. The integer widths exist to
// support the paper's "compact data types" refinement ([12]): the normalizer
// may narrow i64 computations to i32/i16/i8 when value ranges permit.
const (
	Invalid Kind = iota
	Bool
	I8
	I16
	I32
	I64
	F64
	Str
)

var kindNames = [...]string{
	Invalid: "invalid",
	Bool:    "bool",
	I8:      "i8",
	I16:     "i16",
	I32:     "i32",
	I64:     "i64",
	F64:     "f64",
	Str:     "str",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Width returns the in-memory width of one element in bytes. Strings report
// the size of a string header; Bool reports 1.
func (k Kind) Width() int {
	switch k {
	case Bool, I8:
		return 1
	case I16:
		return 2
	case I32:
		return 4
	case I64, F64:
		return 8
	case Str:
		return 16
	default:
		return 0
	}
}

// IsInteger reports whether k is one of the integer kinds.
func (k Kind) IsInteger() bool {
	switch k {
	case I8, I16, I32, I64:
		return true
	}
	return false
}

// IsNumeric reports whether k supports arithmetic.
func (k Kind) IsNumeric() bool {
	return k.IsInteger() || k == F64
}

// ParseKind converts a type name as written in the DSL ("i64", "f64", ...)
// into a Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s && Kind(k) != Invalid {
			return Kind(k), nil
		}
	}
	return Invalid, fmt.Errorf("vector: unknown type %q", s)
}

// Vector is a typed, variable-length column of values. The zero Vector is
// invalid; use New or one of the From constructors.
//
// Exactly one of the storage slices holds the elements, matching kind.
// Accessors (I64, F64, ...) panic on kind mismatch: a mismatch is a
// programming error in the engine, not a user-facing condition.
//
// A Str vector is either plain, its strings in str, or dictionary-coded
// (see FromCodes): one int32 code per row in codes, indexing dict. A
// dictionary is shared by reference between every vector coded over it and
// is never mutated, so copying, slicing and gathering a coded vector moves
// 4-byte codes and keeps the dictionary. A coded vector's str is nil.
type Vector struct {
	kind  Kind
	n     int
	coded bool
	b     []bool
	i8    []int8
	i16   []int16
	i32   []int32
	i64   []int64
	f64   []float64
	str   []string
	codes []int32
	dict  []string
}

// New returns a zero-filled vector of the given kind and length with capacity
// at least cap.
func New(kind Kind, n, capacity int) *Vector {
	if capacity < n {
		capacity = n
	}
	v := &Vector{kind: kind, n: n}
	switch kind {
	case Bool:
		v.b = make([]bool, n, capacity)
	case I8:
		v.i8 = make([]int8, n, capacity)
	case I16:
		v.i16 = make([]int16, n, capacity)
	case I32:
		v.i32 = make([]int32, n, capacity)
	case I64:
		v.i64 = make([]int64, n, capacity)
	case F64:
		v.f64 = make([]float64, n, capacity)
	case Str:
		v.str = make([]string, n, capacity)
	default:
		panic(fmt.Sprintf("vector.New: invalid kind %v", kind))
	}
	return v
}

// NewLen returns a zero-filled vector of the given kind and length.
func NewLen(kind Kind, n int) *Vector { return New(kind, n, n) }

// FromBool wraps a bool slice (no copy).
func FromBool(data []bool) *Vector { return &Vector{kind: Bool, n: len(data), b: data} }

// FromI8 wraps an int8 slice (no copy).
func FromI8(data []int8) *Vector { return &Vector{kind: I8, n: len(data), i8: data} }

// FromI16 wraps an int16 slice (no copy).
func FromI16(data []int16) *Vector { return &Vector{kind: I16, n: len(data), i16: data} }

// FromI32 wraps an int32 slice (no copy).
func FromI32(data []int32) *Vector { return &Vector{kind: I32, n: len(data), i32: data} }

// FromI64 wraps an int64 slice (no copy).
func FromI64(data []int64) *Vector { return &Vector{kind: I64, n: len(data), i64: data} }

// FromF64 wraps a float64 slice (no copy).
func FromF64(data []float64) *Vector { return &Vector{kind: F64, n: len(data), f64: data} }

// FromStr wraps a string slice (no copy).
func FromStr(data []string) *Vector { return &Vector{kind: Str, n: len(data), str: data} }

// Kind returns the element kind.
func (v *Vector) Kind() Kind { return v.kind }

// Len returns the logical length.
func (v *Vector) Len() int { return v.n }

// Cap returns the storage capacity.
func (v *Vector) Cap() int {
	switch v.kind {
	case Bool:
		return cap(v.b)
	case I8:
		return cap(v.i8)
	case I16:
		return cap(v.i16)
	case I32:
		return cap(v.i32)
	case I64:
		return cap(v.i64)
	case F64:
		return cap(v.f64)
	case Str:
		if v.coded {
			return cap(v.codes)
		}
		return cap(v.str)
	}
	return 0
}

// SetLen changes the logical length. Growing beyond capacity reallocates.
func (v *Vector) SetLen(n int) {
	if n < 0 {
		panic("vector.SetLen: negative length")
	}
	if n > v.Cap() {
		v.grow(n)
	}
	switch v.kind {
	case Bool:
		v.b = v.b[:n]
	case I8:
		v.i8 = v.i8[:n]
	case I16:
		v.i16 = v.i16[:n]
	case I32:
		v.i32 = v.i32[:n]
	case I64:
		v.i64 = v.i64[:n]
	case F64:
		v.f64 = v.f64[:n]
	case Str:
		if v.coded {
			v.codes = v.codes[:n]
		} else {
			v.str = v.str[:n]
		}
	}
	v.n = n
}

func (v *Vector) grow(n int) {
	c := v.Cap()*2 + 1
	if c < n {
		c = n
	}
	switch v.kind {
	case Bool:
		s := make([]bool, len(v.b), c)
		copy(s, v.b)
		v.b = s
	case I8:
		s := make([]int8, len(v.i8), c)
		copy(s, v.i8)
		v.i8 = s
	case I16:
		s := make([]int16, len(v.i16), c)
		copy(s, v.i16)
		v.i16 = s
	case I32:
		s := make([]int32, len(v.i32), c)
		copy(s, v.i32)
		v.i32 = s
	case I64:
		s := make([]int64, len(v.i64), c)
		copy(s, v.i64)
		v.i64 = s
	case F64:
		s := make([]float64, len(v.f64), c)
		copy(s, v.f64)
		v.f64 = s
	case Str:
		if v.coded {
			s := make([]int32, len(v.codes), c)
			copy(s, v.codes)
			v.codes = s
			break
		}
		s := make([]string, len(v.str), c)
		copy(s, v.str)
		v.str = s
	}
}

func (v *Vector) kindCheck(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("vector: accessed %v vector as %v", v.kind, k))
	}
}

// Bool returns the backing bool slice. Panics if the kind differs.
func (v *Vector) Bool() []bool { v.kindCheck(Bool); return v.b }

// I8 returns the backing int8 slice. Panics if the kind differs.
func (v *Vector) I8() []int8 { v.kindCheck(I8); return v.i8 }

// I16 returns the backing int16 slice. Panics if the kind differs.
func (v *Vector) I16() []int16 { v.kindCheck(I16); return v.i16 }

// I32 returns the backing int32 slice. Panics if the kind differs.
func (v *Vector) I32() []int32 { v.kindCheck(I32); return v.i32 }

// I64 returns the backing int64 slice. Panics if the kind differs.
func (v *Vector) I64() []int64 { v.kindCheck(I64); return v.i64 }

// F64 returns the backing float64 slice. Panics if the kind differs.
func (v *Vector) F64() []float64 { v.kindCheck(F64); return v.f64 }

// Str returns the backing string slice. Panics if the kind differs. For a
// coded vector it returns the rows decoded into a new slice: a copy, so
// writing into it does not change the vector, and reading it writes
// nothing to the vector, which other goroutines may share. Code that reads
// a coded vector's strings often should take Codes and Dict instead.
func (v *Vector) Str() []string {
	v.kindCheck(Str)
	if v.coded {
		return v.decode()
	}
	return v.str
}

// Elem is the set of Go element types a Vector stores, one per Kind.
type Elem interface {
	bool | int8 | int16 | int32 | int64 | float64 | string
}

// Data returns the backing slice as []T: the generic form of the Bool, I8,
// …, Str accessors, and like them it panics if T does not match the kind.
// It does not allocate: the switch is on the type of a nil *T, and the
// slice is reached through a pointer to its field, so nothing is boxed. A
// coded vector's strings are decoded into a new slice as Str decodes them,
// so kernels only ever write into plain vectors (the interpreter's output
// buffers are).
func Data[T Elem](v *Vector) []T {
	var p any
	var k Kind
	switch any((*T)(nil)).(type) {
	case *bool:
		p, k = &v.b, Bool
	case *int8:
		p, k = &v.i8, I8
	case *int16:
		p, k = &v.i16, I16
	case *int32:
		p, k = &v.i32, I32
	case *int64:
		p, k = &v.i64, I64
	case *float64:
		p, k = &v.f64, F64
	case *string:
		p, k = &v.str, Str
		if v.coded {
			s := v.decode()
			p = &s
		}
	}
	v.kindCheck(k)
	return *p.(*[]T)
}

// Clone returns a deep copy of v. A coded vector's copy shares its
// dictionary.
func (v *Vector) Clone() *Vector {
	if v.coded {
		return FromCodes(slices.Clone(v.codes), v.dict)
	}
	out := New(v.kind, v.n, v.n)
	switch v.kind {
	case Bool:
		copy(out.b, v.b)
	case I8:
		copy(out.i8, v.i8)
	case I16:
		copy(out.i16, v.i16)
	case I32:
		copy(out.i32, v.i32)
	case I64:
		copy(out.i64, v.i64)
	case F64:
		copy(out.f64, v.f64)
	case Str:
		copy(out.str, v.str)
	}
	return out
}

// Slice returns a view of v[lo:hi] sharing storage with v. The view's
// capacity ends at hi, so appending to it or growing it with SetLen
// reallocates and never writes into v past hi.
func (v *Vector) Slice(lo, hi int) *Vector {
	w := v.slice(lo, hi)
	return &w
}

// slice is Slice by value, for callers that keep the Vector header in
// storage of their own instead of allocating one.
func (v *Vector) slice(lo, hi int) Vector {
	if lo < 0 || hi > v.n || lo > hi {
		panic(fmt.Sprintf("vector.Slice: range [%d:%d] out of bounds (len %d)", lo, hi, v.n))
	}
	w := Vector{kind: v.kind, n: hi - lo}
	if v.coded {
		w.coded, w.codes, w.dict = true, v.codes[lo:hi:hi], v.dict[:len(v.dict):len(v.dict)]
		return w
	}
	switch v.kind {
	case Bool:
		w.b = v.b[lo:hi:hi]
	case I8:
		w.i8 = v.i8[lo:hi:hi]
	case I16:
		w.i16 = v.i16[lo:hi:hi]
	case I32:
		w.i32 = v.i32[lo:hi:hi]
	case I64:
		w.i64 = v.i64[lo:hi:hi]
	case F64:
		w.f64 = v.f64[lo:hi:hi]
	case Str:
		w.str = v.str[lo:hi:hi]
	}
	return w
}

// CopyFrom copies src[srcLo:srcLo+n] into v[dstLo:dstLo+n]. Kinds must
// match. It keeps v's form: codes copy as codes into a vector coded over
// the same dictionary, a plain v receives strings, and a v coded over
// another dictionary is first decoded to plain.
func (v *Vector) CopyFrom(dstLo int, src *Vector, srcLo, n int) {
	if src.kind != v.kind {
		panic(fmt.Sprintf("vector.CopyFrom: kind mismatch %v vs %v", v.kind, src.kind))
	}
	if v.kind == Str && (v.coded || src.coded) {
		if v.coded && !v.takesCodesOf(src) {
			v.toPlain()
		}
		switch {
		case v.coded:
			copy(v.codes[dstLo:dstLo+n], src.codes[srcLo:srcLo+n])
			return
		case src.coded:
			for i, c := range src.codes[srcLo : srcLo+n] {
				v.str[dstLo+i] = src.dict[c]
			}
			return
		}
	}
	switch v.kind {
	case Bool:
		copy(v.b[dstLo:dstLo+n], src.b[srcLo:srcLo+n])
	case I8:
		copy(v.i8[dstLo:dstLo+n], src.i8[srcLo:srcLo+n])
	case I16:
		copy(v.i16[dstLo:dstLo+n], src.i16[srcLo:srcLo+n])
	case I32:
		copy(v.i32[dstLo:dstLo+n], src.i32[srcLo:srcLo+n])
	case I64:
		copy(v.i64[dstLo:dstLo+n], src.i64[srcLo:srcLo+n])
	case F64:
		copy(v.f64[dstLo:dstLo+n], src.f64[srcLo:srcLo+n])
	case Str:
		copy(v.str[dstLo:dstLo+n], src.str[srcLo:srcLo+n])
	}
}

// AppendVector appends all elements of src to v. Kinds must match. An
// empty v takes src's form first, so appending coded vectors to an empty
// one builds a coded vector over their dictionary.
func (v *Vector) AppendVector(src *Vector) {
	if v.n == 0 {
		v.adopt(src)
	}
	old := v.n
	v.SetLen(old + src.n)
	v.CopyFrom(old, src, 0, src.n)
}

// Value is a dynamically typed scalar extracted from or written into a
// vector. It avoids interface{} boxing for the numeric fast paths.
type Value struct {
	Kind Kind
	B    bool
	I    int64 // used by all integer kinds
	F    float64
	S    string
}

// BoolValue wraps a bool as a Value.
func BoolValue(b bool) Value { return Value{Kind: Bool, B: b} }

// IntValue wraps an int64 as a Value of the given integer kind.
func IntValue(k Kind, i int64) Value { return Value{Kind: k, I: i} }

// I64Value wraps an int64 as an I64 Value.
func I64Value(i int64) Value { return Value{Kind: I64, I: i} }

// F64Value wraps a float64 as a Value.
func F64Value(f float64) Value { return Value{Kind: F64, F: f} }

// StrValue wraps a string as a Value.
func StrValue(s string) Value { return Value{Kind: Str, S: s} }

// String renders the value for debugging and test output.
func (x Value) String() string {
	switch x.Kind {
	case Bool:
		return strconv.FormatBool(x.B)
	case I8, I16, I32, I64:
		return strconv.FormatInt(x.I, 10)
	case F64:
		return strconv.FormatFloat(x.F, 'g', -1, 64)
	case Str:
		return strconv.Quote(x.S)
	}
	return "<invalid>"
}

// Equal reports deep equality of two values, with exact float comparison.
func (x Value) Equal(y Value) bool {
	if x.Kind != y.Kind {
		return false
	}
	switch x.Kind {
	case Bool:
		return x.B == y.B
	case I8, I16, I32, I64:
		return x.I == y.I
	case F64:
		return x.F == y.F || (math.IsNaN(x.F) && math.IsNaN(y.F))
	case Str:
		return x.S == y.S
	}
	return true
}

// Get returns element i as a Value.
func (v *Vector) Get(i int) Value {
	switch v.kind {
	case Bool:
		return Value{Kind: Bool, B: v.b[i]}
	case I8:
		return Value{Kind: I8, I: int64(v.i8[i])}
	case I16:
		return Value{Kind: I16, I: int64(v.i16[i])}
	case I32:
		return Value{Kind: I32, I: int64(v.i32[i])}
	case I64:
		return Value{Kind: I64, I: v.i64[i]}
	case F64:
		return Value{Kind: F64, F: v.f64[i]}
	case Str:
		if v.coded {
			return Value{Kind: Str, S: v.dict[v.codes[i]]}
		}
		return Value{Kind: Str, S: v.str[i]}
	}
	panic("vector.Get: invalid vector")
}

// Set writes Value x into element i, converting between integer widths. A
// string written into a coded vector is encoded through its dictionary.
func (v *Vector) Set(i int, x Value) {
	switch v.kind {
	case Bool:
		v.b[i] = x.B
	case I8:
		v.i8[i] = int8(x.I)
	case I16:
		v.i16[i] = int16(x.I)
	case I32:
		v.i32[i] = int32(x.I)
	case I64:
		v.i64[i] = x.I
	case F64:
		if x.Kind == F64 {
			v.f64[i] = x.F
		} else {
			v.f64[i] = float64(x.I)
		}
	case Str:
		if v.coded {
			v.codes[i] = v.encode(x.S)
		} else {
			v.str[i] = x.S
		}
	default:
		panic("vector.Set: invalid vector")
	}
}

// AppendValue appends a scalar to the end of the vector.
func (v *Vector) AppendValue(x Value) {
	v.SetLen(v.n + 1)
	v.Set(v.n-1, x)
}

// Fill sets every element of v to x.
func (v *Vector) Fill(x Value) {
	for i := 0; i < v.n; i++ {
		v.Set(i, x)
	}
}

// Equal reports whether v and w have the same kind, length and elements.
func (v *Vector) Equal(w *Vector) bool {
	if v.kind != w.kind || v.n != w.n {
		return false
	}
	for i := 0; i < v.n; i++ {
		if !v.Get(i).Equal(w.Get(i)) {
			return false
		}
	}
	return true
}

// String renders a short, human-readable preview of the vector.
func (v *Vector) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v[%d]{", v.kind, v.n)
	limit := v.n
	if limit > 8 {
		limit = 8
	}
	for i := 0; i < limit; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.Get(i).String())
	}
	if v.n > limit {
		sb.WriteString(", …")
	}
	sb.WriteString("}")
	return sb.String()
}

// Convert returns a copy of v converted to kind dst. Integer→integer
// conversions truncate like Go conversions; integer↔float convert by value.
// Converting Str or Bool to a numeric kind (or vice versa) is an error.
func (v *Vector) Convert(dst Kind) (*Vector, error) {
	if dst == v.kind {
		return v.Clone(), nil
	}
	if !v.kind.IsNumeric() || !dst.IsNumeric() {
		return nil, fmt.Errorf("vector: cannot convert %v to %v", v.kind, dst)
	}
	out := NewLen(dst, v.n)
	for i := 0; i < v.n; i++ {
		x := v.Get(i)
		if dst == F64 {
			if v.kind == F64 {
				out.f64[i] = x.F
			} else {
				out.f64[i] = float64(x.I)
			}
			continue
		}
		var iv int64
		if v.kind == F64 {
			iv = int64(x.F)
		} else {
			iv = x.I
		}
		out.Set(i, Value{Kind: dst, I: iv})
	}
	return out, nil
}

// FitsIn reports whether every element of the integer vector v fits in the
// integer kind dst without truncation. Used by the compact-data-types
// refinement.
func (v *Vector) FitsIn(dst Kind) bool {
	if !v.kind.IsInteger() || !dst.IsInteger() {
		return false
	}
	lo, hi := IntRange(dst)
	for i := 0; i < v.n; i++ {
		x := v.Get(i).I
		if x < lo || x > hi {
			return false
		}
	}
	return true
}

// IntRange returns the representable range of an integer kind.
func IntRange(k Kind) (lo, hi int64) {
	switch k {
	case I8:
		return math.MinInt8, math.MaxInt8
	case I16:
		return math.MinInt16, math.MaxInt16
	case I32:
		return math.MinInt32, math.MaxInt32
	case I64:
		return math.MinInt64, math.MaxInt64
	}
	return 0, -1
}

// MinIntKind returns the narrowest integer kind that can represent all values
// in [lo, hi].
func MinIntKind(lo, hi int64) Kind {
	for _, k := range []Kind{I8, I16, I32} {
		klo, khi := IntRange(k)
		if lo >= klo && hi <= khi {
			return k
		}
	}
	return I64
}
