package vector

import "fmt"

// Sel is a selection vector: a sorted list of indexes into a chunk that are
// logically "alive". A nil Sel means all rows are selected. Filters produce
// selection vectors instead of physically compacting the data; the condense
// skeleton materializes the selection (Table I of the paper).
type Sel []int32

// AllSel returns an explicit identity selection of length n. Most code should
// use nil instead; AllSel exists for algorithms that need a mutable base.
func AllSel(n int) Sel {
	s := make(Sel, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// Count returns the number of selected rows given a base row count n.
func (s Sel) Count(n int) int {
	if s == nil {
		return n
	}
	return len(s)
}

// Validate checks that s is sorted, unique and within [0, n).
func (s Sel) Validate(n int) error {
	prev := int32(-1)
	for i, x := range s {
		if x < 0 || int(x) >= n {
			return fmt.Errorf("sel[%d]=%d out of range [0,%d)", i, x, n)
		}
		if x <= prev {
			return fmt.Errorf("sel not strictly increasing at %d: %d after %d", i, x, prev)
		}
		prev = x
	}
	return nil
}

// Intersect returns the intersection of two selection vectors over a base of
// n rows. Either may be nil (meaning all rows).
func Intersect(a, b Sel, n int) Sel {
	if a == nil {
		if b == nil {
			return nil
		}
		return b
	}
	if b == nil {
		return a
	}
	out := make(Sel, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// SelFromMask converts a boolean mask into a selection vector.
func SelFromMask(mask []bool) Sel {
	out := make(Sel, 0, len(mask))
	for i, b := range mask {
		if b {
			out = append(out, int32(i))
		}
	}
	return out
}

// MaskFromSel converts a selection vector over n rows into a boolean mask.
func MaskFromSel(s Sel, n int) []bool {
	mask := make([]bool, n)
	if s == nil {
		for i := range mask {
			mask[i] = true
		}
		return mask
	}
	for _, x := range s {
		mask[x] = true
	}
	return mask
}

// Condense materializes the selection: it returns a new vector containing
// only the selected elements of v, in order. With a nil selection it clones.
func Condense(v *Vector, s Sel) *Vector {
	if s == nil {
		return v.Clone()
	}
	out := New(v.Kind(), 0, len(s))
	CondenseInto(out, v, s)
	return out
}

// CondenseInto overwrites dst with the selected elements of src, in order:
// dst's length becomes len(s), or src's length with a nil selection. dst
// keeps its storage when that is large enough, so a caller gathering into
// the same dst chunk after chunk allocates only while it grows. dst and src
// must be distinct vectors of the same kind.
func CondenseInto(dst, src *Vector, s Sel) {
	if s == nil {
		dst.SetLen(src.Len())
		dst.CopyFrom(0, src, 0, src.Len())
		return
	}
	dst.SetLen(len(s))
	gatherAt(dst, 0, src, s)
}

// gatherAt writes src's selected elements into dst[lo:lo+len(s)], which
// must exist. Kinds must match.
func gatherAt(dst *Vector, lo int, src *Vector, s Sel) {
	if src.kind != dst.kind {
		panic(fmt.Sprintf("vector: gather kind mismatch %v vs %v", dst.kind, src.kind))
	}
	switch src.kind {
	case Bool:
		gather(dst.b[lo:lo+len(s)], src.b, s)
	case I8:
		gather(dst.i8[lo:lo+len(s)], src.i8, s)
	case I16:
		gather(dst.i16[lo:lo+len(s)], src.i16, s)
	case I32:
		gather(dst.i32[lo:lo+len(s)], src.i32, s)
	case I64:
		gather(dst.i64[lo:lo+len(s)], src.i64, s)
	case F64:
		gather(dst.f64[lo:lo+len(s)], src.f64, s)
	case Str:
		gather(dst.str[lo:lo+len(s)], src.str, s)
	}
}

// gather sets dst[i] = src[s[i]].
func gather[T any](dst, src []T, s Sel) {
	for i, x := range s {
		dst[i] = src[x]
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
