package fused

// The filter kernels of the fused loop. Each narrows a selection to the rows
// that satisfy one comparison, writes the survivors to dst and returns how
// many there are. A kernel has two loops:
//
//   - the dense loop (sel == nil) is a chunk's first filter when the chunk
//     carries no selection: it reads rows 0..len(src)-1 directly, so no
//     identity selection is built first;
//   - the selective loop reads the rows of sel.
//
// dst may alias sel, since a loop writes its i-th survivor no earlier than
// it reads its i-th row. Every loop is branch-free: it stores the row
// unconditionally and advances the cursor by the comparison, which Go
// compiles to a conditional move. A filter's cost therefore does not
// depend on how well its outcome predicts; where a branch would predict
// well (selectivity near 0 or 1) this flavour is a little slower, and
// BenchmarkFusedFilter prices both ends.
//
// Each comparison is one generic body, instantiated for int64 and float64.
// The comparisons are Go's own, so NaN and -0.0 behave as they do in the
// expression VM: NaN fails every comparison but !=.

type elem interface{ ~int64 | ~float64 }

func filterLt[T elem](src []T, c T, sel, dst []int32) int {
	k := 0
	if sel == nil {
		for r, v := range src {
			dst[k] = int32(r)
			if v < c {
				k++
			}
		}
		return k
	}
	for _, r := range sel {
		dst[k] = r
		if src[r] < c {
			k++
		}
	}
	return k
}

func filterLe[T elem](src []T, c T, sel, dst []int32) int {
	k := 0
	if sel == nil {
		for r, v := range src {
			dst[k] = int32(r)
			if v <= c {
				k++
			}
		}
		return k
	}
	for _, r := range sel {
		dst[k] = r
		if src[r] <= c {
			k++
		}
	}
	return k
}

func filterGt[T elem](src []T, c T, sel, dst []int32) int {
	k := 0
	if sel == nil {
		for r, v := range src {
			dst[k] = int32(r)
			if v > c {
				k++
			}
		}
		return k
	}
	for _, r := range sel {
		dst[k] = r
		if src[r] > c {
			k++
		}
	}
	return k
}

func filterGe[T elem](src []T, c T, sel, dst []int32) int {
	k := 0
	if sel == nil {
		for r, v := range src {
			dst[k] = int32(r)
			if v >= c {
				k++
			}
		}
		return k
	}
	for _, r := range sel {
		dst[k] = r
		if src[r] >= c {
			k++
		}
	}
	return k
}

func filterEq[T elem](src []T, c T, sel, dst []int32) int {
	k := 0
	if sel == nil {
		for r, v := range src {
			dst[k] = int32(r)
			if v == c {
				k++
			}
		}
		return k
	}
	for _, r := range sel {
		dst[k] = r
		if src[r] == c {
			k++
		}
	}
	return k
}

func filterNe[T elem](src []T, c T, sel, dst []int32) int {
	k := 0
	if sel == nil {
		for r, v := range src {
			dst[k] = int32(r)
			if v != c {
				k++
			}
		}
		return k
	}
	for _, r := range sel {
		dst[k] = r
		if src[r] != c {
			k++
		}
	}
	return k
}

// filterModEq keeps rows with v%m == c (Go's truncated %, as the expression
// VM computes it).
func filterModEq(src []int64, m, c int64, sel, dst []int32) int {
	k := 0
	if sel == nil {
		for r, v := range src {
			dst[k] = int32(r)
			if v%m == c {
				k++
			}
		}
		return k
	}
	for _, r := range sel {
		dst[k] = r
		if src[r]%m == c {
			k++
		}
	}
	return k
}

// filterRange keeps rows with lo <= v <= lo+span by one unsigned compare:
// v-lo wraps below zero to above span, so both bounds are one test.
func filterRange(src []int64, lo int64, span uint64, sel, dst []int32) int {
	k := 0
	if sel == nil {
		for r, v := range src {
			dst[k] = int32(r)
			if uint64(v-lo) <= span {
				k++
			}
		}
		return k
	}
	for _, r := range sel {
		dst[k] = r
		if uint64(src[r]-lo) <= span {
			k++
		}
	}
	return k
}
