package primitive

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/nir"
	"repro/internal/vector"
)

var (
	intKinds = []vector.Kind{vector.I8, vector.I16, vector.I32, vector.I64}
	numKinds = []vector.Kind{vector.I8, vector.I16, vector.I32, vector.I64, vector.F64}
	numOps   = []nir.ArithOp{nir.AAdd, nir.ASub, nir.AMul, nir.ADiv, nir.AMin, nir.AMax}
	intOps   = append(append([]nir.ArithOp(nil), numOps...), nir.AMod, nir.AAnd, nir.AOr, nir.AXor, nir.AShl, nir.AShr)
	boolOps  = []nir.ArithOp{nir.AAnd, nir.AOr, nir.AXor}
	cmpOps   = []nir.CmpOp{nir.CEq, nir.CNe, nir.CLt, nir.CLe, nir.CGt, nir.CGe}
)

// TestKernelInventoryComplete pins the registry to its exact key set, family
// by family: 171 map.bin keys per shape, 96 map.cmp, 12 map.un, 30 select,
// 35 fold, 20 cast and 180 map2 — 544 kernels.
func TestKernelInventoryComplete(t *testing.T) {
	bin := map[binKey]bool{}
	for _, k := range intKinds {
		for _, op := range intOps {
			bin[binKey{k, op}] = true
		}
	}
	for _, op := range numOps {
		bin[binKey{vector.F64, op}] = true
	}
	for _, op := range boolOps {
		bin[binKey{vector.Bool, op}] = true
	}
	cmp, sel := map[cmpKey]bool{}, map[cmpKey]bool{}
	for _, k := range numKinds {
		for _, op := range cmpOps {
			cmp[cmpKey{k, op}], sel[cmpKey{k, op}] = true, true
		}
	}
	cmp[cmpKey{vector.Bool, nir.CEq}], cmp[cmpKey{vector.Bool, nir.CNe}] = true, true
	un := map[unKey]bool{{vector.Bool, nir.UNot}: true, {vector.F64, nir.USqrt}: true}
	fold := map[binKey]bool{}
	casts := map[castKey]bool{}
	pairs := map[pairKey]bool{}
	for _, k := range numKinds {
		un[unKey{k, nir.UNeg}], un[unKey{k, nir.UAbs}] = true, true
		for _, op := range []nir.ArithOp{nir.AAdd, nir.AMul, nir.AMin, nir.AMax} {
			fold[binKey{k, op}] = true
		}
		for _, to := range numKinds {
			if to != k {
				casts[castKey{k, to}] = true
			}
		}
		for _, op1 := range numOps {
			for _, op2 := range numOps {
				pairs[pairKey{k, op1, op2}] = true
			}
		}
	}
	for _, op := range boolOps {
		for _, k := range append(intKinds, vector.Bool) {
			fold[binKey{k, op}] = true
		}
	}

	sameKeys(t, "map.bin vv", mapBinVV, bin)
	sameKeys(t, "map.bin vs", mapBinVS, bin)
	sameKeys(t, "map.bin sv", mapBinSV, bin)
	sameKeys(t, "map.cmp vv", mapCmpVV, cmp)
	sameKeys(t, "map.cmp vs", mapCmpVS, cmp)
	sameKeys(t, "map.cmp sv", mapCmpSV, cmp)
	sameKeys(t, "map.un", mapUn, un)
	sameKeys(t, "select", selCmp, sel)
	sameKeys(t, "fold", foldKernels, fold)
	sameKeys(t, "cast", castKernels, casts)
	sameKeys(t, "map2", pairKernels, pairs)
	if Count() != 544 {
		t.Errorf("kernel count = %d, want 544", Count())
	}
}

func sameKeys[K comparable, F any](t *testing.T, family string, got map[K]F, want map[K]bool) {
	t.Helper()
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: missing %+v", family, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s: unexpected %+v", family, k)
		}
	}
}

// TestElementFunctions pins the semantics the kernels and the scalar
// interpreter share.
func TestElementFunctions(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"div by zero", Div[int64](7, 0), int64(0)},
		{"MinInt/-1 wraps", Div[int64](math.MinInt64, -1), int64(math.MinInt64)},
		{"i8 MinInt/-1 wraps", Div[int8](math.MinInt8, -1), int8(math.MinInt8)},
		{"f64 division is IEEE", Div(1.0, 0), math.Inf(1)},
		{"mod by zero", Mod[int32](7, 0), int32(0)},
		{"mod by -1", Mod[int64](math.MinInt64, -1), int64(0)},
		{"shl", Shl[int64](10, 3), int64(80)},
		{"shl count mod 64", Shl[int64](1, 65), int64(2)},
		{"shl past the width", Shl[int8](1, 8), int8(0)},
		{"shr is arithmetic", Shr[int64](-1000, 2), int64(-250)},
		{"shr count mod 64", Shr[int64](1000, 66), int64(250)},
		{"min", Min[int16](-3, 2), int16(-3)},
		{"max", Max[int16](-3, 2), int16(2)},
		{"min(NaN, 1) = 1", Min(math.NaN(), 1), 1.0},
		{"max(NaN, 1) = 1", Max(math.NaN(), 1), 1.0},
		{"min(-0, +0) = +0", math.Signbit(Min(negZero, 0)), false},
		{"min(+0, -0) = -0", math.Signbit(Min(0, negZero)), true},
	} {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

// kernelCase is one registered kernel bound to fixed inputs. run writes a
// map kernel's result into dst (nil for select and fold kernels) and returns
// a select kernel's Sel or a fold kernel's Value.
type kernelCase struct {
	name string
	out  vector.Kind // kind of dst; Invalid for select and fold kernels
	run  func(dst *vector.Vector, sel vector.Sel, lo, hi int) any
}

const caseLen = 64

// caseInput is a deterministic input vector of kind k with zeros, negatives
// and repeats.
func caseInput(k vector.Kind, seed int) *vector.Vector {
	v := vector.NewLen(k, caseLen)
	for i := 0; i < caseLen; i++ {
		x := int64((i*7+seed*13)%19 - 9)
		switch k {
		case vector.Bool:
			v.Set(i, vector.BoolValue(x > 0))
		case vector.F64:
			v.Set(i, vector.F64Value(float64(x)/4))
		default:
			v.Set(i, vector.IntValue(k, x))
		}
	}
	return v
}

func caseScalar(k vector.Kind) vector.Value {
	switch k {
	case vector.Bool:
		return vector.BoolValue(true)
	case vector.F64:
		return vector.F64Value(2.5)
	}
	return vector.IntValue(k, 3)
}

// registeredKernels enumerates every registered kernel: keys from the
// registry maps, kernels through the lookup functions.
func registeredKernels() []kernelCase {
	var cs []kernelCase
	add := func(name string, out vector.Kind, run func(dst *vector.Vector, sel vector.Sel, lo, hi int) any) {
		cs = append(cs, kernelCase{name, out, run})
	}
	binVV := func(name string, in, out vector.Kind, f BinVVFunc) {
		a, b := caseInput(in, 1), caseInput(in, 2)
		add(name+" vv", out, func(d *vector.Vector, sel vector.Sel, lo, hi int) any { f(d, a, b, sel, lo, hi); return nil })
	}
	binVS := func(name string, in, out vector.Kind, f BinVSFunc) {
		a, s := caseInput(in, 1), caseScalar(in)
		add(name+" vs", out, func(d *vector.Vector, sel vector.Sel, lo, hi int) any { f(d, a, s, sel, lo, hi); return nil })
	}
	binSV := func(name string, in, out vector.Kind, f BinSVFunc) {
		s, b := caseScalar(in), caseInput(in, 2)
		add(name+" sv", out, func(d *vector.Vector, sel vector.Sel, lo, hi int) any { f(d, s, b, sel, lo, hi); return nil })
	}
	for key := range mapBinVV {
		name := fmt.Sprintf("map.bin.%v<%v>", key.Op, key.K)
		vv, _ := MapBinVV(key.K, key.Op)
		vs, _ := MapBinVS(key.K, key.Op)
		sv, _ := MapBinSV(key.K, key.Op)
		binVV(name, key.K, key.K, vv)
		binVS(name, key.K, key.K, vs)
		binSV(name, key.K, key.K, sv)
	}
	for key := range mapCmpVV {
		name := fmt.Sprintf("map.cmp.%v<%v>", key.Op, key.K)
		vv, _ := MapCmpVV(key.K, key.Op)
		vs, _ := MapCmpVS(key.K, key.Op)
		sv, _ := MapCmpSV(key.K, key.Op)
		binVV(name, key.K, vector.Bool, vv)
		binVS(name, key.K, vector.Bool, vs)
		binSV(name, key.K, vector.Bool, sv)
	}
	for key := range mapUn {
		f, _ := MapUn(key.K, key.Op)
		a := caseInput(key.K, 1)
		add(fmt.Sprintf("map.un.%v<%v>", key.Op, key.K), key.K, func(d *vector.Vector, sel vector.Sel, lo, hi int) any { f(d, a, sel, lo, hi); return nil })
	}
	for key := range castKernels {
		f, _ := Cast(key.From, key.To)
		a := caseInput(key.From, 1)
		add(fmt.Sprintf("cast<%v→%v>", key.From, key.To), key.To, func(d *vector.Vector, sel vector.Sel, lo, hi int) any { f(d, a, sel, lo, hi); return nil })
	}
	for key := range pairKernels {
		f, _ := MapPair(key.K, key.Op1, key.Op2)
		a, s1, s2 := caseInput(key.K, 1), caseScalar(key.K), caseScalar(key.K)
		add(fmt.Sprintf("map2.%v.%v<%v>", key.Op1, key.Op2, key.K), key.K, func(d *vector.Vector, sel vector.Sel, lo, hi int) any { f(d, a, s1, s2, sel, lo, hi); return nil })
	}
	for key := range selCmp {
		f, _ := SelectCmp(key.K, key.Op)
		a, s := caseInput(key.K, 1), caseScalar(key.K)
		add(fmt.Sprintf("select.%v<%v>", key.Op, key.K), vector.Invalid, func(_ *vector.Vector, sel vector.Sel, lo, hi int) any { return f(a, s, sel, lo, hi) })
	}
	for key := range foldKernels {
		f, _ := Fold(key.K, key.Op)
		a, init := caseInput(key.K, 1), caseScalar(key.K)
		add(fmt.Sprintf("fold.%v<%v>", key.Op, key.K), vector.Invalid, func(_ *vector.Vector, sel vector.Sel, lo, hi int) any { return f(init, a, sel, lo, hi) })
	}
	return cs
}

// TestEveryKernelHonoursWindowAndSelection runs every registered kernel over
// a window, with and without a selection vector, and checks the contract in
// the registry's doc comment: exactly the windowed positions are written,
// each with the value a whole-chunk run computes there, and a window of a
// selection behaves like the explicit sub-selection it denotes.
func TestEveryKernelHonoursWindowAndSelection(t *testing.T) {
	fill := func(k vector.Kind, high bool) *vector.Vector {
		v := vector.NewLen(k, caseLen)
		x := vector.Value{Kind: k, B: high, I: -77, F: -77.5}
		if high {
			x.I, x.F = 77, 77.5
		}
		v.Fill(x)
		return v
	}
	odds := vector.Sel{}
	for i := 1; i < caseLen; i += 2 {
		odds = append(odds, int32(i))
	}
	cases := registeredKernels()
	if len(cases) != Count() {
		t.Fatalf("enumerated %d kernels, registry holds %d", len(cases), Count())
	}
	for _, c := range cases {
		var refOut *vector.Vector
		if c.out != vector.Invalid {
			refOut = fill(c.out, false)
		}
		ref := c.run(refOut, nil, 0, caseLen)
		for _, sel := range []vector.Sel{nil, odds} {
			span := Span(caseInput(vector.I64, 0), sel)
			lo, hi := span/4, 3*span/4
			var pos vector.Sel
			for w := lo; w < hi; w++ {
				if sel == nil {
					pos = append(pos, int32(w))
				} else {
					pos = append(pos, sel[w])
				}
			}
			var outLow, outHigh, outPos *vector.Vector
			if c.out != vector.Invalid {
				outLow, outHigh, outPos = fill(c.out, false), fill(c.out, true), fill(c.out, false)
			}
			got := c.run(outLow, sel, lo, hi)
			c.run(outHigh, sel, lo, hi)
			if want := c.run(outPos, pos, 0, len(pos)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s sel=%v: window [%d,%d) gives %v, explicit selection %v", c.name, sel != nil, lo, hi, got, want)
			}
			if s, ok := got.(vector.Sel); ok {
				want := vector.Sel{}
				for _, p := range pos {
					if slices.Contains(ref.(vector.Sel), p) {
						want = append(want, p)
					}
				}
				if !slices.Equal(s, want) {
					t.Errorf("%s sel=%v: selected %v, want %v", c.name, sel != nil, s, want)
				}
			}
			if c.out == vector.Invalid {
				continue
			}
			in := map[int]bool{}
			for _, p := range pos {
				in[int(p)] = true
			}
			low, high := fill(c.out, false), fill(c.out, true)
			for p := 0; p < caseLen; p++ {
				wantLow, wantHigh := low.Get(p), high.Get(p)
				if in[p] {
					wantLow, wantHigh = refOut.Get(p), refOut.Get(p)
				}
				if !outLow.Get(p).Equal(wantLow) || !outHigh.Get(p).Equal(wantHigh) {
					t.Errorf("%s sel=%v: position %d holds %v/%v, want %v/%v", c.name, sel != nil, p,
						outLow.Get(p), outHigh.Get(p), wantLow, wantHigh)
					break
				}
			}
		}
	}
}

func TestSafeDivisionSemantics(t *testing.T) {
	k, _ := MapBinVV(vector.I64, nir.ADiv)
	dst := vector.NewLen(vector.I64, 3)
	a := vector.FromI64([]int64{10, -9223372036854775808, 7})
	b := vector.FromI64([]int64{0, -1, 2})
	k(dst, a, b, nil, 0, 3)
	if dst.I64()[0] != 0 {
		t.Error("div by zero must yield 0")
	}
	// MinInt64 / -1 must not panic; it wraps back to MinInt64.
	if dst.I64()[1] != -9223372036854775808 {
		t.Errorf("minint/-1 = %d, want wrapped MinInt64", dst.I64()[1])
	}
	if dst.I64()[2] != 3 {
		t.Error("7/2 = 3")
	}
	m, _ := MapBinVV(vector.I64, nir.AMod)
	m(dst, a, b, nil, 0, 3)
	if dst.I64()[0] != 0 || dst.I64()[1] != 0 {
		t.Error("mod by 0/-1 must yield 0")
	}
}

func TestWindowedExecution(t *testing.T) {
	k, _ := MapBinVS(vector.I64, nir.AAdd)
	dst := vector.NewLen(vector.I64, 8)
	a := vector.FromI64([]int64{1, 2, 3, 4, 5, 6, 7, 8})
	k(dst, a, vector.I64Value(10), nil, 2, 5)
	want := []int64{0, 0, 13, 14, 15, 0, 0, 0}
	for i, w := range want {
		if dst.I64()[i] != w {
			t.Fatalf("window write wrong: %v", dst.I64())
		}
	}
	// Selection-vector window indexes the sel list.
	sel := vector.Sel{1, 3, 5, 7}
	dst2 := vector.NewLen(vector.I64, 8)
	k(dst2, a, vector.I64Value(100), sel, 1, 3)
	if dst2.I64()[3] != 104 || dst2.I64()[5] != 106 || dst2.I64()[1] != 0 {
		t.Fatalf("sel window wrong: %v", dst2.I64())
	}
}

func TestPairKernelsMatchComposition(t *testing.T) {
	f := func(xs []int64, c1, c2 int16) bool {
		if len(xs) == 0 {
			return true
		}
		a := vector.FromI64(append([]int64(nil), xs...))
		n := a.Len()
		// (x*c1)+c2 via pair kernel vs two single kernels.
		pair, ok := MapPair(vector.I64, nir.AMul, nir.AAdd)
		if !ok {
			return false
		}
		got := vector.NewLen(vector.I64, n)
		pair(got, a, vector.I64Value(int64(c1)), vector.I64Value(int64(c2)), nil, 0, n)

		mul, _ := MapBinVS(vector.I64, nir.AMul)
		add, _ := MapBinVS(vector.I64, nir.AAdd)
		tmp := vector.NewLen(vector.I64, n)
		want := vector.NewLen(vector.I64, n)
		mul(tmp, a, vector.I64Value(int64(c1)), nil, 0, n)
		add(want, tmp, vector.I64Value(int64(c2)), nil, 0, n)
		return got.Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFoldKernels(t *testing.T) {
	a := vector.FromI64([]int64{3, 1, 4, 1, 5})
	cases := []struct {
		op   nir.ArithOp
		init int64
		want int64
	}{
		{nir.AAdd, 0, 14}, {nir.AMul, 1, 60}, {nir.AMin, 99, 1}, {nir.AMax, -1, 5},
		{nir.AAnd, -1, 0}, {nir.AOr, 0, 7}, {nir.AXor, 0, 2},
	}
	for _, c := range cases {
		k, ok := Fold(vector.I64, c.op)
		if !ok {
			t.Fatalf("missing fold.%v", c.op)
		}
		got := k(vector.I64Value(c.init), a, nil, 0, a.Len())
		if got.I != c.want {
			t.Errorf("fold.%v = %d, want %d", c.op, got.I, c.want)
		}
	}
	// Windowed fold (morsel use case).
	k, _ := Fold(vector.I64, nir.AAdd)
	if got := k(vector.I64Value(0), a, nil, 1, 4); got.I != 6 {
		t.Errorf("windowed fold = %d, want 6", got.I)
	}
}

func TestSelectFromBoolAndIota(t *testing.T) {
	mask := vector.FromBool([]bool{true, false, true, true})
	sel := SelectFromBool(mask, nil)
	if len(sel) != 3 || sel[2] != 3 {
		t.Fatalf("sel = %v", sel)
	}
	sub := SelectFromBool(mask, vector.Sel{0, 1})
	if len(sub) != 1 || sub[0] != 0 {
		t.Fatalf("sub = %v", sub)
	}
	v := vector.NewLen(vector.I64, 4)
	Iota(v, 10)
	if v.I64()[3] != 13 {
		t.Fatalf("iota = %v", v)
	}
}

// TestGatherKinds gathers every data kind through every index kind, with
// and without a selection vector: in-range positions read data, negative and
// past-the-end ones yield the zero value, unselected positions are left
// alone, and no call allocates.
func TestGatherKinds(t *testing.T) {
	positions := []int64{3, 0, 99, -1, 1, 4, 2, -128}
	inRange := func(j int64) bool { return j >= 0 && j < 4 }
	for _, k := range []vector.Kind{vector.Bool, vector.I8, vector.I16, vector.I32, vector.I64, vector.F64, vector.Str} {
		data := vector.NewLen(k, 4)
		for i := 0; i < 4; i++ {
			switch k {
			case vector.Str:
				data.Set(i, vector.StrValue(string(rune('a'+i))))
			case vector.Bool:
				data.Set(i, vector.BoolValue(i%2 == 1))
			default:
				data.Set(i, vector.IntValue(vector.I64, int64(i*10+1)))
			}
		}
		zero := vector.NewLen(k, 1).Get(0)
		datas := []*vector.Vector{data}
		if k == vector.Str {
			// A coded data vector gathers through its codes.
			datas = append(datas, vector.Encode(data.Str()))
		}
		for _, data := range datas {
			for _, ik := range intKinds {
				idx := vector.NewLen(ik, len(positions))
				for i, j := range positions {
					idx.Set(i, vector.IntValue(ik, j))
				}
				for _, sel := range []vector.Sel{nil, {0, 2, 3, 7}} {
					dst := vector.NewLen(k, len(positions))
					sentinel := data.Get(1) // differs from zero for every kind
					dst.Fill(sentinel)
					Gather(dst, data, idx, sel)
					for i, j := range positions {
						want := sentinel
						if sel == nil || slices.Contains(sel, int32(i)) {
							want = zero
							if inRange(j) {
								want = data.Get(int(j))
							}
						}
						if got := dst.Get(i); !got.Equal(want) {
							t.Errorf("gather %v by %v sel=%v: dst[%d] (idx %d) = %v, want %v", k, ik, sel, i, j, got, want)
						}
					}
					if allocs := testing.AllocsPerRun(10, func() { Gather(dst, data, idx, sel) }); allocs != 0 {
						t.Errorf("gather %v by %v sel=%v: %v allocations per call", k, ik, sel, allocs)
					}
				}
			}
		}
	}
}

func TestMergeJoinPositions(t *testing.T) {
	a := vector.FromI64([]int64{1, 2, 2, 5})
	b := vector.FromI64([]int64{2, 2, 5, 7})
	li, ri := MergeJoin(a, b)
	// 2×2 cross product for key 2 plus one match for 5 = 5 pairs.
	if len(li) != 5 || len(ri) != 5 {
		t.Fatalf("merge join pairs = %d/%d, want 5/5", len(li), len(ri))
	}
	for i := range li {
		if !a.Get(int(li[i])).Equal(b.Get(int(ri[i]))) {
			t.Fatalf("pair %d keys differ", i)
		}
	}
}

func TestConflictOfPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown conflict must panic")
		}
	}()
	ConflictOf("frobnicate")
}
