package interp

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dsl"
	"repro/internal/nir"
	"repro/internal/vector"
)

// runProgram parses, normalizes and interprets src against the given
// external bindings, returning the environment for inspection.
func runProgram(t *testing.T, src string, ext map[string]*vector.Vector) (*Interpreter, *Env) {
	t.Helper()
	prog, err := dsl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	kinds := map[string]vector.Kind{}
	for name, v := range ext {
		kinds[name] = v.Kind()
	}
	np, err := nir.Normalize(prog, kinds)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	it := New(np)
	it.Profiling = true
	env, err := NewEnv(np, ext)
	if err != nil {
		t.Fatalf("env: %v", err)
	}
	if err := it.Run(env); err != nil {
		t.Fatalf("run: %v\nprogram:\n%s", err, np)
	}
	return it, env
}

// TestFigure2EndToEnd executes the paper's Figure 2 program literally and
// validates both outputs: v = 2*some_data (all 4096), w = the positive
// doubled values, condensed.
func TestFigure2EndToEnd(t *testing.T) {
	n := 4096
	data := make([]int64, 8192) // more data than the program consumes
	for i := range data {
		data[i] = int64(i%7 - 3) // mix of negatives, zeros, positives
	}
	someData := vector.FromI64(data)
	v := vector.New(vector.I64, 0, n)
	w := vector.New(vector.I64, 0, n)

	_, _ = runProgram(t, dsl.Figure2Source, map[string]*vector.Vector{
		"some_data": someData, "v": v, "w": w,
	})

	if v.Len() != n {
		t.Fatalf("v has %d elements, want %d", v.Len(), n)
	}
	var wantW []int64
	for i := 0; i < n; i++ {
		want := 2 * data[i]
		if v.I64()[i] != want {
			t.Fatalf("v[%d] = %d, want %d", i, v.I64()[i], want)
		}
		if want > 0 {
			wantW = append(wantW, want)
		}
	}
	if w.Len() != len(wantW) {
		t.Fatalf("w has %d elements, want %d", w.Len(), len(wantW))
	}
	for i, want := range wantW {
		if w.I64()[i] != want {
			t.Fatalf("w[%d] = %d, want %d", i, w.I64()[i], want)
		}
	}
}

func TestMapFoldPipeline(t *testing.T) {
	data := vector.FromI64([]int64{1, 2, 3, 4, 5})
	out := vector.New(vector.I64, 0, 8)
	src := `
let xs = read 0 data 5
let doubled = map (\x -> 2*x + 1) xs
let total = fold (\acc x -> acc + x) 0 doubled
write out 0 (gen (\i -> total) 1)
`
	_, _ = runProgram(t, src, map[string]*vector.Vector{"data": data, "out": out})
	// doubled = 3,5,7,9,11; total = 35
	if out.Len() != 1 || out.I64()[0] != 35 {
		t.Fatalf("out = %v, want [35]", out)
	}
}

func TestFoldVariants(t *testing.T) {
	data := vector.FromI64([]int64{5, 3, 8, 1})
	cases := []struct {
		fn   string
		init int64
		want int64
	}{
		{`(\acc x -> acc + x)`, 0, 17},
		{`(\acc x -> acc * x)`, 1, 120},
		{`(\acc x -> min(acc, x))`, 100, 1},
		{`(\acc x -> max(acc, x))`, -1, 8},
		{`(\acc x -> acc + 2*x)`, 0, 34},
		{`(\acc x -> x + acc)`, 0, 17}, // acc on the right of commutative op
	}
	for _, c := range cases {
		out := vector.New(vector.I64, 0, 1)
		src := `
let xs = read 0 data 4
let r = fold ` + c.fn + ` ` + itoa(c.init) + ` xs
write out 0 (gen (\i -> r) 1)
`
		_, _ = runProgram(t, src, map[string]*vector.Vector{"data": data.Clone(), "out": out})
		if out.I64()[0] != c.want {
			t.Errorf("fold %s init %d = %d, want %d", c.fn, c.init, out.I64()[0], c.want)
		}
	}
}

func itoa(i int64) string {
	return vector.I64Value(i).String()
}

func TestGatherScatter(t *testing.T) {
	data := vector.FromI64([]int64{10, 20, 30, 40, 50})
	idx := vector.FromI64([]int64{4, 0, 2})
	out := vector.New(vector.I64, 5, 5)
	src := `
let ix = read 0 idx 3
let g = gather data ix
write out 0 g
scatter out2 ix g
`
	out2 := vector.New(vector.I64, 5, 5)
	_, _ = runProgram(t, src, map[string]*vector.Vector{
		"data": data, "idx": idx, "out": out, "out2": out2,
	})
	want := []int64{50, 10, 30}
	for i, w := range want {
		if out.I64()[i] != w {
			t.Fatalf("gather out = %v, want %v", out, want)
		}
	}
	// scatter: out2[4]=50, out2[0]=10, out2[2]=30
	if out2.I64()[4] != 50 || out2.I64()[0] != 10 || out2.I64()[2] != 30 {
		t.Fatalf("scatter out2 = %v", out2)
	}
}

func TestScatterConflicts(t *testing.T) {
	idx := vector.FromI64([]int64{0, 0, 0})
	vals := vector.FromI64([]int64{3, 1, 2})
	cases := map[string]int64{
		"last":  2,
		"first": 3,
		"sum":   6,
		"min":   1,
		"max":   3,
	}
	for conf, want := range cases {
		out := vector.New(vector.I64, 1, 1)
		src := `
let ix = read 0 idx 3
let vs = read 0 vals 3
scatter out ix vs ` + conf
		_, _ = runProgram(t, src, map[string]*vector.Vector{
			"idx": idx, "vals": vals, "out": out,
		})
		if out.I64()[0] != want {
			t.Errorf("scatter %s = %d, want %d", conf, out.I64()[0], want)
		}
	}
}

func TestFilterGeneralPredicate(t *testing.T) {
	data := vector.FromI64([]int64{1, 2, 3, 4, 5, 6, 7, 8})
	out := vector.New(vector.I64, 0, 8)
	// Predicate that is NOT a simple cmp-vs-const: (x % 2 == 0) && (x > 3).
	src := `
let xs = read 0 data 8
let f = filter (\x -> (x % 2 == 0) && (x > 3)) xs
write out 0 (condense f)
`
	_, _ = runProgram(t, src, map[string]*vector.Vector{"data": data, "out": out})
	want := []int64{4, 6, 8}
	if out.Len() != 3 {
		t.Fatalf("out = %v, want %v", out, want)
	}
	for i, w := range want {
		if out.I64()[i] != w {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestFusedFilterUsesSelectCmp(t *testing.T) {
	prog := dsl.MustParse(`
let xs = read 0 data 8
let f = filter (\x -> x > 3) xs
write out 0 (condense f)
`)
	np, err := nir.Normalize(prog, map[string]vector.Kind{"data": vector.I64, "out": vector.I64})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	np.Walk(func(in *nir.Instr) {
		if in.Op == nir.OpSelectCmp {
			found = true
		}
	})
	if !found {
		t.Fatalf("filter vs const should normalize to select.cmp:\n%s", np)
	}
}

func TestChainedFiltersIntersectSelections(t *testing.T) {
	data := vector.FromI64([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	out := vector.New(vector.I64, 0, 10)
	src := `
let xs = read 0 data 10
let a = filter (\x -> x > 3) xs
let b = filter (\x -> x < 8) a
write out 0 (condense b)
`
	_, _ = runProgram(t, src, map[string]*vector.Vector{"data": data, "out": out})
	want := []int64{4, 5, 6, 7}
	if out.Len() != len(want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
	for i, w := range want {
		if out.I64()[i] != w {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestMapOverFilteredFlowKeepsAlignment(t *testing.T) {
	data := vector.FromI64([]int64{1, -2, 3, -4, 5})
	out := vector.New(vector.I64, 0, 5)
	src := `
let xs = read 0 data 5
let pos = filter (\x -> x > 0) xs
let sq = map (\x -> x*x) pos
write out 0 (condense sq)
`
	_, _ = runProgram(t, src, map[string]*vector.Vector{"data": data, "out": out})
	want := []int64{1, 9, 25}
	if out.Len() != len(want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
	for i, w := range want {
		if out.I64()[i] != w {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestF64PipelineWithSqrt(t *testing.T) {
	a := vector.FromF64([]float64{3, 0, 8})
	b := vector.FromF64([]float64{4, 5, 6})
	out := vector.New(vector.F64, 0, 3)
	// The paper's normalization example: f(a,b) = sqrt(a² + b²).
	src := `
fn hyp(x, y) = sqrt(x*x + y*y)
let xs = read 0 a 3
let ys = read 0 b 3
let h = map hyp xs ys
write out 0 h
`
	_, _ = runProgram(t, src, map[string]*vector.Vector{"a": a, "b": b, "out": out})
	want := []float64{5, 5, 10}
	for i, w := range want {
		if out.F64()[i] != w {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestHypNormalizationBreaksIntoSimpleOps(t *testing.T) {
	prog := dsl.MustParse(`
fn hyp(x, y) = sqrt(x*x + y*y)
let xs = read 0 a 3
let ys = read 0 b 3
let h = map hyp xs ys
write out 0 h
`)
	np, err := nir.Normalize(prog, map[string]vector.Kind{"a": vector.F64, "b": vector.F64, "out": vector.F64})
	if err != nil {
		t.Fatal(err)
	}
	// Count primitive map ops: x*x, y*y, +, sqrt = 2 muls, 1 add, 1 sqrt.
	var muls, adds, sqrts int
	np.Walk(func(in *nir.Instr) {
		switch {
		case in.Op == nir.OpMapBin && in.Arith == nir.AMul:
			muls++
		case in.Op == nir.OpMapBin && in.Arith == nir.AAdd:
			adds++
		case in.Op == nir.OpMapUn && in.Unary == nir.USqrt:
			sqrts++
		}
	})
	if muls != 2 || adds != 1 || sqrts != 1 {
		t.Fatalf("normalization of hyp: muls=%d adds=%d sqrts=%d, want 2/1/1\n%s", muls, adds, sqrts, np)
	}
}

func TestMergeFlavors(t *testing.T) {
	a := vector.FromI64([]int64{1, 3, 5, 7})
	b := vector.FromI64([]int64{3, 4, 5, 8})
	cases := []struct {
		flavor string
		want   []int64
	}{
		{"join", []int64{3, 5}},
		{"intersect", []int64{3, 5}},
		{"union", []int64{1, 3, 4, 5, 7, 8}},
		{"diff", []int64{1, 7}},
	}
	for _, c := range cases {
		out := vector.New(vector.I64, 0, 8)
		src := `
let xs = read 0 a 4
let ys = read 0 b 4
write out 0 (merge ` + c.flavor + ` xs ys)
`
		_, _ = runProgram(t, src, map[string]*vector.Vector{"a": a.Clone(), "b": b.Clone(), "out": out})
		if out.Len() != len(c.want) {
			t.Errorf("merge %s = %v, want %v", c.flavor, out, c.want)
			continue
		}
		for i, w := range c.want {
			if out.I64()[i] != w {
				t.Errorf("merge %s = %v, want %v", c.flavor, out, c.want)
				break
			}
		}
	}
}

func TestGenIota(t *testing.T) {
	out := vector.New(vector.I64, 0, 10)
	src := `write out 0 (gen (\i -> i*i + 1) 5)`
	_, _ = runProgram(t, src, map[string]*vector.Vector{"out": out})
	want := []int64{1, 2, 5, 10, 17}
	for i, w := range want {
		if out.I64()[i] != w {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestCastNarrowAndWiden(t *testing.T) {
	data := vector.FromI64([]int64{100, 200, 300})
	out := vector.New(vector.I16, 0, 3)
	src := `
let xs = read 0 data 3
write out 0 (cast<i16>(xs))
`
	_, _ = runProgram(t, src, map[string]*vector.Vector{"data": data, "out": out})
	if out.I16()[2] != 300 {
		t.Fatalf("cast out = %v", out)
	}

	outF := vector.New(vector.F64, 0, 3)
	src = `
let xs = read 0 data 3
write outF 0 (map (\x -> x / 2.0) xs)
`
	_, _ = runProgram(t, src, map[string]*vector.Vector{"data": data, "outF": outF})
	if outF.F64()[0] != 50 {
		t.Fatalf("mixed int/float map = %v", outF)
	}
}

// TestVectorShifts: a shift mapped over a flow shifts by the count mod 64,
// as the same shift on scalars does — not (x << n) & 63.
func TestVectorShifts(t *testing.T) {
	src := `
let xs = read 0 a 1
let ys = read 0 b 1
write shl 0 (map (\x -> x << 3) xs)
write shr 0 (map (\y -> y >> 2) ys)
`
	shl, shr := vector.New(vector.I64, 0, 1), vector.New(vector.I64, 0, 1)
	runProgram(t, src, map[string]*vector.Vector{
		"a": vector.FromI64([]int64{10}), "b": vector.FromI64([]int64{1000}), "shl": shl, "shr": shr,
	})
	if shl.Len() != 1 || shl.I64()[0] != 80 || shr.Len() != 1 || shr.I64()[0] != 250 {
		t.Fatalf("10 << 3 = %v, 1000 >> 2 = %v; want [80], [250]", shl, shr)
	}
}

func TestReadPastEndYieldsShortAndEmptyFlows(t *testing.T) {
	data := vector.FromI64([]int64{1, 2, 3})
	out := vector.New(vector.I64, 0, 4)
	src := `
mut i
mut total
i := 0
total := 0
loop {
  let xs = read i data 2
  if len(xs) == 0 then break
  total := total + fold (\acc x -> acc + x) 0 xs
  i := i + len(xs)
}
write out 0 (gen (\j -> total) 1)
`
	_, _ = runProgram(t, src, map[string]*vector.Vector{"data": data, "out": out})
	if out.I64()[0] != 6 {
		t.Fatalf("total = %v, want 6", out.I64()[0])
	}
}

func TestIfElseBranching(t *testing.T) {
	out := vector.New(vector.I64, 0, 4)
	src := `
mut x
x := 10
if x > 5 then { write out 0 (gen (\i -> 1) 1) } else { write out 0 (gen (\i -> 2) 1) }
if x > 50 then { write out 1 (gen (\i -> 3) 1) } else { write out 1 (gen (\i -> 4) 1) }
`
	_, _ = runProgram(t, src, map[string]*vector.Vector{"out": out})
	if out.I64()[0] != 1 || out.I64()[1] != 4 {
		t.Fatalf("out = %v, want [1 4]", out)
	}
}

func TestProfilingCollectsCounters(t *testing.T) {
	data := vector.FromI64(make([]int64, 4096))
	for i := range data.I64() {
		data.I64()[i] = int64(i)
	}
	v := vector.New(vector.I64, 0, 4096)
	w := vector.New(vector.I64, 0, 4096)
	it, _ := runProgram(t, dsl.Figure2Source, map[string]*vector.Vector{
		"some_data": data, "v": v, "w": w,
	})
	if it.Prof.TotalNanos() == 0 {
		t.Fatal("profiling recorded no time")
	}
	hot := it.Prof.HotRank()
	if len(hot) == 0 {
		t.Fatal("no hot instructions ranked")
	}
	// The filter's selectivity must be observable. Find the select instr.
	var selID = -1
	it.Prog.Walk(func(in *nir.Instr) {
		if in.Op == nir.OpSelectCmp || in.Op == nir.OpSelect {
			selID = in.ID
		}
	})
	if selID < 0 {
		t.Fatal("no selection instruction in Figure 2")
	}
	sel := it.Prof.Selectivity(selID, -1)
	// data = 0..4095 doubled → positive except index 0 ⇒ selectivity ≈ 1.
	if sel < 0.99 || sel > 1.0 {
		t.Fatalf("observed selectivity = %v, want ≈ 0.9998", sel)
	}
}

func TestEnvErrors(t *testing.T) {
	prog := dsl.MustParse(`let a = read 0 data`)
	np, err := nir.Normalize(prog, map[string]vector.Kind{"data": vector.I64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEnv(np, map[string]*vector.Vector{}); err == nil {
		t.Error("missing external binding should error")
	}
	if _, err := NewEnv(np, map[string]*vector.Vector{"data": vector.New(vector.F64, 0, 0)}); err == nil {
		t.Error("wrong-kind binding should error")
	}
}

func TestNormalizeErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{`fn f(x) = f(x)
let a = f(1)`, "too deep"},
		{`let a = fold (\acc x -> acc * acc) 1 (read 0 d)`, "accumulator"},
		{`let a = fold (\acc x -> acc - x + acc) 1 (read 0 d)`, "accumulator"},
		{`loop {
if read 0 d then break
}`, "scalar boolean"},
		{`mut x
x := 1
x := read 0 d`, "changes type"},
		{`let a = condense 3`, "condense of a scalar"},
		{`let a = len(3)`, "len of a scalar"},
		{`mut x
let y = x + 1`, "before assignment"},
	}
	for _, c := range cases {
		prog, err := dsl.Parse(c.src)
		if err != nil {
			t.Errorf("parse(%q): %v", c.src, err)
			continue
		}
		_, err = nir.Normalize(prog, map[string]vector.Kind{"d": vector.I64})
		if err == nil {
			t.Errorf("Normalize(%q) should fail with %q", c.src, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Normalize(%q) = %v, want substring %q", c.src, err, c.frag)
		}
	}
}

// Property: for random data, the Figure-2 pipeline (×2 then keep-positive)
// computed by the interpreter equals the obvious Go loop.
func TestFigure2Property(t *testing.T) {
	f := func(raw []int16) bool {
		data := make([]int64, len(raw))
		for i, x := range raw {
			data[i] = int64(x)
		}
		n := len(data)
		src := `
let xs = read 0 data ` + itoa(int64(n)) + `
let a = map (\x -> 2*x) xs
let b = condense (filter (\x -> x > 0) a)
write v 0 a
write w 0 b
`
		v := vector.New(vector.I64, 0, n)
		w := vector.New(vector.I64, 0, n)
		prog, err := dsl.Parse(src)
		if err != nil {
			return false
		}
		np, err := nir.Normalize(prog, map[string]vector.Kind{"data": vector.I64, "v": vector.I64, "w": vector.I64})
		if err != nil {
			return false
		}
		it := New(np)
		env, err := NewEnv(np, map[string]*vector.Vector{
			"data": vector.FromI64(data), "v": v, "w": w,
		})
		if err != nil {
			return false
		}
		if err := it.Run(env); err != nil {
			return false
		}
		var wantW []int64
		for i, x := range data {
			d := 2 * x
			if v.I64()[i] != d {
				return false
			}
			if d > 0 {
				wantW = append(wantW, d)
			}
		}
		if w.Len() != len(wantW) {
			return false
		}
		for i, x := range wantW {
			if w.I64()[i] != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
