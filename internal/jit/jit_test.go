package jit

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/depgraph"
	"repro/internal/dsl"
	"repro/internal/interp"
	"repro/internal/nir"
	"repro/internal/vector"
)

// compilePipeline normalizes src, partitions the largest segment and
// compiles every fragment, returning interpreter, env builder and traces.
func compilePipeline(t *testing.T, src string, kinds map[string]vector.Kind, opt Options) (*nir.Program, *interp.Interpreter, []*Trace) {
	t.Helper()
	prog := dsl.MustParse(src)
	np, err := nir.Normalize(prog, kinds)
	if err != nil {
		t.Fatal(err)
	}
	it := interp.New(np)
	var traces []*Trace
	for _, seg := range it.Segments {
		g := depgraph.Build(seg.Instrs, nil)
		frags := depgraph.Partition(g, depgraph.DefaultConstraints())
		for _, f := range frags {
			tr, err := Compile(np, g, f, opt)
			if err != nil {
				t.Fatalf("compile %v: %v", f, err)
			}
			traces = append(traces, tr)
		}
	}
	return np, it, traces
}

// installTraces builds plans with the traces injected and installs them.
func installTraces(t *testing.T, it *interp.Interpreter, np *nir.Program, opt Options) []*Trace {
	t.Helper()
	var all []*Trace
	for _, seg := range it.Segments {
		g := depgraph.Build(seg.Instrs, nil)
		frags := depgraph.Partition(g, depgraph.DefaultConstraints())
		if len(frags) == 0 {
			continue
		}
		units, err := depgraph.Schedule(g, frags)
		if err != nil {
			t.Fatal(err)
		}
		var steps []interp.Step
		for _, u := range units {
			if u.Fragment == nil {
				steps = append(steps, &interp.InstrStep{In: seg.Instrs[u.Node]})
				continue
			}
			tr, err := Compile(np, g, u.Fragment, opt)
			if err != nil {
				t.Fatal(err)
			}
			steps = append(steps, tr)
			all = append(all, tr)
		}
		if err := it.InstallPlan(seg.ID, &interp.Plan{Steps: steps}); err != nil {
			t.Fatal(err)
		}
	}
	return all
}

func runBoth(t *testing.T, src string, ext func() map[string]*vector.Vector) (interpreted, traced map[string]*vector.Vector) {
	t.Helper()
	kinds := map[string]vector.Kind{}
	for name, v := range ext() {
		kinds[name] = v.Kind()
	}
	opt := Options{}

	// Interpreted run.
	prog := dsl.MustParse(src)
	np, err := nir.Normalize(prog, kinds)
	if err != nil {
		t.Fatal(err)
	}
	it := interp.New(np)
	interpreted = ext()
	env, err := interp.NewEnv(np, interpreted)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Run(env); err != nil {
		t.Fatalf("interpreted run: %v", err)
	}

	// Traced run.
	it2 := interp.New(np)
	traces := installTraces(t, it2, np, opt)
	if len(traces) == 0 {
		t.Fatalf("no traces compiled for:\n%s", np)
	}
	traced = ext()
	env2, err := interp.NewEnv(np, traced)
	if err != nil {
		t.Fatal(err)
	}
	if err := it2.Run(env2); err != nil {
		t.Fatalf("traced run: %v", err)
	}
	for _, tr := range traces {
		if tr.Calls() == 0 && tr.Deopts() == 0 {
			t.Errorf("trace %s never executed", tr.Describe())
		}
	}
	return interpreted, traced
}

func assertExtEqual(t *testing.T, a, b map[string]*vector.Vector) {
	t.Helper()
	for name, va := range a {
		vb := b[name]
		if !va.Equal(vb) {
			t.Fatalf("external %q differs between interpreter and traces:\n%v\nvs\n%v", name, va, vb)
		}
	}
}

func TestTraceEquivalentToInterpreterFigure2(t *testing.T) {
	mk := func() map[string]*vector.Vector {
		data := make([]int64, 4096)
		for i := range data {
			data[i] = int64(i%11 - 5)
		}
		return map[string]*vector.Vector{
			"some_data": vector.FromI64(data),
			"v":         vector.New(vector.I64, 0, 4096),
			"w":         vector.New(vector.I64, 0, 4096),
		}
	}
	a, b := runBoth(t, dsl.Figure2Source, mk)
	assertExtEqual(t, a, b)
}

func TestTraceLongMapChainTiledFusion(t *testing.T) {
	// A 6-op element-wise chain over 8192 elements exercises the tiled
	// executor (n > tile size, no selection).
	src := `
mut i
i := 0
loop {
  let xs = read i data
  if len(xs) == 0 then break
  let r = map (\x -> ((x * 3 + 7) * 2 - 5) / 3 + x) xs
  write out i r
  i := i + len(xs)
}
`
	mk := func() map[string]*vector.Vector {
		data := make([]int64, 8192)
		for i := range data {
			data[i] = int64(i) - 4000
		}
		return map[string]*vector.Vector{
			"data": vector.FromI64(data),
			"out":  vector.New(vector.I64, 0, 8192),
		}
	}
	a, b := runBoth(t, src, mk)
	assertExtEqual(t, a, b)
	// Validate against direct computation.
	out := b["out"].I64()
	for i, x := range mk()["data"].I64() {
		want := ((x*3+7)*2-5)/3 + x
		if out[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
}

func TestTraceWithSelectionFallsBackToChunkPath(t *testing.T) {
	// map over a filtered flow: the run executes with a selection vector,
	// which must use the untiled path and keep results aligned.
	src := `
let xs = read 0 data 4096
let f = filter (\x -> x % 3 == 0) xs
let m = map (\x -> x * x + 1) f
write out 0 (condense m)
`
	mk := func() map[string]*vector.Vector {
		data := make([]int64, 4096)
		for i := range data {
			data[i] = int64(i)
		}
		return map[string]*vector.Vector{
			"data": vector.FromI64(data),
			"out":  vector.New(vector.I64, 0, 4096),
		}
	}
	a, b := runBoth(t, src, mk)
	assertExtEqual(t, a, b)
	out := b["out"].I64()
	if len(out) == 0 || out[1] != 10 { // x=3 → 3*3+1 = 10
		t.Fatalf("selected map wrong: %v", out[:min(5, len(out))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestGuardDeoptimization(t *testing.T) {
	src := `
let xs = read 0 data 1024
let m = map (\x -> x + 1) xs
write out 0 m
`
	prog := dsl.MustParse(src)
	np, err := nir.Normalize(prog, map[string]vector.Kind{"data": vector.I64, "out": vector.I64})
	if err != nil {
		t.Fatal(err)
	}
	it := interp.New(np)
	seg := it.Segments[0]
	g := depgraph.Build(seg.Instrs, nil)
	frags := depgraph.Partition(g, depgraph.DefaultConstraints())
	if len(frags) != 1 {
		t.Fatalf("fragments = %d", len(frags))
	}
	blocked := true
	tr, err := Compile(np, g, frags[0], Options{
		Guard: func(*interp.Env) bool { return !blocked },
	})
	if err != nil {
		t.Fatal(err)
	}
	units, err := depgraph.Schedule(g, frags)
	if err != nil {
		t.Fatal(err)
	}
	var steps []interp.Step
	for _, u := range units {
		if u.Fragment != nil {
			steps = append(steps, tr)
		} else {
			steps = append(steps, &interp.InstrStep{In: seg.Instrs[u.Node]})
		}
	}
	if err := it.InstallPlan(seg.ID, &interp.Plan{Steps: steps}); err != nil {
		t.Fatal(err)
	}

	run := func() *vector.Vector {
		data := make([]int64, 1024)
		for i := range data {
			data[i] = int64(i)
		}
		out := vector.New(vector.I64, 0, 1024)
		env, err := interp.NewEnv(np, map[string]*vector.Vector{
			"data": vector.FromI64(data), "out": out,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := it.Run(env); err != nil {
			t.Fatal(err)
		}
		return out
	}

	out1 := run() // guard blocked → deopt path
	if tr.Deopts() != 1 || tr.Calls() != 0 {
		t.Fatalf("deopts=%d calls=%d, want 1/0", tr.Deopts(), tr.Calls())
	}
	blocked = false
	out2 := run() // guard passes → compiled path
	if tr.Calls() != 1 {
		t.Fatalf("calls=%d, want 1", tr.Calls())
	}
	if !out1.Equal(out2) {
		t.Fatal("deopt path and compiled path disagree")
	}
}

// TestCompileLatencyModel: the opt-in model is charged once, on the goroutine
// whose request generated the template, and never on a hit — on another
// goroutine or on the same one. Without a model nothing is charged.
func TestCompileLatencyModel(t *testing.T) {
	const latency = 100 * time.Millisecond
	var charged atomic.Int64
	opt := Options{CompileLatency: func(int) time.Duration {
		charged.Add(1)
		return latency
	}}
	c := NewCache()
	request := func(src string, opt Options) (hit bool, took time.Duration) {
		np, _, g, units := fragmentOf(t, src)
		start := time.Now()
		traces, err := c.Traces(np, g, scheduled(units), opt)
		if err != nil {
			t.Error(err)
			return false, 0
		}
		return traces[0].TemplateHit(), time.Since(start)
	}
	if hit, d := request(affineSrc(3, 4), opt); hit || d < latency {
		t.Fatalf("miss: hit=%v, took %v; want the %v model charged to the caller", hit, d, latency)
	}
	done := make(chan time.Duration)
	go func() {
		hit, d := request(affineSrc(5, 6), opt)
		if !hit {
			t.Error("second program of the shape missed the cache")
		}
		done <- d
	}()
	if d := <-done; d >= latency/2 {
		t.Fatalf("a hit on another goroutine took %v: it was charged", d)
	}
	if hit, d := request(affineSrc(7, 8), opt); !hit || d >= latency/2 {
		t.Fatalf("a hit on the missing goroutine: hit=%v, took %v", hit, d)
	}
	if n := charged.Load(); n != 1 {
		t.Fatalf("model charged %d times, want once", n)
	}
	if hit, d := request("let xs = read 0 data 512\nwrite out 0 (map (\\x -> x - 3) xs)\n", Options{}); hit || d >= latency/2 {
		t.Fatalf("a miss without a model: hit=%v, took %v", hit, d)
	}
	if d := DefaultCompileLatency(10); d <= DefaultCompileLatency(1) {
		t.Error("compile latency must grow with fragment size")
	}
}

// Property: arbitrary affine chains agree between interpreter and trace for
// random coefficients and data.
func TestTraceEquivalenceProperty(t *testing.T) {
	f := func(raw []int16, m0 int8, a0 int8) bool {
		if len(raw) == 0 {
			return true
		}
		data := make([]int64, len(raw))
		for i, x := range raw {
			data[i] = int64(x)
		}
		m := int64(m0)
		a := int64(a0)
		src := `
let xs = read 0 data ` + vector.I64Value(int64(len(data))).String() + `
let r = map (\x -> x * ` + vector.I64Value(m).String() + ` + ` + vector.I64Value(a).String() + ` - x) xs
write out 0 r
`
		kinds := map[string]vector.Kind{"data": vector.I64, "out": vector.I64}
		prog, err := dsl.Parse(src)
		if err != nil {
			return false
		}
		np, err := nir.Normalize(prog, kinds)
		if err != nil {
			return false
		}
		// interpreted
		it := interp.New(np)
		out1 := vector.New(vector.I64, 0, len(data))
		env, _ := interp.NewEnv(np, map[string]*vector.Vector{"data": vector.FromI64(data), "out": out1})
		if err := it.Run(env); err != nil {
			return false
		}
		// traced
		it2 := interp.New(np)
		for _, seg := range it2.Segments {
			g := depgraph.Build(seg.Instrs, nil)
			frags := depgraph.Partition(g, depgraph.DefaultConstraints())
			units, err := depgraph.Schedule(g, frags)
			if err != nil {
				return false
			}
			var steps []interp.Step
			for _, u := range units {
				if u.Fragment == nil {
					steps = append(steps, &interp.InstrStep{In: seg.Instrs[u.Node]})
					continue
				}
				tr, err := Compile(np, g, u.Fragment, Options{TileSize: 8})
				if err != nil {
					return false
				}
				steps = append(steps, tr)
			}
			if err := it2.InstallPlan(seg.ID, &interp.Plan{Steps: steps}); err != nil {
				return false
			}
		}
		out2 := vector.New(vector.I64, 0, len(data))
		env2, _ := interp.NewEnv(np, map[string]*vector.Vector{"data": vector.FromI64(data), "out": out2})
		if err := it2.Run(env2); err != nil {
			return false
		}
		if !out1.Equal(out2) {
			return false
		}
		for i, x := range data {
			if out1.I64()[i] != x*m+a-x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFoldInsideTrace(t *testing.T) {
	src := `
let xs = read 0 data 2048
let sq = map (\x -> x * x) xs
let s = fold (\acc x -> acc + x) 0 sq
write out 0 s
`
	mk := func() map[string]*vector.Vector {
		data := make([]int64, 2048)
		for i := range data {
			data[i] = int64(i % 13)
		}
		return map[string]*vector.Vector{
			"data": vector.FromI64(data),
			"out":  vector.New(vector.I64, 0, 1),
		}
	}
	a, b := runBoth(t, src, mk)
	assertExtEqual(t, a, b)
	var want int64
	for _, x := range mk()["data"].I64() {
		want += x * x
	}
	if got := b["out"].I64()[0]; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}
