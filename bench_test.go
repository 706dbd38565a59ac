// Package repro holds the experiment benchmark harness: one Benchmark per
// table, figure or quantitative claim of the paper that the reproduction
// covers (T1, F1–F3, E1–E14). paper_test.go asserts the claims that have a
// counted form (E12, E13) as tests, and the programs under examples/ print
// T1's kernel count, F1/F2, E1, E3, E5 and E6 in human-readable form;
// end-to-end performance is measured by the repo benchmark (BENCHMARK.json
// and benchmark/).
package repro

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/advm"
	"repro/internal/compress"
	"repro/internal/depgraph"
	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/interp"
	"repro/internal/morsel"
	"repro/internal/nir"
	"repro/internal/tpch"
	"repro/internal/vector"
)

// ---------------------------------------------------------------------------
// helpers

func mustNormalize(b *testing.B, src string, kinds map[string]vector.Kind) *nir.Program {
	b.Helper()
	prog, err := dsl.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	np, err := nir.Normalize(prog, kinds)
	if err != nil {
		b.Fatal(err)
	}
	return np
}

func i64Data(n int, f func(int) int64) *vector.Vector {
	d := make([]int64, n)
	for i := range d {
		d[i] = f(i)
	}
	return vector.FromI64(d)
}

// ---------------------------------------------------------------------------
// T1 — Table I: the skeleton catalogue, one bench per skeleton.

func BenchmarkExpT1_Skeletons(b *testing.B) {
	n := 1 << 16
	cases := []struct {
		name string
		src  string
		ext  func() map[string]*vector.Vector
	}{
		{"map", `
mut i
i := 0
loop {
  let xs = read i d
  if len(xs) == 0 then break
  write o i (map (\x -> 2*x + 1) xs)
  i := i + len(xs)
}`, nil},
		{"filter_condense", `
mut i
mut k
i := 0
k := 0
loop {
  let xs = read i d
  if len(xs) == 0 then break
  let f = condense (filter (\x -> x % 3 == 0) xs)
  write o k f
  i := i + len(xs)
  k := k + len(f)
}`, nil},
		{"fold", `
mut i
mut t
i := 0
t := 0
loop {
  let xs = read i d
  if len(xs) == 0 then break
  t := t + fold (\acc x -> acc + x) 0 xs
  i := i + len(xs)
}
write o 0 (gen (\j -> t) 1)`, nil},
		{"gather", `
let ix = read 0 idx 4096
write o 0 (gather d ix)`, nil},
		{"scatter", `
let ix = read 0 idx 4096
let xs = read 0 d 4096
scatter o ix xs sum`, nil},
		{"gen", `write o 0 (gen (\j -> j * j % 997) 4096)`, nil},
		{"merge", `
let a = read 0 sa 4096
let c = read 0 sb 4096
write o 0 (merge union a c)`, nil},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			ext := map[string]*vector.Vector{
				"d":   i64Data(n, func(i int) int64 { return int64(i%1000 - 500) }),
				"o":   vector.New(vector.I64, 0, n),
				"idx": i64Data(4096, func(i int) int64 { return int64((i * 7) % 4096) }),
				"sa":  i64Data(4096, func(i int) int64 { return int64(2 * i) }),
				"sb":  i64Data(4096, func(i int) int64 { return int64(3 * i) }),
			}
			kinds := map[string]vector.Kind{}
			for k, v := range ext {
				kinds[k] = v.Kind()
			}
			np := mustNormalize(b, c.src, kinds)
			it := interp.New(np)
			env, err := interp.NewEnv(np, ext)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Reset()
				ext["o"].SetLen(0)
				if err := it.Run(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// F1/F2 — the Figure-2 program through the Figure-1 state machine: full
// interpret→optimize→codegen→inject cycle cost, then steady state.

func BenchmarkExpF1_F2_Figure2(b *testing.B) {
	ext := func() map[string]*vector.Vector {
		return map[string]*vector.Vector{
			"some_data": i64Data(4096, func(i int) int64 { return int64(i%9 - 4) }),
			"v":         vector.New(vector.I64, 0, 4096),
			"w":         vector.New(vector.I64, 0, 4096),
		}
	}
	kinds := map[string]vector.Kind{"some_data": vector.I64, "v": vector.I64, "w": vector.I64}

	b.Run("interpret", func(b *testing.B) {
		p := advm.MustCompile(dsl.Figure2Source, kinds,
			advm.WithJIT(false))
		e := ext()
		for i := 0; i < b.N; i++ {
			if err := p.Run(b.Context(), e); err != nil {
				b.Fatal(err)
			}
			e["v"].SetLen(0)
			e["w"].SetLen(0)
		}
	})
	b.Run("adaptive_steady", func(b *testing.B) {
		// Micro-adaptive revert off: this bench measures the steady state
		// *with* injected traces, and on a slow or loaded host the revert
		// heuristic can deoptimize them mid-warmup and fail the setup check.
		p := advm.MustCompile(dsl.Figure2Source, kinds,
			advm.WithMicroAdaptive(false),
			advm.WithHotThresholds(2, 200*time.Microsecond))
		e := ext()
		// Warm to steady state (traces injected).
		for i := 0; i < 4; i++ {
			if err := p.Run(b.Context(), e); err != nil {
				b.Fatal(err)
			}
			e["v"].SetLen(0)
			e["w"].SetLen(0)
		}
		if len(p.Stats().CompiledSegments) == 0 {
			b.Fatal("not compiled")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Run(b.Context(), e); err != nil {
				b.Fatal(err)
			}
			e["v"].SetLen(0)
			e["w"].SetLen(0)
		}
	})
	b.Run("full_cycle", func(b *testing.B) {
		// Cost of one complete Figure-1 cycle, code generation included.
		for i := 0; i < b.N; i++ {
			p := advm.MustCompile(dsl.Figure2Source, kinds,
				advm.WithHotThresholds(1, 200*time.Microsecond))
			e := ext()
			if err := p.Run(b.Context(), e); err != nil { // interpret + optimize epilogue
				b.Fatal(err)
			}
			if len(p.Stats().CompiledSegments) == 0 {
				b.Fatal("cycle did not compile")
			}
		}
	})
}

// ---------------------------------------------------------------------------
// F3 — greedy dependency-graph partitioning of the Figure-2 loop body.

func BenchmarkExpF3_Partition(b *testing.B) {
	np := mustNormalize(b, dsl.Figure2Source, map[string]vector.Kind{
		"some_data": vector.I64, "v": vector.I64, "w": vector.I64,
	})
	it := interp.New(np)
	var seg *interp.Segment
	for _, s := range it.Segments {
		if seg == nil || len(s.Instrs) > len(seg.Instrs) {
			seg = s
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := depgraph.Build(seg.Instrs, nil)
		frags := depgraph.Partition(g, depgraph.DefaultConstraints())
		if len(frags) != 2 {
			b.Fatalf("fragments = %d, want 2 (Figure 3)", len(frags))
		}
		if _, err := depgraph.Schedule(g, frags); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E1 — TPC-H Q1 strategy comparison ([12] vs [17]).

func BenchmarkExpE1_Q1(b *testing.B) {
	st := tpch.GenLineitem(0.01, 42)
	cl := tpch.Compact(st)
	b.Run("tuple_at_a_time_compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tpch.Q1HyPer(st, tpch.Q1Cutoff)
		}
	})
	b.Run("vectorized_interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tpch.Q1Engine(b.Context(), st, tpch.Q1Cutoff, tpch.Q1Options{JIT: false, PreAgg: engine.PreAggOff}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vectorized_compact_preagg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tpch.Q1Compact(cl, tpch.Q1Cutoff)
		}
	})
	b.Run("adaptive_vm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tpch.Q1Engine(b.Context(), st, tpch.Q1Cutoff, tpch.Q1Options{
				JIT: true,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E2 — interpretation vs compilation for short vs long programs (total time
// including the opt-in modeled compile latency).

// e2Src is E2's program: one loop of element-wise constant arithmetic over
// its input d, which traces fuse (about 1.4× the interpreter's speed).
const e2Src = `
mut i
i := 0
loop {
  let xs = read i d
  if len(xs) == 0 then break
  write o i (map (\x -> ((((x * 3 + 7) * 5 - 2) * 11 + 13) * 7 - 5) * 3 + 1) xs)
  i := i + len(xs)
}`

// e2Runs is how often E2 runs its program on one fresh VM: enough that a
// long program's compile cost, with the scheduling delay of waking from the
// modeled latency on a loaded host, is a small share of its total time.
const e2Runs = 16

// e2Session compiles E2's program on a fresh VM, interpreted for good or
// with the JIT on and code generation charged the paper's latency model,
// and binds it to rows input rows. Micro-adaptive revert is off: E2 prices
// compilation, and a revert on a noisy measurement would turn the JIT leg
// into interpretation plus the compile cost.
func e2Session(tb testing.TB, rows int, jit bool) (*advm.Session, map[string]*vector.Vector) {
	tb.Helper()
	opts := []advm.Option{advm.WithJIT(false)}
	if jit {
		opts = []advm.Option{
			advm.WithHotThresholds(4, 200*time.Microsecond),
			advm.WithMicroAdaptive(false),
			advm.WithJITOptions(advm.JITOptions{CompileLatency: advm.DefaultCompileLatency}),
		}
	}
	sess, err := advm.Compile(e2Src, map[string]vector.Kind{"d": vector.I64, "o": vector.I64}, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return sess, map[string]*vector.Vector{
		"d": i64Data(rows, func(i int) int64 { return int64(i) }),
		"o": vector.New(vector.I64, 0, rows),
	}
}

// e2Run runs the session's program e2Runs times.
func e2Run(tb testing.TB, sess *advm.Session, ext map[string]*vector.Vector) {
	tb.Helper()
	for r := 0; r < e2Runs; r++ {
		if err := sess.Run(tb.Context(), ext); err != nil {
			tb.Fatal(err)
		}
		ext["o"].SetLen(0)
	}
}

func BenchmarkExpE2_ShortVsLong(b *testing.B) {
	for _, rows := range []int{1 << 12, 1 << 20} {
		for _, mode := range []string{"interpret", "jit_with_compile_cost"} {
			b.Run(fmt.Sprintf("%s/rows=%d", mode, rows), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sess, ext := e2Session(b, rows, mode != "interpret")
					b.StartTimer()
					// Fresh VM each iteration: total time includes any
					// compilation the VM decides to do.
					e2Run(b, sess, ext)
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E3 — selectivity specialization: full vs selective evaluation sweep.

func BenchmarkExpE3_Selectivity(b *testing.B) {
	st := e3Table()
	for _, sel := range []int64{10, 500, 990} {
		for _, mode := range []engine.EvalMode{engine.EvalFull, engine.EvalSelective, engine.EvalAdaptive} {
			b.Run(fmt.Sprintf("sel=%.2f/%v", float64(sel)/1000, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := engine.CountRows(b.Context(), e3Pipeline(st, sel, mode)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// e3Table is E3's input: 2^19 rows of (key, val), both drawn from [0, 1000).
func e3Table() *vector.DSMStore {
	n := 1 << 19
	rng := rand.New(rand.NewSource(3))
	st := vector.NewDSMStore(vector.NewSchema("key", vector.I64, "val", vector.I64))
	for i := 0; i < n; i++ {
		st.AppendRow(vector.I64Value(rng.Int63n(1000)), vector.I64Value(rng.Int63n(1000)))
	}
	return st
}

// e3Pipeline keeps the rows with key < sel (so sel/1000 of them) and
// computes a polynomial of val over the survivors in the given flavor.
func e3Pipeline(st *vector.DSMStore, sel int64, mode engine.EvalMode) *engine.Compute {
	scan, _ := engine.NewScan(st, "key", "val")
	f := engine.NewFilter(scan, dsl.MustParseLambda(fmt.Sprintf(`(\k -> k < %d)`, sel)), "key").SetMode(engine.EvalFull)
	return engine.NewCompute(f, "out", dsl.MustParseLambda(`(\v -> (v * 3 + 7) * (v - 1))`), vector.I64, "val").SetMode(mode)
}

// ---------------------------------------------------------------------------
// E4 — on-the-fly reordering of selective operators.

func BenchmarkExpE4_Reorder(b *testing.B) {
	st := e4Table()
	b.Run("static_bad_order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.CountRows(b.Context(), e4Chain(st, false)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adaptive_order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.CountRows(b.Context(), e4Chain(st, true)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// e4Table is E4's input: 2^19 rows of (a, b), both drawn from [0, 100).
func e4Table() *vector.DSMStore {
	n := 1 << 19
	rng := rand.New(rand.NewSource(4))
	st := vector.NewDSMStore(vector.NewSchema("a", vector.I64, "b", vector.I64))
	for i := 0; i < n; i++ {
		st.AppendRow(vector.I64Value(rng.Int63n(100)), vector.I64Value(rng.Int63n(100)))
	}
	return st
}

// e4Chain scans st through two selectors in the bad order: A (keeps ~90 %)
// before B (keeps ~5 %).
func e4Chain(st *vector.DSMStore, adaptive bool) *engine.AdaptiveChain {
	scan, _ := engine.NewScan(st, "a", "b")
	return engine.NewAdaptiveChain(scan, adaptive,
		&engine.CmpSelector{Label: "A", Col: "a", Threshold: 90, Greater: false},
		&engine.CmpSelector{Label: "B", Col: "b", Threshold: 5, Greater: false})
}

// ---------------------------------------------------------------------------
// E5 — compressed execution with per-block scheme drift.

func BenchmarkExpE5_Compressed(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var data []int64
	for blk := 0; blk < 64; blk++ {
		switch blk % 3 {
		case 0:
			v := rng.Int63n(100)
			for i := 0; i < compress.DefaultBlockLen; i++ {
				if i%500 == 0 {
					v = rng.Int63n(100)
				}
				data = append(data, v)
			}
		case 1:
			for i := 0; i < compress.DefaultBlockLen; i++ {
				data = append(data, int64(rng.Intn(5))*1000)
			}
		default:
			for i := 0; i < compress.DefaultBlockLen; i++ {
				data = append(data, 1<<20+rng.Int63n(512))
			}
		}
	}
	col, err := compress.BuildColumn(data, compress.DefaultBlockLen, nil)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]int64, compress.DefaultBlockLen)
	b.Run("decompress_then_process", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var total int64
			for _, blk := range col.Blocks() {
				blk.Decompress(buf[:blk.Len()])
				for _, v := range buf[:blk.Len()] {
					if v > 100 {
						total += v
					}
				}
			}
		}
	})
	b.Run("compressed_execution", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var total int64
			for _, blk := range col.Blocks() {
				total += blk.SumGreater(100)
			}
		}
	})
	b.Run("adaptive_scanner", func(b *testing.B) {
		sc := compress.NewAdaptiveScanner(nil)
		for i := 0; i < b.N; i++ {
			sc.SumGreater(col, 100)
		}
	})
}

// ---------------------------------------------------------------------------
// E6 — adaptive device placement (modeled costs reported as metrics).

// e6Kernel is a kernel over elems 8-byte elements in and out, named — and
// keyed for GPU residency — by name.
func e6Kernel(name string, elems int, opsPerElem float64) device.Kernel {
	return device.Kernel{
		Name: name, Elems: elems,
		BytesIn: elems * 8, BytesOut: elems * 8,
		OpsPerElem: opsPerElem, Inputs: []string{name},
	}
}

func BenchmarkExpE6_Placement(b *testing.B) {
	for _, resident := range []bool{false, true} {
		for _, elems := range []int{1 << 10, 1 << 16, 1 << 22} {
			name := fmt.Sprintf("resident=%v/elems=%d", resident, elems)
			b.Run(name, func(b *testing.B) {
				g := gpu.New(gpu.DefaultConfig())
				cpu := device.NewCPU()
				placer := device.NewPlacer(cpu, g)
				k := e6Kernel(name, elems, 4)
				if resident {
					g.MakeResident(name, k.BytesIn)
				}
				chosen := placer.Choose(k)
				b.ReportMetric(float64(cpu.Estimate(k).Modeled.Nanoseconds()), "cpu-model-ns")
				b.ReportMetric(float64(g.Estimate(k).Modeled.Nanoseconds()), "gpu-model-ns")
				if chosen.Name() == "gpu" {
					b.ReportMetric(1, "placed-on-gpu")
				} else {
					b.ReportMetric(0, "placed-on-gpu")
				}
				for i := 0; i < b.N; i++ {
					placer.Choose(k)
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E7 — execution strategies inside one framework: tuple-, chunk-,
// column-at-a-time, via the DSL's dynamic read granularity.

func BenchmarkExpE7_Strategies(b *testing.B) {
	n := 1 << 16
	for _, c := range []struct {
		name  string
		count int
	}{
		{"tuple_at_a_time", 1},
		{"chunk_at_a_time", vector.DefaultChunkLen},
		{"column_at_a_time", n},
	} {
		b.Run(c.name, func(b *testing.B) {
			src := fmt.Sprintf(`
mut i
i := 0
loop {
  let xs = read i d %d
  if len(xs) == 0 then break
  write o i (map (\x -> 2*x + 1) xs)
  i := i + len(xs)
}`, c.count)
			kinds := map[string]vector.Kind{"d": vector.I64, "o": vector.I64}
			np := mustNormalize(b, src, kinds)
			it := interp.New(np)
			ext := map[string]*vector.Vector{
				"d": i64Data(n, func(i int) int64 { return int64(i) }),
				"o": vector.New(vector.I64, 0, n),
			}
			env, err := interp.NewEnv(np, ext)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Reset()
				ext["o"].SetLen(0)
				if err := it.Run(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E8 — deforestation/fusion ablation: interpreted map chain vs fused trace.

func BenchmarkExpE8_Fusion(b *testing.B) {
	src := `
mut i
i := 0
loop {
  let xs = read i d
  if len(xs) == 0 then break
  write o i (map (\x -> ((x * 3 + 7) * 2 - 5) / 3 + x) xs)
  i := i + len(xs)
}`
	kinds := map[string]vector.Kind{"d": vector.I64, "o": vector.I64}
	n := 1 << 20
	mk := func() map[string]*vector.Vector {
		return map[string]*vector.Vector{
			"d": i64Data(n, func(i int) int64 { return int64(i) }),
			"o": vector.New(vector.I64, 0, n),
		}
	}
	run := func(b *testing.B, compiled bool) {
		opts := []advm.Option{}
		if compiled {
			opts = append(opts, advm.WithHotThresholds(2, 200*time.Microsecond))
		} else {
			opts = append(opts, advm.WithJIT(false))
		}
		p := advm.MustCompile(src, kinds, opts...)
		ext := mk()
		for r := 0; r < 4; r++ { // warm + (maybe) compile
			if err := p.Run(b.Context(), ext); err != nil {
				b.Fatal(err)
			}
			ext["o"].SetLen(0)
		}
		if compiled && len(p.Stats().CompiledSegments) == 0 {
			b.Fatal("not compiled")
		}
		b.SetBytes(int64(8 * n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Run(b.Context(), ext); err != nil {
				b.Fatal(err)
			}
			ext["o"].SetLen(0)
		}
	}
	b.Run("interpreted_unfused", func(b *testing.B) { run(b, false) })
	b.Run("fused_trace", func(b *testing.B) { run(b, true) })
}

// ---------------------------------------------------------------------------
// E9 — compact data types: identical fold at i64/i32/i16 widths
// (bandwidth-bound, so narrower types win proportionally).

func BenchmarkExpE9_CompactTypes(b *testing.B) {
	n := 1 << 23 // 8M values: out of cache at i64
	for _, kind := range []vector.Kind{vector.I64, vector.I32, vector.I16} {
		b.Run(kind.String(), func(b *testing.B) {
			data := vector.NewLen(kind, n)
			for i := 0; i < n; i++ {
				// Values ≤ 3 so a 4096-chunk partial sum fits even i16.
				data.Set(i, vector.IntValue(kind, int64(i%4)))
			}
			src := `
mut i
mut t
i := 0
t := 0
loop {
  let xs = read i d 4096
  if len(xs) == 0 then break
  t := t + cast<i64>(fold (\acc x -> acc + x) 0 xs)
  i := i + len(xs)
}
write o 0 (gen (\j -> t) 1)`
			// The fold runs natively in the column's (narrow) kind; only
			// the per-chunk scalar widens to i64 — so memory traffic is
			// the narrow column, the [12] effect.
			kinds := map[string]vector.Kind{"d": kind, "o": vector.I64}
			np := mustNormalize(b, src, kinds)
			it := interp.New(np)
			ext := map[string]*vector.Vector{"d": data, "o": vector.New(vector.I64, 0, 1)}
			env, err := interp.NewEnv(np, ext)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n * kind.Width()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Reset()
				ext["o"].SetLen(0)
				if err := it.Run(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E10 — DSM vs NSM storage layouts ([33]).

func BenchmarkExpE10_Layout(b *testing.B) {
	schema := vector.NewSchema(
		"c0", vector.I64, "c1", vector.I64, "c2", vector.I64, "c3", vector.I64,
		"c4", vector.I64, "c5", vector.I64, "c6", vector.I64, "c7", vector.I64,
	)
	n := 1 << 18
	dsm := vector.NewDSMStore(schema)
	nsm := vector.NewNSMStore(schema)
	row := make([]vector.Value, 8)
	for i := 0; i < n; i++ {
		for c := range row {
			row[c] = vector.I64Value(int64(i * (c + 1)))
		}
		dsm.AppendRow(row...)
		nsm.AppendRow(row...)
	}
	scan := func(b *testing.B, st vector.Store, cols []int) {
		dst := make([]*vector.Vector, len(cols))
		for i := range dst {
			dst[i] = vector.NewLen(vector.I64, vector.DefaultChunkLen)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var total int64
			for pos := 0; pos < n; pos += vector.DefaultChunkLen {
				got := st.Scan(pos, vector.DefaultChunkLen, cols, dst)
				for _, v := range dst[0].I64()[:got] {
					total += v
				}
			}
		}
	}
	b.Run("dsm/narrow_1of8", func(b *testing.B) { scan(b, dsm, []int{3}) })
	b.Run("nsm/narrow_1of8", func(b *testing.B) { scan(b, nsm, []int{3}) })
	b.Run("dsm/wide_8of8", func(b *testing.B) { scan(b, dsm, []int{0, 1, 2, 3, 4, 5, 6, 7}) })
	b.Run("nsm/wide_8of8", func(b *testing.B) { scan(b, nsm, []int{0, 1, 2, 3, 4, 5, 6, 7}) })
}

// ---------------------------------------------------------------------------
// E11 — morsel-driven parallelism.

func BenchmarkExpE11_Morsel(b *testing.B) {
	n := 1 << 22
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i % 1000)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				morsel.Fold(n, morsel.Options{Workers: workers},
					func() int64 { return 0 },
					func(acc int64, lo, hi int) int64 {
						for j := lo; j < hi; j++ {
							acc += data[j] * 3
						}
						return acc
					},
					func(a, c int64) int64 { return a + c },
				)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E12 — Bloom filters in selective hash joins.

// e12Dim is E12's build side: keys 0..999.
func e12Dim() *vector.DSMStore {
	dim := vector.NewDSMStore(vector.NewSchema("k", vector.I64))
	for i := 0; i < 1000; i++ {
		dim.AppendRow(vector.I64Value(int64(i)))
	}
	return dim
}

// e12Fact is E12's probe side: 2^18 foreign keys drawn from [0, domain), so
// a domain of 100 000 hits e12Dim about 1% of the time and 1 000 always.
func e12Fact(domain int64) *vector.DSMStore {
	fact := vector.NewDSMStore(vector.NewSchema("fk", vector.I64))
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 1<<18; i++ {
		fact.AppendRow(vector.I64Value(rng.Int63n(domain)))
	}
	return fact
}

func BenchmarkExpE12_Bloom(b *testing.B) {
	dim := e12Dim()
	selective := e12Fact(100_000) // ~1% hit rate
	dense := e12Fact(1_000)       // ~100% hit rate
	for _, c := range []struct {
		name string
		fact *vector.DSMStore
		mode engine.BloomMode
	}{
		{"selective/bloom_on", selective, engine.BloomOn},
		{"selective/bloom_off", selective, engine.BloomOff},
		{"selective/adaptive", selective, engine.BloomAdaptive},
		{"dense/bloom_on", dense, engine.BloomOn},
		{"dense/bloom_off", dense, engine.BloomOff},
		{"dense/adaptive", dense, engine.BloomAdaptive},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				probe, _ := engine.NewScan(c.fact, "fk")
				build, _ := engine.NewScan(dim, "k")
				j := engine.NewHashJoin(probe, build, "fk", "k").SetBloom(c.mode)
				if _, err := engine.CountRows(b.Context(), j); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E13 — adaptively triggered pre-aggregation ([12]).

// e13Table is E13's input: 2^18 rows of (k, v) with k drawn from
// [0, groups).
func e13Table(groups int64) *vector.DSMStore {
	st := vector.NewDSMStore(vector.NewSchema("k", vector.I64, "v", vector.I64))
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 1<<18; i++ {
		st.AppendRow(vector.I64Value(rng.Int63n(groups)), vector.I64Value(rng.Int63n(100)))
	}
	return st
}

func BenchmarkExpE13_PreAgg(b *testing.B) {
	local := e13Table(8)        // few hot groups: pre-agg absorbs everything
	uniform := e13Table(200000) // high-cardinality: pre-agg is pure overhead
	for _, c := range []struct {
		name string
		st   *vector.DSMStore
		mode engine.PreAggMode
	}{
		{"local/preagg_on", local, engine.PreAggOn},
		{"local/preagg_off", local, engine.PreAggOff},
		{"local/adaptive", local, engine.PreAggAdaptive},
		{"uniform/preagg_on", uniform, engine.PreAggOn},
		{"uniform/preagg_off", uniform, engine.PreAggOff},
		{"uniform/adaptive", uniform, engine.PreAggAdaptive},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scan, _ := engine.NewScan(c.st, "k", "v")
				agg := engine.NewHashAgg(scan, []string{"k"}, []engine.Aggregate{
					{Func: engine.AggSum, Col: "v", As: "s"},
				}).SetPreAgg(c.mode)
				if _, err := engine.Collect(b.Context(), agg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E14 — partitioner input-budget (TLB heuristic) ablation: constrained
// fragments vs one monolithic fragment on a wide-input program.

func BenchmarkExpE14_InputBudget(b *testing.B) {
	src := `
mut i
i := 0
loop {
  let a = read i d1
  if len(a) == 0 then break
  let c = read i d2
  let e = read i d3
  let f = read i d4
  let g = read i d5
  let h = read i d6
  let s = map (\x y -> x + y) a c
  let t = map (\x y -> x * y) e f
  let u = map (\x y -> x - y) g h
  let p = map (\x y -> x + y) s t
  let q = map (\x y -> x ^ y) p u
  write o i q
  i := i + len(a)
}`
	kinds := map[string]vector.Kind{"o": vector.I64}
	ext := map[string]*vector.Vector{"o": vector.New(vector.I64, 0, 1<<18)}
	for _, d := range []string{"d1", "d2", "d3", "d4", "d5", "d6"} {
		kinds[d] = vector.I64
		ext[d] = i64Data(1<<18, func(i int) int64 { return int64(i % 7919) })
	}
	for _, c := range []struct {
		name      string
		maxInputs int
	}{
		{"budget=3", 3},
		{"budget=8_default", 8},
		{"budget=32_unconstrained", 32},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := advm.MustCompile(src, kinds,
				advm.WithHotThresholds(2, 200*time.Microsecond),
				advm.WithPartitionBudget(c.maxInputs, 32))
			for r := 0; r < 4; r++ {
				if err := p.Run(b.Context(), ext); err != nil {
					b.Fatal(err)
				}
				ext["o"].SetLen(0)
			}
			b.SetBytes(int64(6 * 8 * (1 << 18)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Run(b.Context(), ext); err != nil {
					b.Fatal(err)
				}
				ext["o"].SetLen(0)
			}
		})
	}
}
