package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/advm"
	"repro/internal/tpch"
)

// jitcacheRecord is the BENCH_jitcache.json perf record: what a first
// execution costs now that code generation is off the caller's clock. The
// program legs time Prepare plus two runs of a never-seen 14-operator
// program (fresh constants, so a fresh fingerprint) under the default compile
// latency model: with the JIT off, on an engine that has never seen the
// program's shape (template miss: its code is generated in the background
// while the runs interpret), and on an engine that has (template hit: the
// traces are patched in at the first hot check). The Q6 legs time the first
// execution of TPC-H Q6 on a fresh engine, JIT on vs off. Besides the usual
// per-leg gate against the baseline, benchdiff holds the hit leg against the
// JIT-off leg of the same record: compiled-from-cache must not cost more
// than not compiling at all.
type jitcacheRecord struct {
	Benchmark       string  `json:"benchmark"`
	ScaleFactor     float64 `json:"scale_factor"`
	Rows            int     `json:"rows"`
	Iters           int     `json:"iters"`
	ProgJITOffNsOp  int64   `json:"prog_jit_off_ns_op"`
	ProgMissNsOp    int64   `json:"prog_template_miss_ns_op"`
	ProgHitNsOp     int64   `json:"prog_template_hit_ns_op"`
	Q6ColdJITOnNsOp int64   `json:"q6_cold_jit_on_ns_op"`
	Q6ColdJITOffNs  int64   `json:"q6_cold_jit_off_ns_op"`
	HitVsJITOff     float64 `json:"hit_vs_jit_off"`
	TemplateHits    int64   `json:"template_hits"`
	Identical       bool    `json:"identical"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	CalibNs         int64   `json:"calib_ns"`
	// HitVsJITOffFloor is the floor for HitVsJITOff (JIT-off ns/op ÷
	// template-hit ns/op), read by benchdiff from the BASELINE record only:
	// 0.8 is "the hit leg takes at most 1.25× the JIT-off leg".
	HitVsJITOffFloor float64 `json:"hit_vs_jit_off_floor,omitempty"`
}

// jitcacheProgram is a never-seen program of one fixed shape: a map, a chain
// of ten constant maps, a filter, a map and a fold over a chunked read loop.
// seq makes its constants — and so its fingerprint — unique.
func jitcacheProgram(seq int64) (src string, want func([]int64) int64) {
	a, b, thr := 3+seq, 17+seq%1000, 5000-seq
	steps := []struct {
		lambda string
		apply  func(int64) int64
	}{
		{`(\x -> x * 3)`, func(x int64) int64 { return x * 3 }},
		{`(\x -> x + 7)`, func(x int64) int64 { return x + 7 }},
		{`(\x -> x - 2)`, func(x int64) int64 { return x - 2 }},
		{`(\x -> x * 5)`, func(x int64) int64 { return x * 5 }},
		{`(\x -> x + 11)`, func(x int64) int64 { return x + 11 }},
	}
	var sb strings.Builder
	sb.WriteString("mut i\nmut t\nt := 0\ni := 0\nloop {\n  let xs = read i d\n  if len(xs) == 0 then break\n")
	fmt.Fprintf(&sb, "  let m0 = map (\\x -> x * %d + %d) xs\n", a, b)
	const chain = 10
	for s := 1; s <= chain; s++ {
		fmt.Fprintf(&sb, "  let m%d = map %s m%d\n", s, steps[s%len(steps)].lambda, s-1)
	}
	fmt.Fprintf(&sb, "  let f = condense (filter (\\x -> x > %d) m%d)\n  let g = map (\\x -> x - %d) f\n", thr, chain, b)
	sb.WriteString("  t := t + fold (\\acc x -> acc + x) 0 g\n  i := i + len(xs)\n}\nwrite o 0 (gen (\\j -> t) 1)\n")
	return sb.String(), func(d []int64) int64 {
		var t int64
		for _, x := range d {
			m := x*a + b
			for s := 1; s <= chain; s++ {
				m = steps[s%len(steps)].apply(m)
			}
			if m > thr {
				t += m - b
			}
		}
		return t
	}
}

// expE22 measures first-execution latency with the compile service: a
// never-seen program with the JIT off, as a template miss and as a template
// hit, and cold Q6 with the JIT on and off. With outDir != "" it writes
// BENCH_jitcache.json there for the CI gate.
func expE22(dataDir, outDir string) {
	const sf = 0.02
	const iters = 15
	const elems = 128 << 10
	header(fmt.Sprintf("E22 — first executions with the JIT compile service: never-seen programs (%d elements, run twice) and cold Q6 (SF %.3f)", elems, sf))
	st, err := tpch.LoadOrGen(dataDir, "lineitem", sf, 42)
	if err != nil {
		fatalE22(err)
	}
	calibNs := calibrate()
	fmt.Printf("GOMAXPROCS=%d, calib=%v, default compile latency model\n\n",
		runtime.GOMAXPROCS(0), time.Duration(calibNs).Round(time.Microsecond))

	ctx := context.Background()
	data := make([]int64, elems)
	for i := range data {
		data[i] = int64(i*7919%1000 - 500)
	}
	kinds := map[string]advm.Kind{"d": advm.I64, "o": advm.I64}
	identical := true
	var seq int64
	// coldProgram prepares and twice runs a program no engine has seen.
	coldProgram := func(eng *advm.Engine) time.Duration {
		seq++
		src, want := jitcacheProgram(seq)
		out := advm.NewVector(advm.I64, 0, 1)
		bind := map[string]*advm.Vector{"d": advm.FromI64(data), "o": out}
		start := time.Now()
		prep, err := eng.Prepare(src, kinds)
		if err != nil {
			fatalE22(err)
		}
		for run := 0; run < 2; run++ {
			out.SetLen(0)
			if err := prep.Run(ctx, bind); err != nil {
				fatalE22(err)
			}
		}
		d := time.Since(start)
		if got := out.I64(); len(got) != 1 || got[0] != want(data) {
			identical = false
		}
		return d
	}
	newEngine := func(opts ...advm.Option) *advm.Engine {
		eng, err := advm.NewEngine(opts...)
		if err != nil {
			fatalE22(err)
		}
		return eng
	}
	best := func(n int, fn func() time.Duration) time.Duration {
		var b time.Duration
		for i := 0; i < n; i++ {
			if d := fn(); b == 0 || d < b {
				b = d
			}
		}
		return b
	}

	off := newEngine(advm.WithJIT(false))
	offD := best(iters, func() time.Duration { return coldProgram(off) })
	off.Close()

	// Template miss: every sample on an engine that has compiled nothing.
	missD := best(iters, func() time.Duration {
		eng := newEngine()
		defer eng.Close()
		return coldProgram(eng)
	})

	// Template hit: one engine, shape learned from earlier programs. The
	// partitioner works from measured costs, so the first few programs can
	// split the chain differently; run until the cache stops growing.
	warm := newEngine()
	for settled := 0; settled < 3; {
		before := warm.Stats().JITTemplateMisses
		coldProgram(warm)
		for warm.Stats().JITCompileQueueDepth > 0 {
			time.Sleep(time.Millisecond)
		}
		if warm.Stats().JITTemplateMisses == before {
			settled++
		} else {
			settled = 0
		}
	}
	hitsBefore := warm.Stats().JITTemplateHits
	hitD := best(iters, func() time.Duration { return coldProgram(warm) })
	hits := warm.Stats().JITTemplateHits - hitsBefore
	warm.Close()
	if hits == 0 {
		fatalE22(fmt.Errorf("the warm engine served no trace from its template cache"))
	}

	// Cold Q6: first execution of the plan on a fresh engine (interpreted
	// operators, one expression VM per filter and compute).
	coldQ6 := func(jitOn bool) (time.Duration, [][]advm.Value) {
		var rows [][]advm.Value
		d := best(iters, func() time.Duration {
			eng := newEngine(advm.WithJIT(jitOn))
			defer eng.Close()
			sess, err := eng.Session(advm.WithParallelism(1))
			if err != nil {
				fatalE22(err)
			}
			start := time.Now()
			rows, err = benchCollect(sess, tpch.PlanQ6(st, tpch.DefaultQ6Params()))
			if err != nil {
				fatalE22(err)
			}
			return time.Since(start)
		})
		return d, rows
	}
	q6On, rowsOn := coldQ6(true)
	q6Off, rowsOff := coldQ6(false)
	identical = identical && sameResults(rowsOn, rowsOff)

	rec := jitcacheRecord{
		Benchmark: "jitcache", ScaleFactor: sf, Rows: st.Rows(), Iters: iters,
		ProgJITOffNsOp: offD.Nanoseconds(), ProgMissNsOp: missD.Nanoseconds(), ProgHitNsOp: hitD.Nanoseconds(),
		Q6ColdJITOnNsOp: q6On.Nanoseconds(), Q6ColdJITOffNs: q6Off.Nanoseconds(),
		HitVsJITOff:  float64(offD) / float64(hitD),
		TemplateHits: hits, Identical: identical,
		GOMAXPROCS: runtime.GOMAXPROCS(0), CalibNs: calibNs,
		HitVsJITOffFloor: 0.8,
	}
	if !rec.Identical {
		fatalE22(fmt.Errorf("a program's output or Q6's rows differ from their reference"))
	}
	fmt.Printf("  never-seen program   jit-off %10v   template-miss %10v   template-hit %10v   (jit-off ÷ hit = %.2fx, %d hits)\n",
		offD.Round(time.Microsecond), missD.Round(time.Microsecond), hitD.Round(time.Microsecond), rec.HitVsJITOff, hits)
	fmt.Printf("  cold q6              jit-on  %10v   jit-off       %10v   identical=%v\n",
		q6On.Round(time.Microsecond), q6Off.Round(time.Microsecond), rec.Identical)
	if outDir != "" {
		out, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatalE22(err)
		}
		path := filepath.Join(outDir, "BENCH_jitcache.json")
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			fatalE22(err)
		}
		fmt.Printf("       wrote %s\n", path)
	}
}

func fatalE22(err error) {
	fmt.Fprintln(os.Stderr, "advm-bench: E22:", err)
	os.Exit(1)
}
