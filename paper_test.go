package repro

// Tests of the paper's qualitative claims, asserted on quantities the engine
// counts rather than on timings, so they hold on any host — except where
// the claim is about time (E2), which is asserted as a wide ratio and
// skipped under -short and -race. Each uses the data of the matching
// BenchmarkExp* in bench_test.go, which prices the same claim under
// `go test -bench`.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/vector"
)

// sameStore reports whether a and b hold the same columns and values.
func sameStore(a, b *vector.DSMStore) bool {
	if a.Rows() != b.Rows() || len(a.Schema().Names) != len(b.Schema().Names) {
		return false
	}
	for i, name := range a.Schema().Names {
		if b.Schema().Names[i] != name || !a.Col(i).Equal(b.Col(i)) {
			return false
		}
	}
	return true
}

// TestPaperE2ShortVsLong: with code generation priced by the paper's latency
// model, compiling is a loss for a short program — it is over before its
// traces can win the latency back — and a win for a long one. Each side is
// the fastest of three interleaved trials; the short program must lose by
// at least 2×.
func TestPaperE2ShortVsLong(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing claim: skipped under -short and -race")
	}
	best := map[bool]map[int]time.Duration{false: {}, true: {}}
	for trial := 0; trial < 3; trial++ {
		for _, rows := range []int{1 << 12, 1 << 20} {
			for _, jit := range []bool{false, true} {
				sess, ext := e2Session(t, rows, jit)
				start := time.Now()
				e2Run(t, sess, ext)
				d := time.Since(start)
				if jit && sess.Stats().InjectedTraces == 0 {
					t.Fatalf("%d rows: the JIT injected no trace", rows)
				}
				if b, ok := best[jit][rows]; !ok || d < b {
					best[jit][rows] = d
				}
			}
		}
	}
	t.Logf("interpreter / JIT with compile cost: 4 096 rows %v / %v, 1M rows %v / %v",
		best[false][1<<12], best[true][1<<12], best[false][1<<20], best[true][1<<20])
	if short := 1 << 12; best[true][short] < 2*best[false][short] {
		t.Errorf("%d rows: JIT with compile cost %v, interpreter %v; want the JIT at least 2× slower",
			short, best[true][short], best[false][short])
	}
	if long := 1 << 20; best[true][long] >= best[false][long] {
		t.Errorf("%d rows: JIT with compile cost %v, interpreter %v; want the JIT faster",
			long, best[true][long], best[false][long])
	}
}

// TestPaperE3Selectivity: adaptive compute evaluates selectively — over the
// condensed survivors — while a filter keeps few rows, in full — over every
// row, selection kept — while it keeps nearly all, and switches back and
// forth around the midpoint. Every flavor returns the same rows.
func TestPaperE3Selectivity(t *testing.T) {
	st := e3Table()
	chunks := st.Rows() / vector.DefaultChunkLen
	for _, c := range []struct {
		sel      int64
		shareMin float64 // bounds on the share of chunks evaluated in full
		shareMax float64
	}{
		{10, 0, 0.01},
		{500, 0.25, 0.75},
		{990, 0.99, 1},
	} {
		t.Run(fmt.Sprintf("sel=%.2f", float64(c.sel)/1000), func(t *testing.T) {
			var want *vector.DSMStore
			for _, mode := range []engine.EvalMode{engine.EvalFull, engine.EvalSelective, engine.EvalAdaptive} {
				cmp := e3Pipeline(st, c.sel, mode)
				got, err := engine.Collect(t.Context(), cmp)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if !sameStore(got, want) {
					t.Fatalf("%v evaluation returns different rows than full", mode)
				}
				if cmp.FullEvals+cmp.SelectiveEvals != chunks {
					t.Fatalf("%v: %d full + %d selective evaluations, want %d chunks",
						mode, cmp.FullEvals, cmp.SelectiveEvals, chunks)
				}
				if mode != engine.EvalAdaptive {
					continue
				}
				t.Logf("adaptive: %d full, %d selective of %d chunks", cmp.FullEvals, cmp.SelectiveEvals, chunks)
				if share := float64(cmp.FullEvals) / float64(chunks); share < c.shareMin || share > c.shareMax {
					t.Fatalf("adaptive: %d of %d chunks in full, want a share in [%.2f, %.2f]",
						cmp.FullEvals, chunks, c.shareMin, c.shareMax)
				}
			}
		})
	}
}

// TestPaperE4Reorder: with the selective predicate placed second, the static
// chain applies the first predicate to every row and the second to the
// ~90 % it keeps; the adaptive chain swaps them once, early, and then applies
// little more than one predicate per row. Both return the same rows.
func TestPaperE4Reorder(t *testing.T) {
	st := e4Table()
	rows := int64(st.Rows())
	static, adaptive := e4Chain(st, false), e4Chain(st, true)
	want, err := engine.Collect(t.Context(), static)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.Collect(t.Context(), adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if !sameStore(got, want) {
		t.Fatal("the adaptive chain returns different rows than the static one")
	}
	for _, c := range []struct {
		name     string
		ch       *engine.AdaptiveChain
		reorders int64
		order    string
		appsLo   float64 // bounds on applications per row
		appsHi   float64
	}{
		{"static", static, 0, "[0 1]", 1.8, 2},
		{"adaptive", adaptive, 1, "[1 0]", 1, 1.1},
	} {
		perRow := float64(c.ch.Applications) / float64(rows)
		t.Logf("%s: %d applications over %d rows, %d reorders, order %v",
			c.name, c.ch.Applications, rows, c.ch.Reorders, c.ch.Order())
		if c.ch.Reorders != c.reorders || fmt.Sprint(c.ch.Order()) != c.order {
			t.Fatalf("%s: %d reorders ending in order %v, want %d ending in %s",
				c.name, c.ch.Reorders, c.ch.Order(), c.reorders, c.order)
		}
		if perRow < c.appsLo || perRow > c.appsHi {
			t.Fatalf("%s: %.3f predicate applications per row, want %.1f–%.1f", c.name, perRow, c.appsLo, c.appsHi)
		}
	}
}

// TestPaperE12Bloom: the adaptive join keeps consulting its Bloom filter
// while most probes miss the build side, and stops after the first chunk
// when most probes hit. Every mode returns the same rows.
func TestPaperE12Bloom(t *testing.T) {
	dim := e12Dim()
	for _, c := range []struct {
		name      string
		fact      *vector.DSMStore
		bloomKept bool // whether adaptive mode keeps the filter throughout
	}{
		{"selective", e12Fact(100_000), true},
		{"dense", e12Fact(1_000), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			probes := int64(c.fact.Rows())
			var want *vector.DSMStore
			for _, m := range []struct {
				name string
				mode engine.BloomMode
			}{{"on", engine.BloomOn}, {"off", engine.BloomOff}, {"adaptive", engine.BloomAdaptive}} {
				probe, _ := engine.NewScan(c.fact, "fk")
				build, _ := engine.NewScan(dim, "k")
				j := engine.NewHashJoin(probe, build, "fk", "k").SetBloom(m.mode)
				got, err := engine.Collect(t.Context(), j)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if !sameStore(got, want) {
					t.Fatalf("Bloom %s returns different rows than Bloom on", m.name)
				}
				lo, hi := probes, probes // the filter is consulted on every probe
				switch {
				case m.mode == engine.BloomOff:
					lo, hi = 0, 0
				case m.mode == engine.BloomAdaptive && !c.bloomKept:
					lo, hi = 1, vector.DefaultChunkLen // only on the first chunk
				}
				t.Logf("Bloom %s: %d Bloom checks of %d probes", m.name, j.BloomChecks, j.Probes)
				if j.Probes != probes || j.BloomChecks < lo || j.BloomChecks > hi {
					t.Fatalf("Bloom %s: %d Bloom checks of %d probes, want %d–%d checks of %d",
						m.name, j.BloomChecks, j.Probes, lo, hi, probes)
				}
			}
		})
	}
}

// TestPaperE13PreAgg: adaptive pre-aggregation stays on when a few groups
// absorb nearly every row, and turns off after the first chunk when the
// groups are too many for its cache. Every mode returns the same groups.
func TestPaperE13PreAgg(t *testing.T) {
	for _, c := range []struct {
		name       string
		st         *vector.DSMStore
		preAggKept bool // whether adaptive mode pre-aggregates throughout
	}{
		{"8 groups", e13Table(8), true},
		{"200000 groups", e13Table(200_000), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			rows := int64(c.st.Rows())
			var want *vector.DSMStore
			for _, m := range []struct {
				name string
				mode engine.PreAggMode
			}{{"on", engine.PreAggOn}, {"off", engine.PreAggOff}, {"adaptive", engine.PreAggAdaptive}} {
				scan, _ := engine.NewScan(c.st, "k", "v")
				agg := engine.NewHashAgg(scan, []string{"k"}, []engine.Aggregate{
					{Func: engine.AggSum, Col: "v", As: "s"},
				}).SetPreAgg(m.mode)
				got, err := engine.Collect(t.Context(), agg)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if !sameStore(got, want) {
					t.Fatalf("pre-aggregation %s returns different groups than pre-aggregation on", m.name)
				}
				lo, hi := rows, rows // every row meets the pre-aggregation cache
				switch {
				case m.mode == engine.PreAggOff:
					lo, hi = 0, 0
				case m.mode == engine.PreAggAdaptive && !c.preAggKept:
					lo, hi = 1, vector.DefaultChunkLen // only the first chunk's rows
				}
				seen := agg.PreAggHits + agg.PreAggMisses
				t.Logf("pre-aggregation %s: %d hits, %d misses over %d rows", m.name, agg.PreAggHits, agg.PreAggMisses, rows)
				if seen < lo || seen > hi {
					t.Fatalf("pre-aggregation %s: %d of %d rows met the cache, want %d–%d", m.name, seen, rows, lo, hi)
				}
				if m.mode == engine.PreAggAdaptive && c.preAggKept && 100*agg.PreAggHits < 99*rows {
					t.Fatalf("adaptive: %d hits over %d rows, want ≥ 99%% hits", agg.PreAggHits, rows)
				}
			}
		})
	}
}

// e6Crossover places kernels of 2^8 … 2^26 elements (e6Kernel, ops per
// element) with placer, whose GPU is g, and returns the smallest exponent
// from which every kernel goes to the GPU; 0 when none does. resident makes
// each kernel's input resident on g first. Placement must switch at most
// once: a kernel never goes back to the CPU as it grows.
func e6Crossover(t *testing.T, placer *device.Placer, g *gpu.Device, ops float64, resident bool) int {
	t.Helper()
	cross := 0
	for e := 8; e <= 26; e++ {
		name := fmt.Sprintf("e6/ops=%v/resident=%v/2^%d", ops, resident, e)
		k := e6Kernel(name, 1<<e, ops)
		if resident {
			g.MakeResident(name, k.BytesIn)
		}
		onGPU := placer.Choose(k).Name() == "gpu"
		switch {
		case onGPU && cross == 0:
			cross = e
		case !onGPU && cross != 0:
			t.Fatalf("ops=%v resident=%v: 2^%d elements back on the cpu after the gpu took 2^%d",
				ops, resident, e, cross)
		}
	}
	return cross
}

// e6Name renders an e6Crossover result.
func e6Name(cross int) string {
	if cross == 0 {
		return "never"
	}
	return fmt.Sprintf("2^%d", cross)
}

// TestPaperE6Placement: the placement model sends small kernels to the CPU
// whatever their residency, keeps a cheap kernel off the GPU while its data
// has to cross PCIe, and places it there once the data is resident; more
// arithmetic per element moves both crossovers earlier, residency still
// first; and a GPU observed slower than modeled pushes the crossover later.
// The GPU is simulated, so the claim is asserted on the model's decisions,
// not on timings.
func TestPaperE6Placement(t *testing.T) {
	fresh := func() (*device.Placer, *gpu.Device) {
		g := gpu.New(gpu.DefaultConfig())
		return device.NewPlacer(device.NewCPU(), g), g
	}
	for _, resident := range []bool{false, true} {
		placer, g := fresh()
		k := e6Kernel(fmt.Sprintf("e6/small/resident=%v", resident), 256, 1)
		if resident {
			g.MakeResident(k.Name, k.BytesIn)
		}
		if d := placer.Choose(k).Name(); d != "cpu" {
			t.Errorf("256 elements, resident=%v: placed on %s, want cpu", resident, d)
		}
	}

	cross := func(ops float64, resident bool) int {
		placer, g := fresh()
		return e6Crossover(t, placer, g, ops, resident)
	}
	if c := cross(1, false); c != 0 {
		t.Errorf("ops=1, cold: crossover %s, want never up to 2^26", e6Name(c))
	}
	residentCross := cross(1, true)
	if residentCross != 15 {
		t.Errorf("ops=1, resident: crossover %s, want 2^15", e6Name(residentCross))
	}
	cold2, resident2 := cross(2, false), cross(2, true)
	if cold2 != 13 || resident2 != 12 {
		t.Errorf("ops=2: crossovers cold %s, resident %s, want 2^13 and 2^12", e6Name(cold2), e6Name(resident2))
	}

	placer, g := fresh()
	placer.ObserveForTest("gpu", 1.2) // the GPU ran 1.2× slower than modeled
	if c := e6Crossover(t, placer, g, 1, true); c == 0 || c <= residentCross {
		t.Errorf("after a slow gpu observation the resident crossover is %s, want a later one than %s",
			e6Name(c), e6Name(residentCross))
	}
}
