package difftest

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/advm"
)

// tableDigest hashes every value of every column of the tables. Scans of
// in-RAM tables hand operators views of the tables' own storage, so an
// operator that wrote into its input would change the digest.
func tableDigest(tables ...*advm.Table) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for _, tb := range tables {
		for i := range tb.Schema().Names {
			col := tb.Col(i)
			for r := 0; r < col.Len(); r++ {
				v := col.Get(r)
				binary.LittleEndian.PutUint64(b[0:], uint64(v.I))
				binary.LittleEndian.PutUint64(b[8:], math.Float64bits(v.F))
				b[16] = 0
				if v.B {
					b[16] = 1
				}
				h.Write(b[:])
				h.Write([]byte(v.S))
			}
		}
	}
	return h.Sum64()
}

// execConfig is one execution strategy to pit against the serial CPU
// reference.
type execConfig struct {
	name      string
	workers   int
	morselLen int
	forceHot  bool
}

// configs covers the strategy space: every parallel structure (exchange,
// parallel agg, shared join build), several worker counts and morsel
// granularities, and tiered execution forced hot — WithTierThresholds(1, 1)
// mounts specialized fused loops on the very first execution wherever the
// plan allows, so the fused loops face the same byte-identity bar as
// everything else. par2-hot is the configuration the benchmark runs: fused
// loops on several workers under the parallel aggregation, whose worker
// pipelines lend their chunks.
var configs = []execConfig{
	{"par1", 1, 0, false},
	{"par2", 2, 1024, false},
	{"par3", 3, 2048, false},
	{"par4", 4, 1024, false},
	{"par8", 8, 4096, false},
	{"par8-fine", 8, 512, false},
	{"par1-hot", 1, 0, true},
	{"par2-hot", 2, 1024, true},
	{"par4-hot", 4, 1024, true},
	{"par8-fine-hot", 8, 512, true},
}

// TestDifferential: for a spread of seeds, every execution strategy must
// produce results byte-identical to serial CPU execution. Every other seed
// additionally backs the tables with compressed colstore directories and
// runs the same plan over the disk-backed copies through every strategy —
// the zone-map-pruned, per-segment-decoded scans must reproduce the in-RAM
// serial reference bit for bit.
func TestDifferential(t *testing.T) {
	seeds := int64(24)
	if testing.Short() {
		seeds = 6
	}
	ctx := context.Background()
	var fusedQueries int64
	for seed := int64(1); seed <= seeds; seed++ {
		var c *Case
		var err error
		if seed%2 == 0 {
			c, err = NewCaseStored(seed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
		} else {
			c = NewCase(seed)
		}
		// Every run below must leave the in-RAM tables as generated.
		digest := tableDigest(c.Probe, c.Build)
		checkTables := func(leg string) {
			if tableDigest(c.Probe, c.Build) != digest {
				t.Fatalf("%s [%s]: the run wrote into an in-RAM table", c.Desc, leg)
			}
		}
		// One serial reference per distinct morsel length: result bytes are a
		// function of (plan, data, morsel length) — blocked f64 accumulation
		// is pinned by the morsel boundaries — and must be *independent* of
		// workers and tier. Each reference disables tiering so it is
		// the pure serial interpreter — the forced-hot configs are measured
		// against it, not against themselves.
		refs := map[int][]string{}
		reference := func(morselLen int) ([]string, error) {
			if want, ok := refs[morselLen]; ok {
				return want, nil
			}
			opts := []advm.Option{
				advm.WithParallelism(1),
				advm.WithTieredExecution(false),
			}
			if morselLen > 0 {
				opts = append(opts, advm.WithMorselLen(morselLen))
			}
			ref, err := advm.NewSession(opts...)
			if err != nil {
				return nil, err
			}
			defer ref.Close()
			want, err := Collect(ctx, ref, c.Plan)
			if err != nil {
				return nil, err
			}
			checkTables("serial reference")
			refs[morselLen] = want
			return want, nil
		}
		plans := []struct {
			name string
			plan *advm.Plan
		}{{"ram", c.Plan}}
		if c.StoredPlan != nil {
			plans = append(plans, struct {
				name string
				plan *advm.Plan
			}{"colstore", c.StoredPlan})
		}
		for _, cfg := range configs {
			opts := []advm.Option{
				advm.WithParallelism(cfg.workers),
			}
			if cfg.morselLen > 0 {
				opts = append(opts, advm.WithMorselLen(cfg.morselLen))
			}
			if cfg.forceHot {
				opts = append(opts, advm.WithTierThresholds(1, 1))
			}
			want, err := reference(cfg.morselLen)
			if err != nil {
				t.Fatalf("%s: reference (morsel %d): %v", c.Desc, cfg.morselLen, err)
			}
			sess, err := advm.NewSession(opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, pl := range plans {
				got, err := Collect(ctx, sess, pl.plan)
				if err != nil {
					sess.Close()
					t.Fatalf("%s [%s/%s]: %v", c.Desc, cfg.name, pl.name, err)
				}
				checkTables(cfg.name + "/" + pl.name)
				if len(got) != len(want) {
					sess.Close()
					t.Fatalf("%s [%s/%s]: %d rows, serial produced %d", c.Desc, cfg.name, pl.name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						sess.Close()
						t.Fatalf("%s [%s/%s]: row %d differs\n got: %s\nwant: %s", c.Desc, cfg.name, pl.name, i, got[i], want[i])
					}
				}
			}
			if cfg.forceHot {
				fusedQueries += sess.Stats().FusedQueries
			}
			sess.Close()
		}
		if err := c.Close(); err != nil {
			t.Fatalf("%s: close: %v", c.Desc, err)
		}
	}
	// Not every random plan has a fusable segment, but across the seed spread
	// the forced-hot configs must have actually exercised fused loops — a zero
	// here means the tiered leg silently tested nothing.
	if fusedQueries == 0 {
		t.Fatal("forced-hot configs never mounted a fused loop across all seeds")
	}
}

// TestTemplateWarmEngineIdentical pits a fresh engine against engines that
// stay alive across every seed and so answer later cases' lambdas from the
// JIT template cache: expression traces instantiated from a template that
// was generated for another query, with other constants, must reproduce the
// fresh serial reference byte for byte, at parallelism 1, 4 and 8. Tiering
// is off so every filter and compute runs in an expression VM, and chunks
// are short so those VMs turn hot within one query.
func TestTemplateWarmEngineIdentical(t *testing.T) {
	seeds := int64(16)
	if testing.Short() {
		seeds = 5
	}
	ctx := context.Background()
	common := []advm.Option{
		advm.WithTieredExecution(false),
		advm.WithChunkLen(64),
	}
	workers := []int{1, 4, 8}
	warm := make([]*advm.Engine, len(workers))
	for i, w := range workers {
		eng, err := advm.NewEngine(append([]advm.Option{advm.WithParallelism(w)}, common...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		warm[i] = eng
	}
	for seed := int64(1); seed <= seeds; seed++ {
		c := NewCase(seed)
		digest := tableDigest(c.Probe, c.Build)
		fresh, err := advm.NewSession(append([]advm.Option{advm.WithParallelism(1), advm.WithJIT(false)}, common...)...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Collect(ctx, fresh, c.Plan)
		fresh.Close()
		if err != nil {
			t.Fatalf("%s: reference: %v", c.Desc, err)
		}
		for i, eng := range warm {
			sess, err := eng.Session()
			if err != nil {
				t.Fatal(err)
			}
			// Twice: the second execution finds even this case's own shapes
			// cached and runs traced from its first hot check.
			for pass := 0; pass < 2; pass++ {
				got, err := Collect(ctx, sess, c.Plan)
				if err != nil {
					t.Fatalf("%s [par%d pass %d]: %v", c.Desc, workers[i], pass, err)
				}
				if tableDigest(c.Probe, c.Build) != digest {
					t.Fatalf("%s [par%d pass %d]: the run wrote into an in-RAM table", c.Desc, workers[i], pass)
				}
				if len(got) != len(want) {
					t.Fatalf("%s [par%d pass %d]: %d rows, fresh engine produced %d", c.Desc, workers[i], pass, len(got), len(want))
				}
				for r := range want {
					if got[r] != want[r] {
						t.Fatalf("%s [par%d pass %d]: row %d differs\n got: %s\nwant: %s", c.Desc, workers[i], pass, r, got[r], want[r])
					}
				}
			}
			sess.Close()
		}
	}
	// Not every random plan has a lambda, but across the seeds the warm
	// engines must have served traces from cached templates — zero hits
	// means this leg compared interpreters.
	for i, eng := range warm {
		if st := eng.Stats(); st.JITTemplateHits == 0 || st.JITTemplates == 0 {
			t.Fatalf("par%d engine: %d templates, %d hits; the template cache was never exercised", workers[i], st.JITTemplates, st.JITTemplateHits)
		}
	}
}

// TestTopKTiesDeterminism pins the parallel top-k's tie-breaking contract:
// with a sort key of only five distinct values, almost every comparison is a
// tie, so which rows make the cut is decided entirely by table order — the
// serial stable sort keeps earlier rows ahead of equal later ones. The
// parallel operator selects per-morsel candidates and re-sorts them in
// morsel sequence order, which must resolve every one of those ties exactly
// as the serial pass does: byte identity across parallelism 1/4/8 × morsel
// lengths {small, default}, for both a bare scan→topk and a pipelined
// filter→compute→topk plan.
func TestTopKTiesDeterminism(t *testing.T) {
	ctx := context.Background()
	table := advm.NewTable(advm.NewSchema("s", advm.Str, "v", advm.I64, "x", advm.F64))
	keys := []string{"red", "green", "blue", "teal", "plum"}
	// Seeded LCG so the table is reproducible without pulling in math/rand.
	st := int64(20260807)
	next := func(n int64) int64 {
		st = st*6364136223846793005 + 1442695040888963407
		v := (st >> 33) % n
		if v < 0 {
			v += n
		}
		return v
	}
	for i := 0; i < 30_000; i++ {
		table.AppendRow(
			advm.StrValue(keys[next(int64(len(keys)))]),
			advm.I64Value(int64(i)),
			advm.F64Value(float64(next(1000))/8),
		)
	}
	plans := []struct {
		name string
		plan *advm.Plan
	}{
		// k far larger than the distinct-key count: the cut lands mid-tie.
		{"scan-topk", advm.Scan(table, "s", "v", "x").
			TopK(500, advm.Order{Col: "s"})},
		{"piped-topk", advm.Scan(table, "s", "v", "x").
			Filter(`(\v -> v % 3 != 0)`, "v").
			Compute("y", `(\x -> x * 0.5)`, advm.F64, "x").
			TopK(500, advm.Order{Col: "s", Desc: true}, advm.Order{Col: "y"})},
	}
	for _, pl := range plans {
		for _, morselLen := range []int{257, 0} {
			mkOpts := func(workers int) []advm.Option {
				opts := []advm.Option{
					advm.WithParallelism(workers),
					advm.WithTieredExecution(false),
				}
				if morselLen > 0 {
					opts = append(opts, advm.WithMorselLen(morselLen))
				}
				return opts
			}
			ref, err := advm.NewSession(mkOpts(1)...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Collect(ctx, ref, pl.plan)
			ref.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != 500 {
				t.Fatalf("%s: serial reference has %d rows, want 500", pl.name, len(want))
			}
			for _, workers := range []int{1, 4, 8} {
				sess, err := advm.NewSession(mkOpts(workers)...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Collect(ctx, sess, pl.plan)
				sess.Close()
				if err != nil {
					t.Fatalf("%s [par%d morsel=%d]: %v", pl.name, workers, morselLen, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s [par%d morsel=%d]: %d rows, serial produced %d",
						pl.name, workers, morselLen, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s [par%d morsel=%d]: row %d differs\n got: %s\nwant: %s",
							pl.name, workers, morselLen, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestCaseDeterministic: the generator itself must be a pure function of
// the seed, or failures would not reproduce.
func TestCaseDeterministic(t *testing.T) {
	a, b := NewCase(42), NewCase(42)
	if a.Desc != b.Desc {
		t.Fatalf("same seed, different cases:\n%s\n%s", a.Desc, b.Desc)
	}
	if a.Probe.Rows() != b.Probe.Rows() || a.Build.Rows() != b.Build.Rows() {
		t.Fatal("same seed, different tables")
	}
	ctx := context.Background()
	s1, err := advm.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	r1, err := Collect(ctx, s1, a.Plan)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Collect(ctx, s1, b.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("same seed, different results: %d vs %d rows", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("same seed, row %d differs", i)
		}
	}
}
