package advm_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/advm"
	"repro/internal/tpch"
)

// hotEngine returns an engine whose prepared programs compile quickly and
// deterministically.
func hotEngine(t *testing.T, opts ...advm.Option) *advm.Engine {
	t.Helper()
	eng, err := advm.NewEngine(append([]advm.Option{
		advm.WithHotThresholds(2, 200*time.Microsecond),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestPrepareCacheSharesVM: preparing the same program twice — even under a
// different spelling — must resolve to one shared VM, observable through the
// cache counters and through run counts aggregating across handles.
func TestPrepareCacheSharesVM(t *testing.T) {
	eng := hotEngine(t)
	defer eng.Close()

	p1, err := eng.Prepare(chunkLoopSrc, chunkLoopKinds)
	if err != nil {
		t.Fatal(err)
	}
	respelled := `
mut pos
pos := 0
loop {
  let batch = read pos data
  if len(batch) == 0 then break
  let mapped = map (\y -> (y * 3 + 7) * (y - 1)) batch
  write out pos mapped
  pos := pos + len(batch)
}
`
	p2, err := eng.Prepare(respelled, chunkLoopKinds)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Fatalf("fingerprints differ:\n%s\n%s", p1.Fingerprint(), p2.Fingerprint())
	}
	st := eng.Stats()
	if st.Prepares != 2 || st.CacheHits != 1 || st.PreparedPrograms != 1 {
		t.Fatalf("cache stats = %+v, want 2 prepares, 1 hit, 1 program", st)
	}

	// Runs through either handle land on the same shared VM.
	bind, _ := chunkLoopBindings(1 << 12)
	if err := p1.Run(context.Background(), bind); err != nil {
		t.Fatal(err)
	}
	bind2, _ := chunkLoopBindings(1 << 12)
	if err := p2.Run(context.Background(), bind2); err != nil {
		t.Fatal(err)
	}
	if got := p1.Stats().Runs; got != 2 {
		t.Fatalf("shared run count = %d, want 2 (both handles drive one VM)", got)
	}
}

// TestConcurrentSharedPreparedStress is the acceptance stress test: N
// goroutines across two sessions hammer one prepared plan under -race. The
// shared VM must compile exactly one set of traces (no per-session
// re-learning), and every result must match the serial baseline.
func TestConcurrentSharedPreparedStress(t *testing.T) {
	eng := hotEngine(t)
	defer eng.Close()

	prep, err := eng.Prepare(chunkLoopSrc, chunkLoopKinds)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := eng.Session()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.Session()
	if err != nil {
		t.Fatal(err)
	}

	const n = 1 << 12
	_, want := chunkLoopBindings(n)

	const goroutines = 8
	const runsEach = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		sess := s1
		if g%2 == 1 {
			sess = s2
		}
		wg.Add(1)
		go func(sess *advm.Session) {
			defer wg.Done()
			for r := 0; r < runsEach; r++ {
				bind, _ := chunkLoopBindings(n)
				if err := sess.RunPrepared(context.Background(), prep, bind); err != nil {
					errs <- err
					return
				}
				got := bind["out"].I64()
				if len(got) != n {
					errs <- fmt.Errorf("out length %d, want %d", len(got), n)
					return
				}
				for i := range want {
					if got[i] != want[i] {
						errs <- fmt.Errorf("out[%d] = %d, want %d", i, got[i], want[i])
						return
					}
				}
			}
		}(sess)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := prep.Stats()
	if st.Runs != goroutines*runsEach {
		t.Fatalf("shared Runs = %d, want %d", st.Runs, goroutines*runsEach)
	}
	if st.InjectedTraces == 0 {
		t.Fatal("shared VM never compiled — adaptivity was not exercised")
	}
	// One shared VM ⇒ one set of traces for the single hot segment, not one
	// per session or per goroutine. (A micro-adaptive revert+respecialize
	// could legitimately add a second injection; per-user re-learning would
	// show ≥ goroutines of them.)
	if st.InjectedTraces >= goroutines {
		t.Fatalf("InjectedTraces = %d — looks like per-user re-learning, want shared traces", st.InjectedTraces)
	}
	if s1.Stats().Runs+s2.Stats().Runs != goroutines*runsEach {
		t.Fatalf("session run accounting: %d + %d", s1.Stats().Runs, s2.Stats().Runs)
	}
}

// TestSessionAndEngineClose: the ErrClosed taxonomy.
func TestSessionAndEngineClose(t *testing.T) {
	eng := hotEngine(t)
	sess, err := eng.Session()
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(chunkLoopSrc, chunkLoopKinds)
	if err != nil {
		t.Fatal(err)
	}

	// Closing a shared session leaves the engine usable.
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	bind, _ := chunkLoopBindings(64)
	if err := sess.RunPrepared(context.Background(), prep, bind); !errors.Is(err, advm.ErrClosed) {
		t.Fatalf("RunPrepared on closed session = %v, want ErrClosed", err)
	}
	if _, err := sess.Query(context.Background(), advm.Scan(advm.NewTable(advm.NewSchema("k", advm.I64)), "k")); !errors.Is(err, advm.ErrClosed) {
		t.Fatalf("Query on closed session = %v, want ErrClosed", err)
	}
	if _, err := sess.Prepare(chunkLoopSrc, chunkLoopKinds); !errors.Is(err, advm.ErrClosed) {
		t.Fatalf("Prepare on closed session = %v, want ErrClosed", err)
	}
	if err := prep.Run(context.Background(), bind); err != nil {
		t.Fatalf("prepared program must outlive a shared session: %v", err)
	}

	// Closing the engine shuts everything down.
	s2, err := eng.Session()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(context.Background(), bind); !errors.Is(err, advm.ErrClosed) {
		t.Fatalf("Run on session of closed engine = %v, want ErrClosed", err)
	}
	if err := prep.Run(context.Background(), bind); !errors.Is(err, advm.ErrClosed) {
		t.Fatalf("Run on prepared of closed engine = %v, want ErrClosed", err)
	}
	if _, err := eng.Session(); !errors.Is(err, advm.ErrClosed) {
		t.Fatalf("Session on closed engine = %v, want ErrClosed", err)
	}
	if _, err := eng.Prepare(chunkLoopSrc, chunkLoopKinds); !errors.Is(err, advm.ErrClosed) {
		t.Fatalf("Prepare on closed engine = %v, want ErrClosed", err)
	}
}

// TestStandaloneSessionCloseReleasesEngine: Compile/NewSession sessions own
// a private engine; closing the session closes it.
func TestStandaloneSessionCloseReleasesEngine(t *testing.T) {
	sess := advm.MustCompile(chunkLoopSrc, chunkLoopKinds)
	bind, _ := chunkLoopBindings(64)
	if err := sess.Run(context.Background(), bind); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(context.Background(), bind); !errors.Is(err, advm.ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
	if _, err := sess.Engine().Session(); !errors.Is(err, advm.ErrClosed) {
		t.Fatalf("private engine must close with its session, got %v", err)
	}
}

// q1Plan / q6Plan are the shared reference plans over the public builder.
func q1Plan(st *advm.Table) *advm.Plan { return tpch.PlanQ1(st) }

func q6Plan(st *advm.Table) *advm.Plan { return tpch.PlanQ6(st, tpch.DefaultQ6Params()) }

// collectRows materializes a query result as scanned values.
func collectRows(t *testing.T, sess *advm.Session, plan *advm.Plan) [][]advm.Value {
	t.Helper()
	rows, err := sess.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var out [][]advm.Value
	n := len(rows.Columns())
	for rows.Next() {
		row := make([]advm.Value, n)
		dests := make([]any, n)
		for i := range row {
			dests[i] = &row[i]
		}
		if err := rows.Scan(dests...); err != nil {
			t.Fatal(err)
		}
		out = append(out, row)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParallelQueryByteIdentical is the acceptance criterion: Q1 and Q6
// under WithParallelism(4) must produce byte-identical results to serial
// execution — float aggregates included, because the exchange preserves
// table order.
func TestParallelQueryByteIdentical(t *testing.T) {
	st := tpch.GenLineitem(0.01, 42)
	// Engine-level parallelism sizes the worker pool, so the fan-out is
	// granted even on a single-core host.
	eng := hotEngine(t, advm.WithParallelism(4))
	defer eng.Close()
	serial, err := eng.Session(advm.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := eng.Session(advm.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}

	for name, plan := range map[string]*advm.Plan{"q1": q1Plan(st), "q6": q6Plan(st)} {
		want := collectRows(t, serial, plan)
		got := collectRows(t, parallel, plan)
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("%s: %d rows parallel vs %d serial", name, len(got), len(want))
		}
		for i := range want {
			for c := range want[i] {
				w, g := want[i][c], got[i][c]
				if w.Kind == advm.F64 {
					if math.Float64bits(w.F) != math.Float64bits(g.F) {
						t.Fatalf("%s row %d col %d: %v vs %v (must be bit-identical)", name, i, c, g.F, w.F)
					}
				} else if !g.Equal(w) {
					t.Fatalf("%s row %d col %d: %v vs %v", name, i, c, g, w)
				}
			}
		}
	}
	if ps := eng.Stats().ParallelQueries; ps != 2 {
		t.Fatalf("ParallelQueries = %d, want 2", ps)
	}
	if use := eng.Stats().PoolInUse; use != 0 {
		t.Fatalf("workers leaked: PoolInUse = %d after queries closed", use)
	}
}

// TestParallelQueryConcurrentSessions: many sessions running parallel
// queries against one engine pool must all succeed (degrading to fewer
// workers under contention) and return the pool to empty.
func TestParallelQueryConcurrentSessions(t *testing.T) {
	st := tpch.GenLineitem(0.005, 7)
	eng := hotEngine(t, advm.WithParallelism(4))
	defer eng.Close()
	serial, err := eng.Session(advm.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	want := collectRows(t, serial, q6Plan(st))

	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := eng.Session()
			if err != nil {
				errs <- err
				return
			}
			rows, err := sess.Query(context.Background(), q6Plan(st))
			if err != nil {
				errs <- err
				return
			}
			defer rows.Close()
			if !rows.Next() {
				errs <- fmt.Errorf("no result row: %v", rows.Err())
				return
			}
			var rev float64
			if err := rows.Scan(&rev); err != nil {
				errs <- err
				return
			}
			if math.Float64bits(rev) != math.Float64bits(want[0][0].F) {
				errs <- fmt.Errorf("revenue %v, want %v", rev, want[0][0].F)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if use := eng.Stats().PoolInUse; use != 0 {
		t.Fatalf("workers leaked: PoolInUse = %d", use)
	}
}

// TestParallelQueryCancellation: cancelling mid-stream surfaces
// ErrCancelled and releases pooled workers.
func TestParallelQueryCancellation(t *testing.T) {
	st := tpch.GenLineitem(0.02, 9)
	eng := hotEngine(t, advm.WithParallelism(4))
	defer eng.Close()
	sess, err := eng.Session(advm.WithChunkLen(256))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := sess.Query(ctx, advm.Scan(st, "l_quantity").
		Compute("q2", `(\q -> q * q)`, advm.I64, "l_quantity"))
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("first row: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, advm.ErrCancelled) {
		t.Fatalf("Err after cancel = %v, want ErrCancelled", err)
	}
	rows.Close()
	if use := eng.Stats().PoolInUse; use != 0 {
		t.Fatalf("workers leaked after cancellation: PoolInUse = %d", use)
	}
}

// TestPrepareCacheBounded: a workload of endlessly distinct programs must
// recycle cache slots (LRU) instead of growing without bound, and evicted
// handles must stay usable.
func TestPrepareCacheBounded(t *testing.T) {
	eng, err := advm.NewEngine(advm.WithJIT(false))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	kinds := map[string]advm.Kind{"data": advm.I64, "out": advm.I64}
	first, err := eng.Prepare(`write out 0 (map (\x -> x + 0) (read 0 data 4))`, kinds)
	if err != nil {
		t.Fatal(err)
	}
	const distinct = 300
	for i := 1; i < distinct; i++ {
		src := fmt.Sprintf(`write out 0 (map (\x -> x + %d) (read 0 data 4))`, i)
		if _, err := eng.Prepare(src, kinds); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.PreparedPrograms >= distinct {
		t.Fatalf("cache grew unbounded: %d programs", st.PreparedPrograms)
	}
	if st.CacheEvictions == 0 || st.PreparedPrograms+int(st.CacheEvictions) != distinct {
		t.Fatalf("eviction accounting: programs=%d evictions=%d", st.PreparedPrograms, st.CacheEvictions)
	}
	// The evicted handle keeps working; only cache unification is lost.
	out := advm.NewVector(advm.I64, 0, 4)
	if err := first.Run(context.Background(), map[string]*advm.Vector{
		"data": advm.FromI64([]int64{1, 2, 3, 4}), "out": out,
	}); err != nil {
		t.Fatal(err)
	}
	if got := out.I64(); len(got) != 4 || got[0] != 1 {
		t.Fatalf("evicted prepared produced %v", got)
	}
}

// TestWithParallelismValidation: the knob rejects nonsense.
func TestWithParallelismValidation(t *testing.T) {
	if _, err := advm.NewEngine(advm.WithParallelism(0)); !errors.Is(err, advm.ErrBind) {
		t.Fatalf("WithParallelism(0) = %v, want ErrBind", err)
	}
}
