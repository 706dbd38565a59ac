package advm_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/advm"
)

// affineProgram is a one-segment program — one compilable fragment — whose
// shape does not depend on its constants.
func affineProgram(mul, add int64) string {
	return fmt.Sprintf("let xs = read 0 data 4096\nlet m = map (\\x -> x * %d + %d) xs\nwrite out 0 m\n", mul, add)
}

func affineBindings() (map[string]*advm.Vector, []int64) {
	data := make([]int64, 4096)
	for i := range data {
		data[i] = int64(i%997 - 400)
	}
	return map[string]*advm.Vector{"data": advm.FromI64(data), "out": advm.NewVector(advm.I64, 0, len(data))}, data
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// TestSameShapeProgramsShareOneTemplate: 16 sessions of one engine prepare 16
// programs that differ only in their constants and run them concurrently.
// The engine generates code once — one template miss, charged the modeled
// latency once — and serves the other 15 programs from that template (or from
// the compile still in flight); every run of every program, interpreted or
// through its trace, matches an engine with the JIT off.
func TestSameShapeProgramsShareOneTemplate(t *testing.T) {
	const n = 16
	eng, err := advm.NewEngine(advm.WithHotThresholds(2, 0), advm.WithMicroAdaptive(false))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref, err := advm.NewEngine(advm.WithJIT(false))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := affineProgram(int64(2+i), int64(1000+13*i))
			sess, err := eng.Session()
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			prep, err := sess.Prepare(src, chunkLoopKinds)
			if err != nil {
				t.Error(err)
				return
			}
			refPrep, err := ref.Prepare(src, chunkLoopKinds)
			if err != nil {
				t.Error(err)
				return
			}
			want, _ := affineBindings()
			if err := refPrep.Run(ctx, want); err != nil {
				t.Error(err)
				return
			}
			// Run until the trace is in, then a few times through it.
			traced := 0
			for run := 0; run < 2000 && traced < 3; run++ {
				got, _ := affineBindings()
				if err := sess.RunPrepared(ctx, prep, got); err != nil {
					t.Error(err)
					return
				}
				if !got["out"].Equal(want["out"]) {
					t.Errorf("program %d run %d differs from the JIT-off engine", i, run)
					return
				}
				if prep.Stats().InjectedTraces > 0 {
					traced++
				} else {
					time.Sleep(time.Millisecond)
				}
			}
			if traced == 0 {
				t.Errorf("program %d never received its trace: %+v", i, prep.Stats().Transitions)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := eng.Stats()
	if st.JITTemplateMisses != 1 || st.JITTemplateHits != n-1 || st.JITTemplates != 1 {
		t.Fatalf("engine stats: %d templates, %d misses, %d hits; want 1, 1, %d",
			st.JITTemplates, st.JITTemplateMisses, st.JITTemplateHits, n-1)
	}
	if st.JITCompileQueueDepth != 0 || st.JITCompilesDropped != 0 {
		t.Fatalf("engine stats: queue depth %d, %d dropped; want an idle service", st.JITCompileQueueDepth, st.JITCompilesDropped)
	}
}

// TestNoCallerWaitsForCodegen: with a 200 ms modeled compile latency, a cold
// Prepared.Run and a cold Session.Query both return in a fraction of it, and
// once the background compile has landed, later executions find the code:
// the program runs through its injected trace and a new query's lambdas —
// with different constants — are template hits.
func TestNoCallerWaitsForCodegen(t *testing.T) {
	const latency = 200 * time.Millisecond
	eng, err := advm.NewEngine(
		advm.WithHotThresholds(2, 0),
		advm.WithMicroAdaptive(false),   // reverting is another test's subject
		advm.WithTieredExecution(false), // keep queries in the expression VMs
		advm.WithJITOptions(advm.JITOptions{CompileLatency: func(int) time.Duration { return latency }}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	prep, err := eng.Prepare(chunkLoopSrc, chunkLoopKinds)
	if err != nil {
		t.Fatal(err)
	}
	runProgram := func() time.Duration {
		bind, want := chunkLoopBindings(1 << 16)
		start := time.Now()
		if err := prep.Run(ctx, bind); err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		for i, got := range bind["out"].I64() {
			if got != want[i] {
				t.Fatalf("out[%d] = %d, want %d", i, got, want[i])
			}
		}
		return d
	}
	if d := runProgram(); d > latency/2 {
		t.Fatalf("cold Prepared.Run took %v with a %v compile latency", d, latency)
	}
	if eng.Stats().JITTemplateMisses == 0 {
		t.Fatal("the cold run requested no code")
	}
	if !waitFor(func() bool { return prep.Stats().InjectedTraces > 0 }) {
		t.Fatalf("trace never injected: %+v", prep.Stats().Transitions)
	}
	runProgram()
	if st := prep.Stats(); len(st.CompiledSegments) == 0 || st.TemplateMisses == 0 {
		t.Fatalf("later run not compiled: %+v", st)
	}

	table := closeTestTable(64 << 10)
	sess, err := eng.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	query := func(limit int64) (time.Duration, int) {
		plan := advm.Scan(table, "k", "v").
			Filter(fmt.Sprintf(`(\k -> k < %d)`, limit), "k").
			Compute("w", fmt.Sprintf(`(\v -> v * %d + 1)`, limit), advm.I64, "v")
		start := time.Now()
		rows, err := sess.Query(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start), n
	}
	before := eng.Stats()
	d, n := query(500)
	if d > latency/2 {
		t.Fatalf("cold Session.Query took %v with a %v compile latency", d, latency)
	}
	if want := (64 << 10) / 1000 * 500; n < want {
		t.Fatalf("query returned %d rows, want at least %d", n, want)
	}
	if eng.Stats().JITTemplateMisses == before.JITTemplateMisses {
		t.Fatal("the cold query's lambdas requested no code")
	}
	// The query is over before its lambdas' code is ready, so the service
	// may have skipped some of it in favour of what was queued behind. Keep
	// asking until a query of this shape starts no compile.
	learned := waitFor(func() bool {
		before := eng.Stats()
		query(600)
		for eng.Stats().JITCompileQueueDepth > 0 {
			time.Sleep(time.Millisecond)
		}
		after := eng.Stats()
		return after.JITTemplateMisses == before.JITTemplateMisses && after.JITCompilesDropped == before.JITCompilesDropped
	})
	if !learned {
		t.Fatalf("the engine never learned the query's lambda shapes: %+v", eng.Stats())
	}
	warm := eng.Stats()
	if d, _ := query(700); d > latency/2 {
		t.Fatalf("warm Session.Query took %v", d)
	}
	if after := eng.Stats(); after.JITTemplateHits == warm.JITTemplateHits || after.JITTemplateMisses != warm.JITTemplateMisses {
		t.Fatalf("a query differing only in constants: hits %d→%d, misses %d→%d; want hits only",
			warm.JITTemplateHits, after.JITTemplateHits, warm.JITTemplateMisses, after.JITTemplateMisses)
	}
}

// TestCompileServiceShutdownLeaksNothing fences runtime.NumGoroutine around
// engines that die with code generation in flight: closed mid-compile, and
// churned past the prepared-statement cache's bound so evicted programs'
// queued compiles are dropped instead of generated.
func TestCompileServiceShutdownLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx := context.Background()
	slow := advm.WithJITOptions(advm.JITOptions{CompileLatency: func(int) time.Duration { return 50 * time.Millisecond }})

	for iter := 0; iter < 3; iter++ {
		eng, err := advm.NewEngine(advm.WithHotThresholds(1, 0), slow)
		if err != nil {
			t.Fatal(err)
		}
		// 300 programs through a 256-entry cache, each of its own shape (a
		// chain of i maps) so each queues its own compile behind a 50 ms
		// one: evictions close VMs whose compiles are still queued.
		for i := 0; i < 300; i++ {
			src := "let xs = read 0 data 4096\nlet m0 = map (\\x -> x + 1) xs\n"
			for j := 1; j <= i%12; j++ {
				src += fmt.Sprintf("let m%d = map (\\x -> x %s 3) m%d\n", j, []string{"+", "*", "-"}[(i/12+j)%3], j-1)
			}
			src += fmt.Sprintf("write out 0 (map (\\x -> x + %d) m%d)\n", i+2, i%12)
			prep, err := eng.Prepare(src, chunkLoopKinds)
			if err != nil {
				t.Fatal(err)
			}
			bind, _ := affineBindings()
			if err := prep.Run(ctx, bind); err != nil {
				t.Fatal(err)
			}
		}
		st := eng.Stats()
		if st.CacheEvictions == 0 || st.JITCompileQueueDepth == 0 {
			t.Fatalf("iteration %d: %d evictions, queue depth %d; the test needs both", iter, st.CacheEvictions, st.JITCompileQueueDepth)
		}
		start := time.Now()
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("Engine.Close took %v with compiles in flight", d)
		}
		if st := eng.Stats(); st.JITCompilesDropped == 0 || st.JITCompileQueueDepth != 0 {
			t.Fatalf("after Close: %d dropped, queue depth %d; want the backlog dropped", st.JITCompilesDropped, st.JITCompileQueueDepth)
		}
	}

	const slack = 3
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > before+slack && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > before+slack {
		t.Fatalf("goroutines: %d before, %d after three engines closed mid-compile (slack %d)", before, n, slack)
	}
}
