package advm_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

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

// TestSameShapeProgramsShareOneTemplate: 16 sessions of one engine prepare 16
// programs that differ only in their constants and run them concurrently.
// The engine generates code once — one template miss — and serves the other
// 15 programs from that template; every run of every program, interpreted or
// through its trace, matches an engine with the JIT off.
func TestSameShapeProgramsShareOneTemplate(t *testing.T) {
	const n = 16
	eng, err := advm.NewEngine(advm.WithHotThresholds(2, 0))
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
			for run := 0; run < 20 && traced < 3; run++ {
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
}

// TestJITCountersPriceBuildAndBind: the engine's real compile counters. A
// template miss adds to the build time, a hit only to the bind time, and an
// engine with the JIT off generates and binds nothing.
func TestJITCountersPriceBuildAndBind(t *testing.T) {
	ctx := context.Background()
	eng, err := advm.NewEngine(advm.WithHotThresholds(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	run := func(eng *advm.Engine, src string) {
		t.Helper()
		prep, err := eng.Prepare(src, chunkLoopKinds)
		if err != nil {
			t.Fatal(err)
		}
		bind, _ := affineBindings()
		if err := prep.Run(ctx, bind); err != nil {
			t.Fatal(err)
		}
	}
	run(eng, affineProgram(3, 4))
	miss := eng.Stats()
	if miss.JITTemplateMisses != 1 || miss.JITBuildNanos <= 0 || miss.JITBindNanos <= 0 {
		t.Fatalf("after a miss: %d misses, build %dns, bind %dns; want 1 miss and both counters grown",
			miss.JITTemplateMisses, miss.JITBuildNanos, miss.JITBindNanos)
	}
	run(eng, affineProgram(5, 6))
	hit := eng.Stats()
	if hit.JITTemplateHits != miss.JITTemplateHits+1 || hit.JITBuildNanos != miss.JITBuildNanos || hit.JITBindNanos <= miss.JITBindNanos {
		t.Fatalf("after a hit: hits %d→%d, build %d→%dns, bind %d→%dns; want one hit and only the bind counter grown",
			miss.JITTemplateHits, hit.JITTemplateHits, miss.JITBuildNanos, hit.JITBuildNanos, miss.JITBindNanos, hit.JITBindNanos)
	}

	off, err := advm.NewEngine(advm.WithJIT(false))
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	for i := 0; i < 4; i++ {
		run(off, affineProgram(3, 4))
	}
	sess, err := off.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	table := closeTestTable(4096)
	for i := 0; i < 20; i++ {
		rows, err := sess.Query(ctx, advm.Scan(table, "k", "v").
			Compute("w", `(\v -> v * 3 + 1)`, advm.I64, "v"))
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if st := off.Stats(); st.JITBuildNanos != 0 || st.JITBindNanos != 0 || st.JITTemplateMisses+st.JITTemplateHits != 0 {
		t.Fatalf("JIT off: build %dns, bind %dns, %d misses, %d hits; want all 0",
			st.JITBuildNanos, st.JITBindNanos, st.JITTemplateMisses, st.JITTemplateHits)
	}
}
