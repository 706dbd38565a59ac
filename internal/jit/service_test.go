package jit

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/depgraph"
	"repro/internal/dsl"
	"repro/internal/interp"
	"repro/internal/nir"
	"repro/internal/vector"
)

// affineSrc is a one-segment, one-fragment program whose shape does not
// depend on its constants (kept above 1 so the normalizer has nothing to
// simplify away).
func affineSrc(mul, add int64) string {
	return fmt.Sprintf("let xs = read 0 data 512\nlet m = map (\\x -> x * %d + %d) xs\nwrite out 0 m\n", mul, add)
}

// fragmentOf normalizes src and partitions its only segment, which must
// yield exactly one fragment.
func fragmentOf(t testing.TB, src string) (*nir.Program, *interp.Interpreter, *depgraph.Graph, []depgraph.Unit) {
	t.Helper()
	np, err := nir.Normalize(dsl.MustParse(src), map[string]vector.Kind{"data": vector.I64, "out": vector.I64})
	if err != nil {
		t.Fatal(err)
	}
	it := interp.New(np)
	if len(it.Segments) != 1 {
		t.Fatalf("want a one-segment program, got %d segments", len(it.Segments))
	}
	g := depgraph.Build(it.Segments[0].Instrs, nil)
	frags := depgraph.Partition(g, depgraph.DefaultConstraints())
	if len(frags) != 1 {
		t.Fatalf("want one fragment, got %d", len(frags))
	}
	units, err := depgraph.Schedule(g, frags)
	if err != nil {
		t.Fatal(err)
	}
	return np, it, g, units
}

func requestFor(np *nir.Program, g *depgraph.Graph, units []depgraph.Unit, opt Options) Request {
	req := Request{Prog: np, Graph: g, Opt: opt}
	for _, u := range units {
		if u.Fragment != nil {
			req.Frags = append(req.Frags, u.Fragment)
		}
	}
	return req
}

// runWith installs traces into the program's plan and runs it over 0..511.
func runWith(t testing.TB, np *nir.Program, it *interp.Interpreter, units []depgraph.Unit, traces []*Trace) []int64 {
	t.Helper()
	var steps []interp.Step
	next := 0
	for _, u := range units {
		if u.Fragment == nil {
			steps = append(steps, &interp.InstrStep{In: it.Segments[0].Instrs[u.Node]})
			continue
		}
		steps = append(steps, traces[next])
		next++
	}
	if err := it.InstallPlan(0, &interp.Plan{Steps: steps}); err != nil {
		t.Fatal(err)
	}
	data := make([]int64, 512)
	for i := range data {
		data[i] = int64(i) - 256
	}
	ext := map[string]*vector.Vector{"data": vector.FromI64(data), "out": vector.New(vector.I64, 0, 512)}
	env, err := interp.NewEnv(np, ext)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Run(env); err != nil {
		t.Fatal(err)
	}
	return ext["out"].I64()
}

// TestServiceSingleFlight: N programs of one shape and N different constant
// pairs ask one service at once. Exactly one template is generated — and the
// modeled latency charged once — whichever request gets there first; every
// other request is a hit, and every trace computes its own program's
// constants.
func TestServiceSingleFlight(t *testing.T) {
	const n = 16
	svc := NewService()
	defer svc.Close()
	var charged atomic.Int64
	opt := Options{CompileLatency: func(int) time.Duration {
		charged.Add(1)
		return 20 * time.Millisecond
	}}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mul, add := int64(2+i), int64(100+7*i)
			np, it, g, units := fragmentOf(t, affineSrc(mul, add))
			traces, err := svc.CompileNow(requestFor(np, g, units, opt))
			if err != nil {
				t.Error(err)
				return
			}
			out := runWith(t, np, it, units, traces)
			for j, got := range out {
				if want := (int64(j)-256)*mul + add; got != want {
					t.Errorf("program %d: out[%d] = %d, want %d", i, j, got, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	st := svc.Stats()
	if st.Misses != 1 || st.Hits != n-1 || st.Templates != 1 {
		t.Fatalf("stats %+v, want 1 miss, %d hits, 1 template", st, n-1)
	}
	if c := charged.Load(); c != 1 {
		t.Fatalf("compile latency charged %d times, want once", c)
	}
	if st.QueueDepth != 0 || st.Dropped != 0 {
		t.Fatalf("stats %+v, want an empty queue and nothing dropped", st)
	}
}

// TestSubmitNeverWaits: with a 200 ms latency model a miss returns at once
// as pending and delivers the trace later; a request for the same shape made
// after that is answered inline from the cache.
func TestSubmitNeverWaits(t *testing.T) {
	svc := NewService()
	defer svc.Close()
	const latency = 200 * time.Millisecond
	opt := Options{CompileLatency: func(int) time.Duration { return latency }}

	np, _, g, units := fragmentOf(t, affineSrc(3, 4))
	req := requestFor(np, g, units, opt)
	done := make(chan []*Trace, 1)
	req.Done = func(traces []*Trace, err error) {
		if err != nil {
			t.Error(err)
		}
		done <- traces
	}
	start := time.Now()
	traces, pending, err := svc.Submit(req)
	if err != nil || !pending || traces != nil {
		t.Fatalf("first Submit: traces=%v pending=%v err=%v, want a pending miss", traces, pending, err)
	}
	if d := time.Since(start); d > latency/4 {
		t.Fatalf("Submit took %v with a %v compile latency: it waited for code generation", d, latency)
	}
	if st := svc.Stats(); st.QueueDepth != 1 {
		t.Fatalf("queue depth %d while the compile is in flight, want 1", st.QueueDepth)
	}
	first := <-done
	if len(first) != 1 || first[0].TemplateHit() {
		t.Fatalf("the requester that paid for the template must see a miss, got %v", first)
	}

	np2, it2, g2, units2 := fragmentOf(t, affineSrc(9, 1))
	traces, pending, err = svc.Submit(requestFor(np2, g2, units2, opt))
	if err != nil || pending || len(traces) != 1 || !traces[0].TemplateHit() {
		t.Fatalf("second Submit: traces=%v pending=%v err=%v, want an inline template hit", traces, pending, err)
	}
	if out := runWith(t, np2, it2, units2, traces); out[300] != (300-256)*9+1 {
		t.Fatalf("trace from a cached template computed %d, want %d", out[300], (300-256)*9+1)
	}
}

// TestServiceDropsGoneRequesters: queued compiles whose only requester is
// gone by the time a worker reaches them. With more work queued behind it the
// compile is skipped — no latency charged, no template cached; the last one,
// with the queue empty, is still generated for the cache. Either way the
// requester is told it was dropped.
func TestServiceDropsGoneRequesters(t *testing.T) {
	svc := NewService()
	defer svc.Close()
	// Keep both workers busy so the compile under test stays queued.
	release := make(chan struct{})
	for i := 0; i < maxCompileWorkers; i++ {
		np, _, g, units := fragmentOf(t, fmt.Sprintf("let xs = read 0 data 512\nlet m = map (\\x -> x %s 3) xs\nwrite out 0 m\n", []string{"+", "*"}[i]))
		req := requestFor(np, g, units, Options{CompileLatency: func(int) time.Duration { <-release; return 0 }})
		req.Done = func([]*Trace, error) {}
		if _, pending, err := svc.Submit(req); err != nil || !pending {
			t.Fatalf("blocker %d: pending=%v err=%v", i, pending, err)
		}
	}

	var alive atomic.Bool
	alive.Store(true)
	var charged atomic.Int64
	got := make(chan error, 2)
	for _, src := range []string{affineSrc(5, 6), "let xs = read 0 data 512\nwrite out 0 (map (\\x -> x - 3) xs)\n"} {
		np, _, g, units := fragmentOf(t, src)
		req := requestFor(np, g, units, Options{CompileLatency: func(int) time.Duration { charged.Add(1); return 0 }})
		req.Alive = alive.Load
		req.Done = func(_ []*Trace, err error) { got <- err }
		if _, pending, err := svc.Submit(req); err != nil || !pending {
			t.Fatalf("pending=%v err=%v, want a queued miss", pending, err)
		}
	}
	alive.Store(false)
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-got; !errors.Is(err, ErrDropped) {
			t.Fatalf("Done(%v), want ErrDropped", err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); svc.Stats().QueueDepth > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond) // the other blocker is still publishing
	}
	if st := svc.Stats(); st.Dropped != 1 || st.Templates != maxCompileWorkers+1 || charged.Load() != 1 {
		t.Fatalf("stats %+v charged=%d, want one compile dropped and one generated for the cache", st, charged.Load())
	}
}

// TestServiceCloseInFlight: Close with one compile sleeping through its
// latency and more queued behind it returns promptly, tells every requester,
// and leaves no goroutine behind. So does an idle service: workers exit when
// the queue is empty.
func TestServiceCloseInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := NewService()
	var dropped atomic.Int64
	ops := []string{"+", "-", "*", "/", "%", "&", "|"}
	for _, op := range ops {
		np, _, g, units := fragmentOf(t, fmt.Sprintf("let xs = read 0 data 512\nlet m = map (\\x -> x %s 3) xs\nwrite out 0 m\n", op))
		req := requestFor(np, g, units, Options{CompileLatency: func(int) time.Duration { return time.Minute }})
		req.Done = func(_ []*Trace, err error) {
			if errors.Is(err, ErrDropped) {
				dropped.Add(1)
			}
		}
		if _, pending, err := svc.Submit(req); err != nil || !pending {
			t.Fatalf("op %s: pending=%v err=%v", op, pending, err)
		}
	}
	start := time.Now()
	svc.Close()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v with minute-long compiles in flight", d)
	}
	if int(dropped.Load()) != len(ops) {
		t.Fatalf("%d of %d pending requests were told they were dropped", dropped.Load(), len(ops))
	}
	np, _, g, units := fragmentOf(t, affineSrc(2, 2))
	if _, _, err := svc.Submit(requestFor(np, g, units, Options{})); !errors.Is(err, ErrDropped) {
		t.Fatalf("Submit on a closed service: %v, want ErrDropped", err)
	}
	svc.Close() // idempotent

	idle := NewService()
	if _, err := idle.CompileNow(requestFor(np, g, units, Options{CompileLatency: NoCompileLatency})); err != nil {
		t.Fatal(err)
	}
	// No Close: an idle service must not pin goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: %d before, %d after a closed and an idle service", before, n)
	}
}

// TestTemplateCacheBounded: the cache recycles its least recently used slot
// instead of growing.
func TestTemplateCacheBounded(t *testing.T) {
	svc := NewService()
	defer svc.Close()
	tmpl := &template{}
	svc.mu.Lock()
	for i := 0; i < maxTemplates+50; i++ {
		svc.storeLocked(shapeKey(fmt.Sprint(i)), tmpl)
	}
	_, oldest := svc.templates["0"]
	_, newest := svc.templates[shapeKey(fmt.Sprint(maxTemplates+49))]
	n := len(svc.templates)
	svc.mu.Unlock()
	if n != maxTemplates || oldest || !newest {
		t.Fatalf("cache holds %d templates (oldest kept: %v, newest kept: %v), want %d with LRU eviction", n, oldest, newest, maxTemplates)
	}
}
