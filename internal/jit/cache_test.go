package jit

import (
	"fmt"
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

// scheduled lists the units' fragments in schedule order.
func scheduled(units []depgraph.Unit) []*depgraph.Fragment {
	var frags []*depgraph.Fragment
	for _, u := range units {
		if u.Fragment != nil {
			frags = append(frags, u.Fragment)
		}
	}
	return frags
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
// pairs ask one cache at once. Exactly one template is generated — and the
// modeled latency charged once — whichever request gets there first; every
// other request is a hit, and every trace computes its own program's
// constants.
func TestServiceSingleFlight(t *testing.T) {
	const n = 16
	c := NewCache()
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
			traces, err := c.Traces(np, g, scheduled(units), opt)
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
	st := c.Stats()
	if st.Misses != 1 || st.Hits != n-1 || st.Templates != 1 {
		t.Fatalf("stats %+v, want 1 miss, %d hits, 1 template", st, n-1)
	}
	if c := charged.Load(); c != 1 {
		t.Fatalf("compile latency charged %d times, want once", c)
	}
}

// TestTemplateCacheBounded: the cache recycles its least recently used slot
// instead of growing.
func TestTemplateCacheBounded(t *testing.T) {
	c := NewCache()
	tmpl := &template{}
	c.mu.Lock()
	for i := 0; i < maxTemplates+50; i++ {
		c.storeLocked(shapeKey(fmt.Sprint(i)), tmpl)
	}
	_, oldest := c.templates["0"]
	_, newest := c.templates[shapeKey(fmt.Sprint(maxTemplates+49))]
	n := len(c.templates)
	c.mu.Unlock()
	if n != maxTemplates || oldest || !newest {
		t.Fatalf("cache holds %d templates (oldest kept: %v, newest kept: %v), want %d with LRU eviction", n, oldest, newest, maxTemplates)
	}
}
