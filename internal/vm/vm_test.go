package vm

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/depgraph"
	"repro/internal/dsl"
	"repro/internal/jit"
	"repro/internal/nir"
	"repro/internal/vector"
)

// bigLoopSrc processes the whole input in chunks; it runs long enough for
// the VM to go hot during a single execution.
const bigLoopSrc = `
mut i
i := 0
loop {
  let xs = read i data
  if len(xs) == 0 then break
  let r = map (\x -> (x * 3 + 7) * (x - 1)) xs
  write out i r
  i := i + len(xs)
}
`

func normalizeSrc(t *testing.T, src string, kinds map[string]vector.Kind) *nir.Program {
	t.Helper()
	prog, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	np, err := nir.Normalize(prog, kinds)
	if err != nil {
		t.Fatal(err)
	}
	return np
}

func mkData(n int) map[string]*vector.Vector {
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i%1000 - 500)
	}
	return map[string]*vector.Vector{
		"data": vector.FromI64(data),
		"out":  vector.New(vector.I64, 0, n),
	}
}

func wantOut(ext map[string]*vector.Vector) []int64 {
	data := ext["data"].I64()
	out := make([]int64, len(data))
	for i, x := range data {
		out[i] = (x*3 + 7) * (x - 1)
	}
	return out
}

// TestFigure1StateMachine drives the VM through the full Interpret →
// Optimize → GenerateCode → InjectFunctions → Interpret cycle and checks
// both the recorded transition sequence and result correctness.
func TestFigure1StateMachine(t *testing.T) {
	np := normalizeSrc(t, bigLoopSrc, map[string]vector.Kind{"data": vector.I64, "out": vector.I64})
	cfg := DefaultConfig()
	cfg.HotCalls = 2
	cfg.HotNanos = 1 << 62
	v := New(np, cfg)

	ext := mkData(1 << 16)
	env, err := v.NewEnv(ext)
	if err != nil {
		t.Fatal(err)
	}
	// First run interprets and compiles at a hot check.
	if err := v.Run(env); err != nil {
		t.Fatal(err)
	}
	if len(v.CompiledSegments()) == 0 {
		t.Fatalf("hot loop body was not compiled; transitions: %v", v.Transitions())
	}

	// Transition log must contain the Figure-1 cycle in order.
	var seq []State
	for _, tr := range v.Transitions() {
		seq = append(seq, tr.To)
	}
	wantCycle := []State{StateOptimize, StateGenerateCode, StateInjectFunctions, StateInterpret}
	if !containsSubsequence(seq, wantCycle) {
		t.Fatalf("transition log misses the Figure-1 cycle: %v", v.Transitions())
	}
	if v.State() != StateInterpret {
		t.Fatalf("state %v after the cycle, want %v", v.State(), StateInterpret)
	}

	// Second run executes through the injected traces and must agree. The
	// segment is compiled from its first execution on, so whatever its
	// traces' first members gain in the profile was recorded by the traces.
	recorded := func() (n int64) {
		for _, segID := range v.CompiledSegments() {
			for _, tr := range v.Traces(segID) {
				n += v.Interp.Prof.Calls(tr.Covers()[0])
			}
		}
		return n
	}
	before := recorded()
	ext2 := mkData(1 << 16)
	env2, err := v.NewEnv(ext2)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Run(env2); err != nil {
		t.Fatal(err)
	}
	want := wantOut(ext2)
	got := ext2["out"].I64()
	if len(got) != len(want) {
		t.Fatalf("out len=%d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d]=%d want %d", i, got[i], want[i])
		}
	}
	if recorded() == before {
		t.Fatal("no trace executed on the second run")
	}
}

func containsSubsequence(seq, sub []State) bool {
	j := 0
	for _, s := range seq {
		if j < len(sub) && s == sub[j] {
			j++
		}
	}
	return j == len(sub)
}

// TestCompileServiceInjectsMidRun: on a long-running loop the hot check at a
// segment boundary compiles the loop body, and the traces run for the rest
// of the same execution.
func TestCompileServiceInjectsMidRun(t *testing.T) {
	np := normalizeSrc(t, bigLoopSrc, map[string]vector.Kind{"data": vector.I64, "out": vector.I64})
	cfg := DefaultConfig()
	cfg.HotCalls = 2
	v := New(np, cfg)

	ext := mkData(1 << 21) // ~2M rows: thousands of chunks
	env, err := v.NewEnv(ext)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Run(env); err != nil {
		t.Fatal(err)
	}
	if len(v.CompiledSegments()) == 0 {
		t.Fatal("the hot loop was never compiled")
	}
	// A trace records its executions under its first member only; the
	// interpreter records every member. A first member ahead of the last
	// one therefore counts trace executions.
	trExecuted := int64(0)
	for _, segID := range v.CompiledSegments() {
		for _, tr := range v.Traces(segID) {
			ids := tr.Covers()
			trExecuted += v.Interp.Prof.Calls(ids[0]) - v.Interp.Prof.Calls(ids[len(ids)-1])
		}
	}
	if trExecuted == 0 {
		t.Fatal("compiled traces never ran during the same execution")
	}
	want := wantOut(ext)
	got := ext["out"].I64()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d]=%d want %d (mid-run injection corrupted results)", i, got[i], want[i])
		}
	}
}

// filterLoopSrc is a chunked loop whose body maps and condenses: a
// multi-segment program with more than one compilable fragment.
const filterLoopSrc = `
mut i
mut k
i := 0
k := 0
loop {
  let xs = read i data
  if len(xs) == 0 then break
  let r = map (\x -> (x * 3 + 7) * (x - 1)) xs
  let f = condense (filter (\x -> x > 0) r)
  write out k f
  k := k + len(f)
  i := i + len(xs)
}
`

// TestInjectedTracesStayInstalled: with the default configuration, a hot
// multi-segment program run many times injects each compiled segment's
// traces exactly once, and they stay installed: the segment logs nothing
// after it resumes, stays in CompiledSegments and keeps the same traces.
func TestInjectedTracesStayInstalled(t *testing.T) {
	np := normalizeSrc(t, filterLoopSrc, map[string]vector.Kind{"data": vector.I64, "out": vector.I64})
	v := New(np, DefaultConfig())
	installed := map[int][]*jit.Trace{} // segment → the traces first seen installed
	for run := 0; run < 200; run++ {
		env, err := v.NewEnv(mkData(8 * vector.DefaultChunkLen))
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Run(env); err != nil {
			t.Fatal(err)
		}
		for seg, trs := range installed {
			if got := v.Traces(seg); len(got) != len(trs) || &got[0] != &trs[0] {
				t.Fatalf("run %d: segment %d's traces changed after injection; transitions: %v", run, seg, v.Transitions())
			}
		}
		for _, seg := range v.CompiledSegments() {
			if _, ok := installed[seg]; !ok {
				installed[seg] = v.Traces(seg)
			}
		}
		if got := v.CompiledSegments(); len(got) != len(installed) {
			t.Fatalf("run %d: compiled segments %v, want the %d ever injected", run, got, len(installed))
		}
	}
	if len(installed) == 0 {
		t.Fatalf("nothing compiled in 200 runs; transitions: %v", v.Transitions())
	}
	bySeg := map[int][]State{}
	for _, tr := range v.Transitions() {
		bySeg[tr.Segment] = append(bySeg[tr.Segment], tr.To)
	}
	want := []State{StateOptimize, StateGenerateCode, StateInjectFunctions, StateInterpret}
	for seg := range installed {
		if got := bySeg[seg]; !slices.Equal(got, want) {
			t.Fatalf("segment %d logged %v, want one cycle %v", seg, got, want)
		}
	}
}

// TestSyncCompilesThroughSharedTemplates: two VMs for programs of one shape
// on one template cache. The second finds the first's template: no second
// code generation.
func TestSyncCompilesThroughSharedTemplates(t *testing.T) {
	templates := jit.NewCache()
	kinds := map[string]vector.Kind{"data": vector.I64, "out": vector.I64}
	for i, c := range []string{"7", "9"} {
		np := normalizeSrc(t, strings.ReplaceAll(bigLoopSrc, "7", c), kinds)
		cfg := DefaultConfig()
		cfg.HotCalls = 2
		cfg.HotNanos = 1 << 62
		cfg.Templates = templates
		v := New(np, cfg)
		env, err := v.NewEnv(mkData(1 << 14))
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Run(env); err != nil {
			t.Fatal(err)
		}
		hits, misses := v.TemplateStats()
		if hits+misses == 0 {
			t.Fatalf("VM %d injected no trace; transitions: %v", i, v.Transitions())
		}
		if i == 0 && hits != 0 || i == 1 && misses != 0 {
			t.Fatalf("VM %d: %d template hits, %d misses; the first VM must generate, the second must reuse", i, hits, misses)
		}
	}
	if st := templates.Stats(); st.Misses == 0 || st.Hits != st.Misses {
		t.Fatalf("cache stats %+v, want every shape generated once and hit once", st)
	}
}

// TestSettledSegmentThinsProfiling: an injected segment is profiled on one
// execution in settledSampleEvery from injection on, while the profile's
// counters — scaled by the sampling weight — keep tracking true totals.
func TestSettledSegmentThinsProfiling(t *testing.T) {
	np := normalizeSrc(t, bigLoopSrc, map[string]vector.Kind{"data": vector.I64, "out": vector.I64})
	cfg := DefaultConfig()
	cfg.HotCalls = 2
	cfg.HotNanos = 1 << 62
	v := New(np, cfg)
	const chunks = 1<<7 + 5
	run := func() {
		env, err := v.NewEnv(mkData(chunks * vector.DefaultChunkLen))
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Run(env); err != nil {
			t.Fatal(err)
		}
	}
	run() // compiles the loop
	segs := v.CompiledSegments()
	if len(segs) == 0 {
		t.Fatalf("nothing compiled; transitions: %v", v.Transitions())
	}
	id := v.Traces(segs[0])[0].Covers()[0]
	before := v.Interp.Prof.Calls(id)
	for i := 0; i < 3; i++ {
		run()
	}
	// Each sampled execution records the settledSampleEvery executions it
	// stands for, so a profile that grows only in whole periods was sampled
	// on every trace call since injection. A full profile would grow by the
	// true count: 3×(chunks+1) for the loop header, which also runs the
	// final read that finds the input exhausted, or 3×chunks for the body.
	// chunks is chosen so that neither is a whole period.
	grew, ran := v.Interp.Prof.Calls(id)-before, int64(3*(chunks+1))
	if grew%settledSampleEvery != 0 {
		t.Fatalf("profile grew by %d, not a whole number of %d-execution samples: the injected segment was not thinned", grew, settledSampleEvery)
	}
	if grew < ran-2*settledSampleEvery || grew > ran+2*settledSampleEvery {
		t.Fatalf("profile reports %d executions of a segment that ran %d times", grew, ran)
	}
}

// TestFailedInjectLeavesSegmentInterpreted: a plan the interpreter refuses
// to install leaves the segment interpreted for good — no later hot check
// optimizes it again — and the program's results stay correct.
func TestFailedInjectLeavesSegmentInterpreted(t *testing.T) {
	np := normalizeSrc(t, bigLoopSrc, map[string]vector.Kind{"data": vector.I64, "out": vector.I64})
	cfg := DefaultConfig()
	cfg.HotCalls = 2
	cfg.HotNanos = 1 << 62
	v := New(np, cfg)
	body := -1
	for _, seg := range v.Interp.Segments {
		if body < 0 || len(seg.Instrs) > len(v.Interp.Segments[body].Instrs) {
			body = seg.ID
		}
	}
	// A plan of one interpreted instruction does not cover the segment.
	v.inject(body, []depgraph.Unit{{Node: 0}}, nil)
	if got := v.Transitions(); !strings.HasPrefix(got[len(got)-1].Note, "inject failed") {
		t.Fatalf("the refused plan was not reported; transitions: %v", got)
	}
	logged := len(v.Transitions())
	for run := 0; run < 3; run++ {
		ext := mkData(1 << 14)
		env, err := v.NewEnv(ext)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Run(env); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ext["out"].I64(), wantOut(ext)) {
			t.Fatalf("run %d: wrong output after a refused plan", run)
		}
	}
	if slices.Contains(v.CompiledSegments(), body) {
		t.Fatal("the segment was compiled after its plan was refused")
	}
	for _, tr := range v.Transitions()[logged:] {
		if tr.Segment == body {
			t.Fatalf("segment %d was optimized again after its plan was refused: %v", body, tr)
		}
	}
}

// TestMaybeOptimizeCoalesces: a pass that finds another one in flight
// returns at once instead of examining the profile a second time.
func TestMaybeOptimizeCoalesces(t *testing.T) {
	np := normalizeSrc(t, bigLoopSrc, map[string]vector.Kind{"data": vector.I64, "out": vector.I64})
	cfg := DefaultConfig()
	cfg.HotCalls = 1
	v := New(np, cfg)
	env, err := v.NewEnv(mkData(1 << 12))
	if err != nil {
		t.Fatal(err)
	}
	v.optimizing.Store(true) // a pass in flight
	if err := v.Run(env); err != nil {
		t.Fatal(err)
	}
	if got := v.Transitions(); len(got) != 0 {
		t.Fatalf("a pass ran beside the one in flight: %v", got)
	}
	v.optimizing.Store(false)
	v.MaybeOptimize()
	if len(v.CompiledSegments()) == 0 {
		t.Fatalf("the hot loop was not compiled once the pass was free; transitions: %v", v.Transitions())
	}
}

func TestTransitionLogRendering(t *testing.T) {
	tr := Transition{From: StateInterpret, To: StateOptimize, Segment: 3, Note: "hot"}
	if s := tr.String(); s == "" {
		t.Fatal("empty transition string")
	}
	if StateGenerateCode.String() != "GenerateCode" {
		t.Fatal("state name wrong")
	}
}
