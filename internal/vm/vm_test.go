package vm

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dsl"
	"repro/internal/interp"
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
	// This test observes the compile cycle; micro-adaptive revert under a
	// loaded machine could legitimately deoptimize the trace between runs
	// and empty CompiledSegments (revert has its own test).
	cfg.MicroAdaptive = false
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

	// Second run executes through the injected traces and must agree.
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
	executed := false
	for _, segID := range v.CompiledSegments() {
		for _, tr := range v.Traces(segID) {
			if tr.Calls() > 0 {
				executed = true
			}
		}
	}
	if !executed {
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
	// As in TestFigure1StateMachine: on a loaded machine micro-adaptive revert
	// can deoptimize the injected traces before Run returns and empty
	// CompiledSegments (revert has its own test).
	cfg.MicroAdaptive = false
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
	trExecuted := int64(0)
	for _, segID := range v.CompiledSegments() {
		for _, tr := range v.Traces(segID) {
			trExecuted += tr.Calls()
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

// TestMicroAdaptiveRevert: when the compiled trace is slower (simulated by a
// pathological tile size making it do no fusion but more bookkeeping, plus a
// forced cost), the VM must revert to interpretation.
func TestMicroAdaptiveRevert(t *testing.T) {
	np := normalizeSrc(t, bigLoopSrc, map[string]vector.Kind{"data": vector.I64, "out": vector.I64})
	// Exercise the revert decision logic directly.
	cfg2 := DefaultConfig()
	cfg2.HotCalls = 2
	cfg2.HotNanos = 1 << 62
	v2 := New(np, cfg2)
	// Short runs where a run must end compiled: its traces get too few calls
	// to be judged before it ends, wherever in the run they were injected.
	ext := mkData(shortRun)
	env, _ := v2.NewEnv(ext)
	if err := v2.Run(env); err != nil {
		t.Fatal(err)
	}
	if len(v2.CompiledSegments()) == 0 {
		t.Fatal("not compiled")
	}
	segID := v2.CompiledSegments()[0]
	// Pretend the interpreter was much faster than the measured traces. Only
	// this segment is doctored; other segments' traces may legitimately stay
	// compiled, so every check below targets segID.
	v2.mu.Lock()
	v2.segs[segID].interpNanos = 0.0001
	v2.mu.Unlock()
	// Run again so traces accumulate ≥4 calls, then let the optimizer see
	// the regression.
	for i := 0; i < 4; i++ {
		env2, _ := v2.NewEnv(mkData(1 << 16))
		if err := v2.Run(env2); err != nil {
			t.Fatal(err)
		}
	}
	if containsInt(v2.CompiledSegments(), segID) {
		t.Fatalf("regressing trace was not reverted; transitions: %v", v2.Transitions())
	}
	// Reverted segments must not be recompiled...
	env3, _ := v2.NewEnv(mkData(1 << 16))
	if err := v2.Run(env3); err != nil {
		t.Fatal(err)
	}
	if containsInt(v2.CompiledSegments(), segID) {
		t.Fatal("reverted segment was recompiled without Recompile()")
	}
	// ...until Recompile clears the block.
	v2.Recompile()
	env4, _ := v2.NewEnv(mkData(shortRun))
	if err := v2.Run(env4); err != nil {
		t.Fatal(err)
	}
	if !containsInt(v2.CompiledSegments(), segID) {
		t.Fatal("Recompile did not re-enable optimization")
	}
}

// shortRun is an input of fewer chunks than judgeCalls.
const shortRun = 4 * vector.DefaultChunkLen

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestGuardedTraceFallsBackOnSituationChange installs a guard keyed on an
// external "situation" and verifies execution stays correct through guard
// failures.
func TestGuardedTraceFallsBackOnSituationChange(t *testing.T) {
	np := normalizeSrc(t, bigLoopSrc, map[string]vector.Kind{"data": vector.I64, "out": vector.I64})
	cfg := DefaultConfig()
	cfg.HotCalls = 2
	cfg.HotNanos = 1 << 62
	v := New(np, cfg)

	situationOK := true
	for segID := range v.Interp.Segments {
		v.SetGuard(segID, func(*interp.Env) bool { return situationOK })
	}

	env, _ := v.NewEnv(mkData(shortRun))
	if err := v.Run(env); err != nil {
		t.Fatal(err)
	}
	if len(v.CompiledSegments()) == 0 {
		t.Fatal("not compiled")
	}

	var traces []*jit.Trace
	for _, segID := range v.CompiledSegments() {
		traces = append(traces, v.Traces(segID)...)
	}

	// Situation changes: guards fail, VM must still produce correct output
	// through the deopt path.
	situationOK = false
	ext2 := mkData(1 << 15)
	env2, _ := v.NewEnv(ext2)
	if err := v.Run(env2); err != nil {
		t.Fatal(err)
	}
	want := wantOut(ext2)
	got := ext2["out"].I64()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deopt path wrong at %d", i)
		}
	}
	deopts := int64(0)
	for _, tr := range traces {
		deopts += tr.Deopts()
	}
	if deopts == 0 {
		t.Fatal("guards never fired")
	}
	// Persistent guard failure must eventually drop the stale
	// specialization so the VM can re-specialize for the new situation.
	if len(v.CompiledSegments()) != 0 {
		t.Fatal("stale specialization kept despite persistent guard failure")
	}
}

// TestRevertComparesMemberInstructionsOnly is the regression test for the
// micro-adaptive baseline: a losing trace must be reverted even when it sits
// beside an expensive instruction that was never compiled. The trace here
// really loses — a one-element tile makes its fused run dispatch a kernel per
// element — and the segment's filter, which stays interpreted, is made to look
// a thousand times more expensive than everything else in the profile.
// Measured against the whole segment's interpreter cost (the old baseline)
// the trace would look like a bargain forever.
func TestRevertComparesMemberInstructionsOnly(t *testing.T) {
	src := `
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
	np := normalizeSrc(t, src, map[string]vector.Kind{"data": vector.I64, "out": vector.I64})
	cfg := DefaultConfig()
	cfg.HotCalls = 2
	cfg.HotNanos = 1 << 62
	cfg.JIT.TileSize = 1
	v := New(np, cfg)

	filterID, segID := -1, -1
	for _, seg := range v.Interp.Segments {
		for _, in := range seg.Instrs {
			if in.Op == nir.OpSelectCmp || in.Op == nir.OpSelect {
				filterID, segID = in.ID, seg.ID
			}
		}
	}
	if filterID < 0 {
		t.Fatalf("no filter instruction in:\n%s", np)
	}
	v.Interp.Prof.Record(filterID, 0, int64(time.Hour))

	run := func(n int) []int64 {
		ext := mkData(n)
		env, err := v.NewEnv(ext)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Run(env); err != nil {
			t.Fatal(err)
		}
		return ext["out"].I64()
	}
	run(shortRun) // interprets and compiles, too short to judge the traces
	if !containsInt(v.CompiledSegments(), segID) {
		t.Fatalf("segment %d with the map chain was not compiled; transitions: %v", segID, v.Transitions())
	}
	for _, tr := range v.Traces(segID) {
		for _, id := range tr.Covers() {
			if id == filterID {
				t.Fatal("the filter was compiled into a trace; the test needs it interpreted")
			}
		}
	}
	var got []int64
	for i := 0; i < 3; i++ {
		got = run(1 << 15)
	}
	if containsInt(v.CompiledSegments(), segID) {
		t.Fatalf("a trace an order of magnitude slower than the interpreter survived beside an expensive uncompiled instruction; transitions: %v", v.Transitions())
	}
	var want []int64
	for _, x := range mkData(1 << 15)["data"].I64() {
		if y := (x*3 + 7) * (x - 1); y > 0 {
			want = append(want, y)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("out has %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want[i])
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
		cfg.MicroAdaptive = false
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

// TestSettledSegmentThinsProfiling: once a compiled segment has been judged,
// only one execution in settledSampleEvery is timed, while the profile's
// counters — scaled by the sampling weight — keep tracking true totals.
func TestSettledSegmentThinsProfiling(t *testing.T) {
	np := normalizeSrc(t, bigLoopSrc, map[string]vector.Kind{"data": vector.I64, "out": vector.I64})
	cfg := DefaultConfig()
	cfg.HotCalls = 2
	cfg.HotNanos = 1 << 62
	cfg.RevertFactor = 1e9 // judge, never revert
	v := New(np, cfg)
	const chunks = 1 << 7
	for i := 0; i < 4; i++ {
		env, err := v.NewEnv(mkData(chunks * vector.DefaultChunkLen))
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Run(env); err != nil {
			t.Fatal(err)
		}
	}
	var loop int
	var tr *jit.Trace
	for _, segID := range v.CompiledSegments() {
		for _, cand := range v.Traces(segID) {
			if tr == nil || cand.Calls() > tr.Calls() {
				loop, tr = segID, cand
			}
		}
	}
	if tr == nil {
		t.Fatalf("nothing compiled; transitions: %v", v.Transitions())
	}
	v.mu.Lock()
	settled := v.segs[loop].settled
	v.mu.Unlock()
	if !settled {
		t.Fatalf("segment %d was not settled after %d trace calls", loop, tr.Calls())
	}
	// The trace is timed in full until the judgement, then on one chunk in
	// settledSampleEvery.
	if timed, calls := tr.TimedCalls(), tr.Calls(); timed > calls/2 {
		t.Fatalf("%d of %d trace executions were timed; profiling was not thinned out", timed, calls)
	}
	// The segment executed 4×(chunks+1) times; the weighted profile of its
	// first traced instruction must stay within a sampling period of that.
	got := v.Interp.Prof.Calls(tr.Covers()[0])
	if want := int64(4 * (chunks + 1)); got < want-2*settledSampleEvery || got > want+2*settledSampleEvery {
		t.Fatalf("profile reports %d executions of a segment that ran %d times", got, want)
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
