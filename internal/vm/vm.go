// Package vm implements the paper's adaptive virtual machine (§III): the
// Figure-1 state machine that starts out interpreting a normalized program,
// collects profiling information to identify hot paths, greedily partitions
// their dependency graphs into compilable fragments, JIT-compiles the
// fragments into fused traces, injects them into the interpreter, and keeps
// interpreting the partially optimized program.
//
// Code generation runs inline, at the hot check that finds a segment hot:
// the segment is partitioned in place and its fragments' traces come from a
// jit.Cache, which binds cached templates and generates missing ones on the
// spot — microseconds either way. The traces are swapped into the segment's
// plan atomically and take effect at the next segment boundary, inside the
// run that made the segment hot.
//
// The VM is micro-adaptive in the sense of [24] generalized by the paper:
// after injecting a trace it keeps comparing the trace's measured cost
// against the interpreter's historical cost for the same instructions, and
// reverts (deoptimizes) when compilation turned out to be a loss. Traces can
// carry situation guards; guard failures execute the interpreted fallback
// and are counted, and persistent guard failure triggers re-specialization.
package vm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/depgraph"
	"repro/internal/interp"
	"repro/internal/jit"
	"repro/internal/nir"
	"repro/internal/vector"
)

// State is a Figure-1 state of the VM.
type State int32

// The four states of Figure 1.
const (
	StateInterpret State = iota
	StateOptimize
	StateGenerateCode
	StateInjectFunctions
)

var stateNames = [...]string{"Interpret", "Optimize", "GenerateCode", "InjectFunctions"}

func (s State) String() string { return stateNames[s] }

// Transition is one recorded state-machine transition.
type Transition struct {
	From, To State
	At       time.Duration // since VM creation
	Segment  int           // affected segment, -1 when not applicable
	Note     string
}

func (t Transition) String() string {
	return fmt.Sprintf("%-12v → %-16v seg=%-3d %s", t.From, t.To, t.Segment, t.Note)
}

// Config tunes the VM's adaptive behaviour.
type Config struct {
	// HotCalls is the number of observed executions after which a segment
	// is considered for optimization.
	HotCalls int64
	// HotNanos is the cumulative time after which a segment is considered
	// hot regardless of call count.
	HotNanos int64
	// JIT configures trace compilation (tile size, compile-latency model).
	JIT jit.Options
	// Templates is the template cache the VM takes its traces from: the
	// owning engine's, so templates are shared with every other VM. Nil
	// gives the VM a private cache.
	Templates *jit.Cache
	// Constraints configure the dependency-graph partitioner.
	Constraints depgraph.Constraints
	// MicroAdaptive keeps comparing injected traces against the
	// interpreter's historical cost and reverts losing traces.
	MicroAdaptive bool
	// RevertFactor: a trace is reverted when its per-call cost exceeds the
	// interpreter's historical per-call cost for the same instructions by
	// this factor (default 1.1).
	RevertFactor float64
}

// DefaultConfig returns a production-shaped configuration.
func DefaultConfig() Config {
	return Config{
		HotCalls:      8,
		HotNanos:      int64(200 * time.Microsecond),
		Constraints:   depgraph.DefaultConstraints(),
		MicroAdaptive: true,
		RevertFactor:  1.1,
	}
}

// segState tracks per-segment optimization status.
type segState struct {
	compiled bool
	reverted bool // compilation tried and lost; do not recompile
	settled  bool // compiled and measured long enough to thin profiling out
	traces   []*jit.Trace
	// interpNanos is the interpreter's historical cost per segment execution
	// of the instructions the traces replaced.
	interpNanos float64
}

// VM is the adaptive virtual machine for one normalized program. It may be
// shared across many executions (Run calls); profiling and compiled traces
// persist and keep improving subsequent runs.
type VM struct {
	Prog   *nir.Program
	Interp *interp.Interpreter
	cfg    Config

	state        atomic.Int32
	start        time.Time
	mu           sync.Mutex
	transitions  []Transition
	segs         []segState
	guards       map[int]func(*interp.Env) bool // segment → situation guard
	optimizing   atomic.Bool
	pollCount    atomic.Int64
	lastOptimize atomic.Int64 // time of the last optimizer pass, ns since start
	// templateHits / templateMisses count injected traces by where their code
	// came from (under mu).
	templateHits, templateMisses int
}

// New creates a VM for prog.
func New(prog *nir.Program, cfg Config) *VM {
	if cfg.RevertFactor == 0 {
		cfg.RevertFactor = 1.1
	}
	it := interp.New(prog)
	it.Profiling = true
	vm := &VM{
		Prog:   prog,
		Interp: it,
		cfg:    cfg,
		start:  time.Now(),
		segs:   make([]segState, len(it.Segments)),
		guards: map[int]func(*interp.Env) bool{},
	}
	if vm.cfg.Templates == nil {
		vm.cfg.Templates = jit.NewCache()
	}
	vm.state.Store(int32(StateInterpret))
	return vm
}

// NewEnv binds external arrays for a program execution.
func (vm *VM) NewEnv(ext map[string]*vector.Vector) (*interp.Env, error) {
	return interp.NewEnv(vm.Prog, ext)
}

// State returns the current Figure-1 state.
func (vm *VM) State() State { return State(vm.state.Load()) }

// Transitions returns a copy of the recorded state-machine log.
func (vm *VM) Transitions() []Transition {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return append([]Transition(nil), vm.transitions...)
}

func (vm *VM) transition(to State, seg int, note string) {
	from := State(vm.state.Swap(int32(to)))
	vm.mu.Lock()
	vm.transitions = append(vm.transitions, Transition{
		From: from, To: to, At: time.Since(vm.start), Segment: seg, Note: note,
	})
	vm.mu.Unlock()
}

// SetGuard installs a situation guard for every trace subsequently compiled
// for the segment containing instruction instrID. Guard failure executes the
// interpreted fallback (deoptimization).
func (vm *VM) SetGuard(segID int, g func(*interp.Env) bool) {
	vm.mu.Lock()
	vm.guards[segID] = g
	vm.mu.Unlock()
}

// Run executes the program once; see RunContext.
func (vm *VM) Run(env *interp.Env) error {
	return vm.RunContext(context.Background(), env)
}

// RunContext executes the program once, honoring ctx: cancellation and
// deadlines are checked between chunks (segment boundaries), so a long run
// aborts within one chunk of the cancellation and the returned error wraps
// ctx.Err().
//
// The Optimize→GenerateCode→InjectFunctions cycle accompanies the run: the
// interpreter examines the profile at segment boundaries (at most once per
// optimizeInterval) and once more when the run ends, and each hot segment
// gets its traces right there, from the template cache, before the run
// goes on.
func (vm *VM) RunContext(ctx context.Context, env *interp.Env) error {
	env.SetPoll(vm.poll)
	// Deferred so a panic out of the interpreter (propagated to an embedder
	// that recovers) leaves a reusable environment behind.
	defer env.SetPoll(nil)
	err := vm.Interp.RunContext(ctx, env)
	if err == nil {
		// A failed or cancelled run gets no epilogue: its profile describes
		// an execution that was aborted.
		vm.MaybeOptimize()
	}
	return err
}

// poll runs at segment boundaries of a run and examines the profile when
// none of the VM's runs has for an optimizeInterval. It runs on the
// interpreting goroutine, so adaptivity does not depend on a background
// goroutine winning the scheduler (GOMAXPROCS=1).
func (vm *VM) poll() {
	if vm.pollCount.Add(1)%pollStride != 0 {
		return
	}
	last := time.Duration(vm.lastOptimize.Load())
	if time.Since(vm.start)-last < optimizeInterval {
		return
	}
	vm.MaybeOptimize()
}

// pollStride amortizes the time.Since call in poll across segment
// executions, and optimizeInterval bounds how often a running program
// re-examines its profile (every run also ends with one examination).
const (
	pollStride       = 16
	optimizeInterval = time.Millisecond
)

// MaybeOptimize examines the profile, compiles hot segments that are not yet
// compiled, and reverts regressing traces. It is safe to call
// concurrently with Run and with itself (concurrent callers coalesce into
// one pass).
func (vm *VM) MaybeOptimize() {
	if !vm.optimizing.CompareAndSwap(false, true) {
		return // another caller is already optimizing
	}
	defer vm.optimizing.Store(false)
	vm.lastOptimize.Store(int64(time.Since(vm.start)))
	for segID := range vm.Interp.Segments {
		vm.maybeOptimizeSegment(segID)
		if vm.cfg.MicroAdaptive {
			vm.maybeRevertSegment(segID)
		}
	}
}

// segmentStats reads the segment's profile once: how often it executed, the
// time its instructions took in total, and the share of that time spent in
// the instructions listed in members (nil = none).
func (vm *VM) segmentStats(segID int, members map[int]bool) (calls, nanos, memberNanos int64) {
	prof := vm.Interp.Prof
	for _, in := range vm.Interp.Segments[segID].Instrs {
		if c := prof.Calls(in.ID); c > calls {
			calls = c
		}
		ns := prof.Nanos(in.ID)
		nanos += ns
		if members[in.ID] {
			memberNanos += ns
		}
	}
	return calls, nanos, memberNanos
}

func (vm *VM) maybeOptimizeSegment(segID int) {
	vm.mu.Lock()
	st := vm.segs[segID]
	vm.mu.Unlock()
	if st.compiled || st.reverted {
		return
	}
	calls, nanos, _ := vm.segmentStats(segID, nil)
	if calls < vm.cfg.HotCalls && nanos < vm.cfg.HotNanos {
		return
	}

	// Optimize: partition the dependency graph using observed costs.
	vm.transition(StateOptimize, segID, fmt.Sprintf("hot: calls=%d nanos=%d", calls, nanos))
	seg := vm.Interp.Segments[segID]
	g := depgraph.Build(seg.Instrs, vm.Interp.Prof)
	frags := depgraph.Partition(g, vm.cfg.Constraints)
	if len(frags) == 0 {
		vm.giveUp(segID, "nothing to compile")
		return
	}
	units, err := depgraph.Schedule(g, frags)
	if err != nil {
		vm.giveUp(segID, "schedule failed: "+err.Error())
		return
	}

	// GenerateCode: one trace per fragment, from the template cache.
	vm.transition(StateGenerateCode, segID, fmt.Sprintf("%d fragments", len(frags)))
	scheduled := make([]*depgraph.Fragment, 0, len(frags)) // the order inject expects
	for _, u := range units {
		if u.Fragment != nil {
			scheduled = append(scheduled, u.Fragment)
		}
	}
	opt := vm.cfg.JIT
	vm.mu.Lock()
	if gd, ok := vm.guards[segID]; ok {
		opt.Guard = gd
	}
	vm.mu.Unlock()
	traces, err := vm.cfg.Templates.Traces(vm.Prog, g, scheduled, opt)
	if err != nil {
		vm.giveUp(segID, "compile failed: "+err.Error())
		return
	}
	vm.inject(segID, units, traces)
}

// giveUp leaves the segment interpreted for good (until Recompile).
func (vm *VM) giveUp(segID int, why string) {
	vm.transition(StateInterpret, segID, why)
	vm.mu.Lock()
	vm.segs[segID].reverted = true
	vm.mu.Unlock()
	vm.Interp.SetProfileSampling(segID, settledSampleEvery)
}

// inject installs a segment's traces, one per fragment unit in schedule
// order, beside the units left interpreted.
func (vm *VM) inject(segID int, units []depgraph.Unit, traces []*jit.Trace) {
	seg := vm.Interp.Segments[segID]
	steps := make([]interp.Step, 0, len(units))
	members := map[int]bool{}
	hits := 0
	next := 0
	for _, u := range units {
		if u.Fragment == nil {
			steps = append(steps, &interp.InstrStep{In: seg.Instrs[u.Node]})
			continue
		}
		tr := traces[next]
		next++
		steps = append(steps, tr)
		for _, id := range tr.Covers() {
			members[id] = true
		}
		if tr.TemplateHit() {
			hits++
		}
	}

	// InjectFunctions: install the partially compiled plan.
	vm.transition(StateInjectFunctions, segID,
		fmt.Sprintf("inject %d traces (%d from cached templates) into %d-step plan", len(traces), hits, len(steps)))
	// Record what the interpreter spent on the instructions the traces
	// replace — one reading, before the traces start skewing the profile.
	calls, _, memberNanos := vm.segmentStats(segID, members)
	if err := vm.Interp.InstallPlan(segID, &interp.Plan{Steps: steps}); err != nil {
		vm.giveUp(segID, "inject failed: "+err.Error())
		return
	}
	vm.mu.Lock()
	st := &vm.segs[segID]
	st.compiled, st.settled = true, false
	st.traces = traces
	st.interpNanos = 0
	if calls > 0 {
		st.interpNanos = float64(memberNanos) / float64(calls)
	}
	vm.templateHits += hits
	vm.templateMisses += len(traces) - hits
	vm.mu.Unlock()
	if !vm.cfg.MicroAdaptive {
		vm.Interp.SetProfileSampling(segID, settledSampleEvery)
	}
	vm.transition(StateInterpret, segID, "resume with partially optimized program")
}

// Traces are judged against the interpreter once each has judgeCalls timed
// executions: fewer, and one slow chunk decides. A segment whose decision is
// then final — compiled and not losing, or left interpreted for good — is
// profiled on one execution in settledSampleEvery: the per-instruction clock
// reads are the largest fixed cost of a hot loop, and from here on they only
// feed Stats and the continuing revert check.
const (
	judgeCalls         = 16
	settledSampleEvery = 16
)

// maybeRevertSegment reverts a compiled segment whose traces measure slower
// than the interpreter did on the same instructions (micro-adaptivity), or
// whose guards keep failing.
func (vm *VM) maybeRevertSegment(segID int) {
	vm.mu.Lock()
	st := vm.segs[segID]
	vm.mu.Unlock()
	if !st.compiled {
		return
	}

	var traceNanos float64
	var guardFailures int64
	measured := true
	for _, tr := range st.traces {
		if tr.TimedCalls() < judgeCalls {
			measured = false
		}
		traceNanos += tr.NanosPerCall()
		guardFailures += tr.Deopts()
	}
	if !measured || st.interpNanos == 0 {
		// Persistent guard failure with no successful calls: the situation
		// changed for good; drop the stale specialization so the segment
		// can be re-specialized later.
		if guardFailures >= 16 {
			vm.revert(segID, "persistent guard failure")
		}
		return
	}
	if traceNanos > st.interpNanos*vm.cfg.RevertFactor {
		vm.revert(segID, fmt.Sprintf("trace %.0fns/call vs interp %.0fns/call", traceNanos, st.interpNanos))
		return
	}
	if !st.settled {
		vm.mu.Lock()
		vm.segs[segID].settled = true
		vm.mu.Unlock()
		vm.Interp.SetProfileSampling(segID, settledSampleEvery)
	}
}

func (vm *VM) revert(segID int, why string) {
	vm.transition(StateInjectFunctions, segID, "revert: "+why)
	seg := vm.Interp.Segments[segID]
	if err := vm.Interp.InstallPlan(segID, seg.DefaultPlan()); err == nil {
		vm.mu.Lock()
		vm.segs[segID].compiled = false
		vm.segs[segID].reverted = true
		vm.segs[segID].traces = nil
		vm.mu.Unlock()
		vm.Interp.SetProfileSampling(segID, settledSampleEvery)
	}
	vm.transition(StateInterpret, segID, "deoptimized")
}

// Recompile clears the reverted flag of every segment so the optimizer may
// specialize again (used after a known workload shift, together with a
// profile reset).
func (vm *VM) Recompile() {
	vm.mu.Lock()
	for i := range vm.segs {
		if vm.segs[i].reverted {
			vm.segs[i].reverted = false
			vm.Interp.SetProfileSampling(i, 1)
		}
	}
	vm.mu.Unlock()
}

// CompiledSegments returns the IDs of segments currently running compiled
// plans.
func (vm *VM) CompiledSegments() []int {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	var out []int
	for i := range vm.segs {
		if vm.segs[i].compiled {
			out = append(out, i)
		}
	}
	return out
}

// Traces returns the traces installed for a segment (nil when interpreted).
func (vm *VM) Traces(segID int) []*jit.Trace {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return vm.segs[segID].traces
}

// TemplateStats reports, over every trace injected so far, how many were
// instantiated from a template that was already generated (cached, or being
// compiled for another program) and how many were compiled for this VM.
func (vm *VM) TemplateStats() (hits, misses int) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return vm.templateHits, vm.templateMisses
}
