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
// A segment's traces stay installed for the life of the VM, and from
// injection on the segment is profiled on one execution in
// settledSampleEvery.
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
}

// DefaultConfig returns a production-shaped configuration.
func DefaultConfig() Config {
	return Config{
		HotCalls:    8,
		HotNanos:    int64(200 * time.Microsecond),
		Constraints: depgraph.DefaultConstraints(),
	}
}

// segState tracks per-segment optimization status.
type segState struct {
	compiled    bool
	interpreted bool // left interpreted for good: nothing to compile, or compiling failed
	traces      []*jit.Trace
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
	optimizing   atomic.Bool
	pollCount    atomic.Int64
	lastOptimize atomic.Int64 // time of the last optimizer pass, ns since start
	// templateHits / templateMisses count injected traces by where their code
	// came from (under mu).
	templateHits, templateMisses int
}

// New creates a VM for prog.
func New(prog *nir.Program, cfg Config) *VM {
	it := interp.New(prog)
	it.Profiling = true
	vm := &VM{
		Prog:   prog,
		Interp: it,
		cfg:    cfg,
		start:  time.Now(),
		segs:   make([]segState, len(it.Segments)),
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

// MaybeOptimize examines the profile and compiles hot segments that are not
// yet compiled. It is safe to call concurrently with Run and with itself
// (concurrent callers coalesce into one pass).
func (vm *VM) MaybeOptimize() {
	if !vm.optimizing.CompareAndSwap(false, true) {
		return // another caller is already optimizing
	}
	defer vm.optimizing.Store(false)
	vm.lastOptimize.Store(int64(time.Since(vm.start)))
	for segID := range vm.Interp.Segments {
		vm.maybeOptimizeSegment(segID)
	}
}

// segmentStats reads the segment's profile once: how often it executed and
// the time its instructions took in total.
func (vm *VM) segmentStats(segID int) (calls, nanos int64) {
	prof := vm.Interp.Prof
	for _, in := range vm.Interp.Segments[segID].Instrs {
		calls = max(calls, prof.Calls(in.ID))
		nanos += prof.Nanos(in.ID)
	}
	return calls, nanos
}

func (vm *VM) maybeOptimizeSegment(segID int) {
	vm.mu.Lock()
	st := vm.segs[segID]
	vm.mu.Unlock()
	if st.compiled || st.interpreted {
		return
	}
	calls, nanos := vm.segmentStats(segID)
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
	traces, err := vm.cfg.Templates.Traces(vm.Prog, g, scheduled, vm.cfg.JIT)
	if err != nil {
		vm.giveUp(segID, "compile failed: "+err.Error())
		return
	}
	vm.inject(segID, units, traces)
}

// giveUp leaves the segment interpreted for good.
func (vm *VM) giveUp(segID int, why string) {
	vm.transition(StateInterpret, segID, why)
	vm.mu.Lock()
	vm.segs[segID].interpreted = true
	vm.mu.Unlock()
	vm.Interp.SetProfileSampling(segID, settledSampleEvery)
}

// inject installs a segment's traces, one per fragment unit in schedule
// order, beside the units left interpreted.
func (vm *VM) inject(segID int, units []depgraph.Unit, traces []*jit.Trace) {
	seg := vm.Interp.Segments[segID]
	steps := make([]interp.Step, 0, len(units))
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
		if tr.TemplateHit() {
			hits++
		}
	}

	// InjectFunctions: install the partially compiled plan.
	vm.transition(StateInjectFunctions, segID,
		fmt.Sprintf("inject %d traces (%d from cached templates) into %d-step plan", len(traces), hits, len(steps)))
	if err := vm.Interp.InstallPlan(segID, &interp.Plan{Steps: steps}); err != nil {
		vm.giveUp(segID, "inject failed: "+err.Error())
		return
	}
	vm.mu.Lock()
	st := &vm.segs[segID]
	st.compiled = true
	st.traces = traces
	vm.templateHits += hits
	vm.templateMisses += len(traces) - hits
	vm.mu.Unlock()
	vm.Interp.SetProfileSampling(segID, settledSampleEvery)
	vm.transition(StateInterpret, segID, "resume with partially optimized program")
}

// A segment whose optimization is final — compiled, or left interpreted for
// good — is profiled on one execution in settledSampleEvery: the
// per-instruction clock reads are the largest fixed cost of a hot loop, and
// from here on they only feed Stats.
const settledSampleEvery = 16

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
