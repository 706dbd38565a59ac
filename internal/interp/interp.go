package interp

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/nir"
	"repro/internal/profile"
)

// errBreak unwinds to the innermost loop.
var errBreak = errors.New("break")

// Step is one unit of an execution plan: either a single interpreted
// instruction or an injected compiled trace covering several instructions.
type Step interface {
	// Run executes the step. prof may be nil (profiling off).
	Run(env *Env, prof *profile.Profile) error
	// Covers returns the instruction IDs the step implements, in execution
	// order.
	Covers() []int
	// Describe returns a short human-readable label for reports.
	Describe() string
}

// InstrStep interprets one instruction via a pre-compiled kernel.
type InstrStep struct {
	In *nir.Instr
}

// Run implements Step.
func (s *InstrStep) Run(env *Env, prof *profile.Profile) error {
	if prof == nil {
		_, err := ExecInstr(env, s.In)
		return err
	}
	start := time.Now()
	tuples, err := ExecInstr(env, s.In)
	if err != nil {
		return err
	}
	prof.RecordWeighted(s.In.ID, tuples, time.Since(start).Nanoseconds(), env.ProfWeight())
	if s.In.Op == nir.OpSelect || s.In.Op == nir.OpSelectCmp {
		in := env.FlowOf(s.In.A).Len()
		out := env.FlowOf(s.In.Dst).Len()
		prof.RecordSel(s.In.ID, in, out)
	}
	return nil
}

// Covers implements Step.
func (s *InstrStep) Covers() []int { return []int{s.In.ID} }

// Describe implements Step.
func (s *InstrStep) Describe() string { return fmt.Sprintf("interp[%s]", s.In) }

// Plan is the execution plan of one straight-line segment. Plans are
// immutable once installed; the VM swaps them atomically.
type Plan struct {
	Steps []Step
}

// Segment is a maximal straight-line run of instructions between control
// flow constructs. Segments are the injection sites for compiled traces
// (§III-B: each generated function is "directly plugged into the
// interpreter").
type Segment struct {
	ID     int
	Instrs []*nir.Instr
}

// DefaultPlan returns the fully interpreted plan for a segment.
func (s *Segment) DefaultPlan() *Plan {
	steps := make([]Step, len(s.Instrs))
	for i, in := range s.Instrs {
		steps[i] = &InstrStep{In: in}
	}
	return &Plan{Steps: steps}
}

// execNode is the prepared control-flow tree.
type execNode interface{ execTag() }

type segNode struct{ seg int }
type loopNode struct{ body []execNode }
type ifNode struct {
	cond nir.Reg
	then []execNode
	els  []execNode
}
type breakNode struct{}

func (*segNode) execTag()   {}
func (*loopNode) execTag()  {}
func (*ifNode) execTag()    {}
func (*breakNode) execTag() {}

// Interpreter executes a normalized program chunk-at-a-time. It owns the
// program's segments and their (swappable) execution plans.
type Interpreter struct {
	Prog     *nir.Program
	Segments []*Segment
	plans    []atomic.Pointer[Plan]
	// sampleEvery[seg] > 1 profiles only one execution in that many of the
	// segment (see SetProfileSampling); sampleTick[seg] counts them. The
	// count belongs to the interpreter, not to an environment, so which
	// executions are sampled is unrelated to where a run starts: a run's
	// first chunk, which allocates the register buffers, is as likely to be
	// picked as any other.
	sampleEvery []atomic.Int32
	sampleTick  []atomic.Uint32
	tree        []execNode

	// Prof receives per-instruction statistics when Profiling is true.
	Prof      *profile.Profile
	Profiling bool
}

// New prepares an interpreter for prog with default (fully interpreted)
// plans and a fresh profile.
func New(prog *nir.Program) *Interpreter {
	it := &Interpreter{
		Prog: prog,
		Prof: profile.New(prog.NumInstrs),
	}
	it.tree = it.build(prog.Body)
	it.plans = make([]atomic.Pointer[Plan], len(it.Segments))
	it.sampleEvery = make([]atomic.Int32, len(it.Segments))
	it.sampleTick = make([]atomic.Uint32, len(it.Segments))
	for i, seg := range it.Segments {
		it.plans[i].Store(seg.DefaultPlan())
	}
	return it
}

func (it *Interpreter) build(nodes []nir.Node) []execNode {
	var out []execNode
	var cur []*nir.Instr
	flush := func() {
		if len(cur) == 0 {
			return
		}
		seg := &Segment{ID: len(it.Segments), Instrs: cur}
		it.Segments = append(it.Segments, seg)
		out = append(out, &segNode{seg: seg.ID})
		cur = nil
	}
	for _, n := range nodes {
		switch n := n.(type) {
		case *nir.InstrNode:
			cur = append(cur, n.Instr)
		case *nir.LoopNode:
			flush()
			out = append(out, &loopNode{body: it.build(n.Body)})
		case *nir.IfNode:
			flush()
			out = append(out, &ifNode{cond: n.Cond, then: it.build(n.Then), els: it.build(n.Else)})
		case *nir.BreakNode:
			flush()
			out = append(out, &breakNode{})
		}
	}
	flush()
	return out
}

// InstallPlan atomically replaces the plan of segment segID. It validates
// that the plan covers exactly the segment's instructions in a
// dependency-respecting order.
func (it *Interpreter) InstallPlan(segID int, p *Plan) error {
	seg := it.Segments[segID]
	want := map[int]bool{}
	for _, in := range seg.Instrs {
		want[in.ID] = true
	}
	got := map[int]bool{}
	for _, st := range p.Steps {
		for _, id := range st.Covers() {
			if !want[id] {
				return fmt.Errorf("interp: plan covers foreign instruction %d", id)
			}
			if got[id] {
				return fmt.Errorf("interp: plan covers instruction %d twice", id)
			}
			got[id] = true
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("interp: plan covers %d of %d instructions", len(got), len(want))
	}
	it.plans[segID].Store(p)
	return nil
}

// SetProfileSampling makes segment segID profile only one execution in
// every (≤ 1 = all of them, the default). The VM thins profiling out once a
// segment's optimization decision is final: the per-instruction clock reads
// are the dominant interpretation overhead of a hot loop, and a settled
// segment only needs them to keep Stats fed. Sampled executions are
// recorded with weight every, so counters stay estimates of the true
// totals.
func (it *Interpreter) SetProfileSampling(segID, every int) {
	it.sampleEvery[segID].Store(int32(every))
}

// Plan returns the currently installed plan of a segment.
func (it *Interpreter) Plan(segID int) *Plan { return it.plans[segID].Load() }

// Run executes the whole program against env.
func (it *Interpreter) Run(env *Env) error {
	return it.RunContext(context.Background(), env)
}

// RunContext executes the whole program against env, honoring ctx:
// cancellation and deadlines are checked at segment boundaries — i.e. once
// per chunk of a chunk-at-a-time loop — so long runs abort promptly without
// per-element overhead. The returned error wraps ctx.Err() when the run was
// cut short.
func (it *Interpreter) RunContext(ctx context.Context, env *Env) error {
	env.ctx = ctx
	defer func() { env.ctx = nil }()
	err := it.runNodes(it.tree, env)
	if errors.Is(err, errBreak) {
		return fmt.Errorf("interp: break outside loop at runtime")
	}
	return err
}

func (it *Interpreter) runNodes(nodes []execNode, env *Env) error {
	for _, n := range nodes {
		switch n := n.(type) {
		case *segNode:
			if env.ctx != nil {
				if err := env.ctx.Err(); err != nil {
					return fmt.Errorf("interp: run cancelled: %w", err)
				}
			}
			if env.poll != nil {
				env.poll()
			}
			plan := it.plans[n.seg].Load()
			prof := it.Prof
			env.profWeight = 1
			if !it.Profiling {
				prof = nil
			} else if every := it.sampleEvery[n.seg].Load(); every > 1 {
				if it.sampleTick[n.seg].Add(1)%uint32(every) != 0 {
					prof = nil
				}
				env.profWeight = int(every)
			}
			for _, step := range plan.Steps {
				if err := step.Run(env, prof); err != nil {
					return err
				}
			}
		case *loopNode:
			for {
				err := it.runNodes(n.body, env)
				if err == nil {
					continue
				}
				if errors.Is(err, errBreak) {
					break
				}
				return err
			}
		case *ifNode:
			if env.ScalarOf(n.cond).B {
				if err := it.runNodes(n.then, env); err != nil {
					return err
				}
			} else if len(n.els) > 0 {
				if err := it.runNodes(n.els, env); err != nil {
					return err
				}
			}
		case *breakNode:
			return errBreak
		}
	}
	return nil
}

// SegmentOf returns the segment that contains the instruction with the given
// ID, or -1.
func (it *Interpreter) SegmentOf(instrID int) int {
	for _, seg := range it.Segments {
		for _, in := range seg.Instrs {
			if in.ID == instrID {
				return seg.ID
			}
		}
	}
	return -1
}
