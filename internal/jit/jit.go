// Package jit turns dependency-graph fragments into compiled traces
// (§III-B "(Partial) Compilation"). A trace is the Go analogue of the
// paper's generated-and-JIT-compiled function:
//
//   - operand access and kernel dispatch are resolved at compile time into
//     direct function pointers (no per-operation lookup at run time);
//   - maximal runs of element-wise operations are fused into a single
//     register-blocked sweep: the run processes the chunk in tile-sized
//     windows, so each window of every intermediate stays L1-resident while
//     all member operations consume it (one pass over the data instead of
//     one pass per operation);
//   - adjacent constant-operand map pairs collapse into a single fused
//     kernel ((a[i] op1 c1) op2 c2), halving memory traffic for constant
//     chains — the loop fusion a real JIT gets from its optimizer;
//   - per-operation profiling disappears; the trace is measured as a whole,
//     which is what the VM's micro-adaptive choice needs;
//   - an optional guard captures the "situation" the trace is specialized
//     for; guard failure falls back to interpretation of the member
//     instructions (deoptimization), matching §III-C's fallback story.
//
// Real machine-code generation is unavailable in Go (no JIT ecosystem); the
// compile-effort side of the paper's trade-off is therefore modeled by a
// configurable latency charged before a trace becomes available. The default
// grows linearly with fragment size, mirroring "optimizer passes tend to
// take longer with an increasing amount of code".
//
// Code is generated per fragment *shape*, not per fragment (shape.go,
// template.go): a template is register- and constant-blind, and a Trace is a
// template bound to one program's registers. The Service (service.go) keeps
// templates in an engine-wide cache and generates missing ones on background
// workers, so the latency above is paid once per shape and never by the
// goroutine that runs the program.
package jit

import (
	"sync/atomic"
	"time"

	"repro/internal/depgraph"
	"repro/internal/interp"
	"repro/internal/nir"
	"repro/internal/profile"
)

// Options configure trace compilation.
type Options struct {
	// TileSize is the register-block window for fused element-wise runs.
	TileSize int
	// CompileLatency models the cost of code generation + optimization for
	// a fragment of n nodes: generating a template stalls for this long
	// before the template becomes available. Nil means
	// DefaultCompileLatency; use NoCompileLatency to disable.
	CompileLatency func(n int) time.Duration
	// Guard, when non-nil, is checked before every trace execution; a false
	// result triggers deoptimization (interpret the member instructions).
	Guard func(*interp.Env) bool
}

// DefaultTileSize keeps the per-window working set of a fused run well
// within L1 (256 × 8 B = 2 KiB per live buffer).
const DefaultTileSize = 256

// DefaultCompileLatency is the simulated cost of generating and optimizing
// machine code for a fragment of n nodes.
func DefaultCompileLatency(n int) time.Duration {
	return 500*time.Microsecond + time.Duration(n)*200*time.Microsecond
}

// NoCompileLatency disables the compile-cost model (for tests).
func NoCompileLatency(int) time.Duration { return 0 }

// Trace is a compiled fragment, pluggable into the interpreter as a plan
// step: a template patched with one program's registers and instructions.
type Trace struct {
	tmpl *template
	binding
	guard func(*interp.Env) bool
	// cached: the template came out of a Service's cache (or an in-flight
	// compile another program had already paid for) instead of being
	// generated for this trace.
	cached bool

	// Stats for the VM's micro-adaptive comparison (atomics: the VM reads
	// them while other goroutines run the trace).
	calls  atomic.Int64
	timed  atomic.Int64
	nanos  atomic.Int64
	deopts atomic.Int64
}

// Compile builds a trace for a fragment, charging the simulated compile
// latency before returning. It generates the fragment's code afresh on the
// caller's goroutine; VMs compile through a Service instead.
func Compile(prog *nir.Program, g *depgraph.Graph, frag *depgraph.Fragment, opt Options) (*Trace, error) {
	s, b := shapeOf(prog, g, frag, opt)
	t, err := compileTemplate(s)
	if err != nil {
		return nil, err
	}
	if d := opt.latency(t.nodes); d > 0 {
		time.Sleep(d)
	}
	return t.bind(b, opt, false), nil
}

// latency is the modeled code-generation time for a fragment of n nodes.
func (o Options) latency(n int) time.Duration {
	if o.CompileLatency == nil {
		return DefaultCompileLatency(n)
	}
	return o.CompileLatency(n)
}

// Covers implements interp.Step.
func (tr *Trace) Covers() []int { return tr.ids }

// Describe implements interp.Step.
func (tr *Trace) Describe() string { return tr.tmpl.label }

// TemplateHit reports whether the trace was instantiated from an already
// generated template rather than compiled for this program.
func (tr *Trace) TemplateHit() bool { return tr.cached }

// Calls returns how often the trace executed (guard passes only).
func (tr *Trace) Calls() int64 { return tr.calls.Load() }

// TimedCalls returns how many executions contributed to NanosPerCall.
func (tr *Trace) TimedCalls() int64 { return tr.timed.Load() }

// Deopts returns how often the guard failed.
func (tr *Trace) Deopts() int64 { return tr.deopts.Load() }

// NanosPerCall reports the trace's observed mean cost over the executions
// that were timed: those the interpreter profiled (all of them until the
// segment's optimization decision is final, a sample afterwards), minus the
// first, which pays one-time buffer allocation and cache warmup that would
// bias the micro-adaptive comparison against fresh traces.
func (tr *Trace) NanosPerCall() float64 {
	c := tr.timed.Load()
	if c <= 0 {
		return 0
	}
	return float64(tr.nanos.Load()) / float64(c)
}

// Run implements interp.Step: execute the compiled ops, or deoptimize to
// the interpreter when the guard fails. The execution is timed only when the
// interpreter profiles it (prof non-nil).
func (tr *Trace) Run(env *interp.Env, prof *profile.Profile) error {
	if tr.guard != nil && !tr.guard(env) {
		tr.deopts.Add(1)
		return tr.deopt(env, prof)
	}
	if prof == nil {
		if err := tr.exec(env); err != nil {
			return err
		}
		tr.calls.Add(1)
		return nil
	}
	start := time.Now()
	if err := tr.exec(env); err != nil {
		return err
	}
	elapsed := time.Since(start).Nanoseconds()
	if tr.calls.Add(1) > 1 {
		tr.nanos.Add(elapsed) // first call is warmup; see NanosPerCall
		tr.timed.Add(1)
	}
	n := 0
	if d := tr.tmpl.firstDst; d >= 0 {
		n = env.FlowOf(tr.regs[d]).Len()
	}
	prof.RecordWeighted(tr.ids[0], n, elapsed, env.ProfWeight())
	return nil
}

func (tr *Trace) exec(env *interp.Env) error {
	for _, op := range tr.tmpl.ops {
		if err := op(tr, env); err != nil {
			return err
		}
	}
	return nil
}

// deopt interprets the member instructions (guard failure path).
func (tr *Trace) deopt(env *interp.Env, prof *profile.Profile) error {
	for _, in := range tr.instrs {
		step := interp.InstrStep{In: in}
		if err := step.Run(env, prof); err != nil {
			return err
		}
	}
	return nil
}
