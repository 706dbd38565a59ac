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
//   - per-operation profiling disappears; the trace is measured as a whole
//     and recorded under its first member instruction.
//
// Real machine-code generation is unavailable in Go (no JIT ecosystem), so
// a trace is built from Go closures, and building one costs microseconds.
// The compile-effort side of the paper's trade-off can still be studied
// through an opt-in latency model (Options.CompileLatency, e.g.
// DefaultCompileLatency, which grows linearly with fragment size, mirroring
// "optimizer passes tend to take longer with an increasing amount of code");
// without one, code generation costs what it costs.
//
// Code is generated per fragment *shape*, not per fragment (shape.go,
// template.go): a template is register- and constant-blind, and a Trace is a
// template bound to one program's registers. The Cache (cache.go) keeps
// templates engine-wide and generates a missing one inline, on the goroutine
// that asks for it, so each shape is generated once and every later fragment
// of that shape is only bound.
package jit

import (
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
	// CompileLatency, when non-nil, models the cost of code generation +
	// optimization for a fragment of n nodes: the goroutine that generates
	// a template stalls for this long before its trace is returned. Nil
	// means no modeled cost.
	CompileLatency func(n int) time.Duration
}

// DefaultTileSize keeps the per-window working set of a fused run well
// within L1 (256 × 8 B = 2 KiB per live buffer).
const DefaultTileSize = 256

// DefaultCompileLatency is a simulated cost of generating and optimizing
// machine code for a fragment of n nodes, for studies of the compile-effort
// trade-off (the paper's short- versus long-running programs).
func DefaultCompileLatency(n int) time.Duration {
	return 500*time.Microsecond + time.Duration(n)*200*time.Microsecond
}

// Trace is a compiled fragment, pluggable into the interpreter as a plan
// step: a template patched with one program's registers and instructions.
type Trace struct {
	tmpl *template
	binding
	// cached: the template came out of a Cache instead of being generated
	// for this trace.
	cached bool
}

// Compile builds a trace for a fragment, charging the modeled compile
// latency, if any, before returning. It generates the fragment's code afresh;
// VMs compile through a Cache instead.
func Compile(prog *nir.Program, g *depgraph.Graph, frag *depgraph.Fragment, opt Options) (*Trace, error) {
	s, b := shapeOf(prog, g, frag, opt)
	t, err := compileTemplate(s)
	if err != nil {
		return nil, err
	}
	if d := opt.latency(t.nodes); d > 0 {
		time.Sleep(d)
	}
	return t.bind(b, false), nil
}

// latency is the modeled code-generation time for a fragment of n nodes.
func (o Options) latency(n int) time.Duration {
	if o.CompileLatency == nil {
		return 0
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

// Run implements interp.Step: execute the compiled ops. The execution is
// timed and recorded only when the interpreter profiles it (prof non-nil).
func (tr *Trace) Run(env *interp.Env, prof *profile.Profile) error {
	if prof == nil {
		return tr.exec(env)
	}
	start := time.Now()
	if err := tr.exec(env); err != nil {
		return err
	}
	elapsed := time.Since(start).Nanoseconds()
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
