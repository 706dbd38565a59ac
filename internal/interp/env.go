// Package interp is the vectorized interpreter (§III-A): it executes
// normalized programs chunk-at-a-time by dispatching every instruction to a
// pre-compiled kernel from package primitive, collecting profiling data as it
// goes. It also defines the runtime environment (register file + external
// array bindings) shared with fused traces (package jit) and the execution
// plan mechanism through which the VM injects compiled code.
package interp

import (
	"context"
	"fmt"

	"repro/internal/nir"
	"repro/internal/vector"
)

// Flow is a runtime data-parallel value: a vector plus an optional selection
// vector. Filters narrow Sel; condense materializes it away.
type Flow struct {
	Vec *vector.Vector
	Sel vector.Sel
}

// Len returns the selected length of the flow.
func (f Flow) Len() int {
	if f.Vec == nil {
		return 0
	}
	return f.Sel.Count(f.Vec.Len())
}

// Condensed returns the flow's selected values materialized contiguously.
func (f Flow) Condensed() *vector.Vector {
	return vector.Condense(f.Vec, f.Sel)
}

// Slot is the runtime value of one register: either a scalar or a flow.
type Slot struct {
	Scalar vector.Value
	Flow   Flow
	// buf is the register's private output buffer, reused chunk to chunk
	// to avoid per-chunk allocation.
	buf *vector.Vector
}

// Env is the runtime environment of one program execution: the register
// file and the external array bindings.
type Env struct {
	Prog *nir.Program
	Regs []Slot
	Ext  map[string]*vector.Vector

	// ctx, when non-nil, is checked at segment boundaries so long-running
	// executions honor cancellation and deadlines. It is installed for the
	// duration of one RunContext call.
	ctx context.Context
	// poll, when non-nil, runs at the same boundaries. The VM uses it to
	// examine the profile on the interpreting goroutine, so noticing a hot
	// segment does not depend on a background goroutine winning the
	// scheduler (GOMAXPROCS=1).
	poll func()

	// profWeight is the number of executions the one being profiled stands
	// for (see Interpreter.SetProfileSampling).
	profWeight int
	// scratch is reusable per-chunk working storage for compiled traces.
	scratch []*vector.Vector
}

// SetPoll installs a function invoked at segment boundaries while the
// environment executes. The VM uses it for its hot checks.
func (e *Env) SetPoll(poll func()) { e.poll = poll }

// ProfWeight is the number of executions the step being profiled stands for;
// steps pass it to Profile.RecordWeighted.
func (e *Env) ProfWeight() int { return e.profWeight }

// Scratch returns a zeroed slice of n vector slots that stays valid until
// the next Scratch call on this environment. Traces use it for their
// per-chunk operand tables instead of allocating one per chunk.
func (e *Env) Scratch(n int) []*vector.Vector {
	if cap(e.scratch) < n {
		e.scratch = make([]*vector.Vector, n)
	}
	s := e.scratch[:n]
	clear(s)
	return s
}

// NewEnv creates an environment for prog with the given external bindings.
// Every external declared by the program must be bound; missing or
// wrongly-typed bindings are reported as errors.
func NewEnv(prog *nir.Program, ext map[string]*vector.Vector) (*Env, error) {
	for _, e := range prog.Externals {
		v, ok := ext[e.Name]
		if !ok {
			return nil, fmt.Errorf("interp: external array %q is not bound", e.Name)
		}
		if v.Kind() != e.Kind {
			return nil, fmt.Errorf("interp: external %q bound with kind %v, program expects %v", e.Name, v.Kind(), e.Kind)
		}
	}
	return &Env{
		Prog:       prog,
		Regs:       make([]Slot, len(prog.Regs)),
		Ext:        ext,
		profWeight: 1,
	}, nil
}

// Reset clears register contents (buffers are kept for reuse).
func (e *Env) Reset() {
	for i := range e.Regs {
		e.Regs[i].Scalar = vector.Value{}
		e.Regs[i].Flow = Flow{}
	}
}

// ScalarOf returns the scalar value in register r.
func (e *Env) ScalarOf(r nir.Reg) vector.Value { return e.Regs[r].Scalar }

// FlowOf returns the flow in register r.
func (e *Env) FlowOf(r nir.Reg) Flow { return e.Regs[r].Flow }

// SetScalar stores a scalar into register r.
func (e *Env) SetScalar(r nir.Reg, v vector.Value) { e.Regs[r].Scalar = v }

// SetFlow stores a flow into register r.
func (e *Env) SetFlow(r nir.Reg, f Flow) { e.Regs[r].Flow = f }

// OutBuf returns register r's private output buffer resized to n elements of
// kind k, allocating it on first use.
func (e *Env) OutBuf(r nir.Reg, k vector.Kind, n int) *vector.Vector {
	s := &e.Regs[r]
	if s.buf == nil || s.buf.Kind() != k {
		c := n
		if c < vector.DefaultChunkLen {
			c = vector.DefaultChunkLen
		}
		s.buf = vector.New(k, n, c)
		return s.buf
	}
	s.buf.SetLen(n)
	return s.buf
}

// ScalarInt reads register r as an int64 (the register must hold an integer
// scalar).
func (e *Env) ScalarInt(r nir.Reg) int64 { return e.Regs[r].Scalar.I }

// External returns the bound external array by name.
func (e *Env) External(name string) (*vector.Vector, error) {
	v, ok := e.Ext[name]
	if !ok {
		return nil, fmt.Errorf("interp: external %q not bound", name)
	}
	return v, nil
}
