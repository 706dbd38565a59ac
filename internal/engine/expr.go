package engine

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/dsl"
	"repro/internal/interp"
	"repro/internal/jit"
	"repro/internal/nir"
	"repro/internal/profile"
	"repro/internal/vector"
	"repro/internal/vm"
)

// ErrExpr marks DSL expression lowering failures (parse, check or
// normalization of a lambda), as opposed to schema or binding problems.
// Callers use errors.Is(err, ErrExpr) to classify operator Open errors.
var ErrExpr = errors.New("engine: expression error")

// exprVM wraps a per-operator adaptive VM for a DSL lambda applied to input
// columns. The program is the front-end lowering the paper's §II describes:
// one read per input column, the lambda body as a map, one write.
type exprVM struct {
	vm     *vm.VM
	outVec *vector.Vector
	ext    map[string]*vector.Vector
	inExt  []string // external bound to each input, by position
	kind   vector.Kind
	env    *interp.Env
}

// ExprJIT configures trace compilation in an operator's expression VM.
type ExprJIT struct {
	// On enables compilation; off, the expression is interpreted for good.
	On bool
	// Opt tunes compilation (tile size, opt-in modeled compile latency).
	Opt jit.Options
	// Templates is the engine's template cache. Expression VMs are private
	// to one operator instance of one query, but their traces come from the
	// shared cache, so a lambda shape's code is generated once per engine
	// and not once per operator, worker and query. Nil gives each VM a
	// private cache.
	Templates *jit.Cache
}

// vmConfigForExpr is the expression VMs' configuration: a chunk is one run,
// so the hot check at the end of every run is a check per chunk.
func vmConfigForExpr(j ExprJIT) vm.Config {
	cfg := vm.DefaultConfig()
	cfg.HotCalls = 16
	if !j.On {
		cfg.HotCalls = 1 << 62
		cfg.HotNanos = 1 << 62
	}
	cfg.JIT = j.Opt
	cfg.Templates = j.Templates
	return cfg
}

// exprOut is the external the lowering writes its result to. Every name the
// lowering introduces starts with '#', which begins a comment in the DSL, so
// no lambda can spell one: the lambda sees only its own parameters, and no
// column name can collide with the lowering's own names.
const exprOut = "#out"

// newExprVM lowers "map fn in0 in1 ..." into a VM. The program is built as
// an AST around the already-parsed lambda:
//
//	let #c0 = read 0 #in0 ...
//	let #r = map fn #c0 ...
//	write #out 0 #r
//
// Inputs are named by position, never by column name.
func newExprVM(fn *dsl.Lambda, inKinds []vector.Kind, outKind vector.Kind, j ExprJIT) (*exprVM, error) {
	zero := &dsl.Const{Val: vector.I64Value(0)}
	kinds := map[string]vector.Kind{exprOut: outKind}
	inExt := make([]string, len(inKinds))
	args := make([]dsl.Expr, len(inKinds))
	body := make([]dsl.Stmt, 0, len(inKinds)+2)
	for i, k := range inKinds {
		n := strconv.Itoa(i)
		inExt[i] = "#in" + n
		kinds[inExt[i]] = k
		body = append(body, &dsl.Let{Name: "#c" + n, Val: &dsl.ReadExpr{At: zero, Data: inExt[i]}})
		args[i] = &dsl.VarRef{Name: "#c" + n}
	}
	body = append(body,
		&dsl.Let{Name: "#r", Val: &dsl.MapExpr{Fn: fn, Args: args}},
		&dsl.WriteStmt{Dst: exprOut, At: zero, Val: &dsl.VarRef{Name: "#r"}})
	np, err := nir.Normalize(&dsl.Program{Body: body}, kinds)
	if err != nil {
		return nil, fmt.Errorf("%w: lowering %s: %v", ErrExpr, fn, err)
	}
	e := &exprVM{
		vm:     vm.New(np, vmConfigForExpr(j)),
		outVec: vector.New(outKind, 0, vector.DefaultChunkLen),
		ext:    map[string]*vector.Vector{},
		inExt:  inExt,
		kind:   outKind,
	}
	return e, nil
}

// eval applies the expression to the given input vectors (all the same
// length, no selection) and returns the result vector (valid until the next
// call). ctx flows into the expression VM, whose interpreter checks it at
// segment boundaries.
//
// The generated program reads its inputs with the VM's default chunk count,
// so one run covers at most vector.DefaultChunkLen rows. Operator chunks
// are normally within that bound, but join probes can emit wider chunks
// (every probe row fans out to its whole match list), so oversized inputs
// are evaluated in windows and stitched — element-wise maps make the
// windowing invisible, bit-for-bit.
func (e *exprVM) eval(ctx context.Context, inputs []*vector.Vector) (*vector.Vector, error) {
	n := 0
	if len(inputs) > 0 {
		n = inputs[0].Len()
	}
	if n <= vector.DefaultChunkLen {
		return e.evalWindow(ctx, inputs)
	}
	res := vector.New(e.kind, 0, n)
	wins := make([]*vector.Vector, len(inputs))
	for lo := 0; lo < n; lo += vector.DefaultChunkLen {
		hi := lo + vector.DefaultChunkLen
		if hi > n {
			hi = n
		}
		for i := range inputs {
			wins[i] = inputs[i].Slice(lo, hi)
		}
		out, err := e.evalWindow(ctx, wins)
		if err != nil {
			return nil, err
		}
		res.AppendVector(out)
	}
	return res, nil
}

// evalWindow runs the VM once over inputs of ≤ DefaultChunkLen rows.
func (e *exprVM) evalWindow(ctx context.Context, inputs []*vector.Vector) (*vector.Vector, error) {
	for i, name := range e.inExt {
		e.ext[name] = inputs[i]
	}
	e.outVec.SetLen(0)
	e.ext[exprOut] = e.outVec
	// The environment is created once and reused: rebinding happens through
	// the shared externals map, and register buffers amortize across chunks.
	if e.env == nil {
		env, err := e.vm.NewEnv(e.ext)
		if err != nil {
			return nil, err
		}
		e.env = env
	}
	if err := e.vm.RunContext(ctx, e.env); err != nil {
		return nil, err
	}
	return e.ext[exprOut], nil
}

// Profile exposes the underlying VM profile (for tests and reports).
func (e *exprVM) Profile() *profile.Profile { return e.vm.Interp.Prof }

// EvalMode selects how Compute and Filter treat incoming selection vectors
// (§III-C: "one could also specialize for different selectivities").
type EvalMode int

// Evaluation flavors.
const (
	// EvalAdaptive chooses per chunk from observed selectivity.
	EvalAdaptive EvalMode = iota
	// EvalFull computes over all rows, keeping the selection vector
	// (profitable when most rows are selected: no condense, full SIMD).
	EvalFull
	// EvalSelective condenses the selected rows first and computes only
	// those (profitable when few rows are selected).
	EvalSelective
)

var evalNames = [...]string{EvalAdaptive: "adaptive", EvalFull: "full", EvalSelective: "selective"}

func (m EvalMode) String() string {
	if m >= 0 && int(m) < len(evalNames) {
		return evalNames[m]
	}
	return fmt.Sprintf("EvalMode(%d)", int(m))
}

// fullThreshold is the selectivity above which full evaluation wins (the
// condense overhead exceeds the wasted compute).
const fullThreshold = 0.5

// Compute appends a derived column computed by a DSL lambda over input
// columns.
type Compute struct {
	child   Operator
	outName string
	fn      *dsl.Lambda
	cols    []string
	mode    EvalMode
	evm     *exprVM
	selEW   *profile.EWMA
	outKind vector.Kind
	jit     ExprJIT

	// FullEvals / SelectiveEvals count flavor decisions (for experiments).
	FullEvals, SelectiveEvals int
}

// NewCompute creates a compute operator: out := map fn cols...
// outKind must be the lambda's result kind.
func NewCompute(child Operator, outName string, fn *dsl.Lambda, outKind vector.Kind, cols ...string) *Compute {
	return &Compute{
		child: child, outName: outName, fn: fn, cols: cols,
		outKind: outKind, mode: EvalAdaptive, selEW: profile.NewEWMA(0.3),
		jit: ExprJIT{On: true},
	}
}

// SetMode fixes the evaluation flavor (default adaptive).
func (c *Compute) SetMode(m EvalMode) *Compute { c.mode = m; return c }

// SetJIT configures trace compilation in the expression VM.
func (c *Compute) SetJIT(j ExprJIT) *Compute { c.jit = j; return c }

// Schema implements Operator.
func (c *Compute) Schema() []ColInfo {
	return append(append([]ColInfo{}, c.child.Schema()...), ColInfo{Name: c.outName, Kind: c.outKind})
}

// Open implements Operator.
func (c *Compute) Open(ctx context.Context) error {
	if err := c.child.Open(ctx); err != nil {
		return err
	}
	var kinds []vector.Kind
	for _, col := range c.cols {
		found := false
		for _, ci := range c.child.Schema() {
			if ci.Name == col {
				kinds = append(kinds, ci.Kind)
				found = true
			}
		}
		if !found {
			return fmt.Errorf("engine: compute input %q not produced by child", col)
		}
	}
	evm, err := newExprVM(c.fn, kinds, c.outKind, c.jit)
	if err != nil {
		return err
	}
	c.evm = evm
	return nil
}

// Next implements Operator.
func (c *Compute) Next(ctx context.Context) (*vector.Chunk, error) {
	chunk, err := c.child.Next(ctx)
	if err != nil || chunk == nil {
		return chunk, err
	}
	inputs := make([]*vector.Vector, len(c.cols))

	full := true
	if chunk.Sel() != nil {
		switch c.mode {
		case EvalFull:
			full = true
		case EvalSelective:
			full = false
		default:
			sel := float64(chunk.SelectedLen()) / float64(chunk.Len())
			c.selEW.Observe(sel)
			full = c.selEW.Value(1) >= fullThreshold
		}
	}

	if full {
		c.FullEvals++
		for i, col := range c.cols {
			inputs[i] = chunk.MustColumn(col)
		}
		out, err := c.evm.eval(ctx, inputs)
		if err != nil {
			return nil, err
		}
		res := vector.NewChunk()
		for i := 0; i < chunk.Width(); i++ {
			res.Add(chunk.Name(i), chunk.Col(i))
		}
		res.Add(c.outName, out.Clone())
		res.SetSel(chunk.Sel())
		return res, nil
	}

	// Selective: condense, evaluate the survivors only, re-expand is not
	// needed because the whole chunk is condensed.
	c.SelectiveEvals++
	cc := chunk.Condense()
	for i, col := range c.cols {
		inputs[i] = cc.MustColumn(col)
	}
	out, err := c.evm.eval(ctx, inputs)
	if err != nil {
		return nil, err
	}
	res := vector.NewChunk()
	for i := 0; i < cc.Width(); i++ {
		res.Add(cc.Name(i), cc.Col(i))
	}
	res.Add(c.outName, out.Clone())
	return res, nil
}

// Close implements Operator.
func (c *Compute) Close() error {
	return c.child.Close()
}

// Filter narrows the chunk's selection vector with a DSL predicate.
type Filter struct {
	child Operator
	fn    *dsl.Lambda
	col   string
	mode  EvalMode
	evm   *exprVM
	selEW *profile.EWMA
	jit   ExprJIT

	// Observed counts rows in/out for selectivity reporting.
	RowsIn, RowsOut int64
	// MaskEvals / SelEvals count flavor decisions.
	MaskEvals, SelEvals int
}

// NewFilter creates a filter with predicate fn over one column.
func NewFilter(child Operator, fn *dsl.Lambda, col string) *Filter {
	return &Filter{
		child: child, fn: fn, col: col,
		mode: EvalAdaptive, selEW: profile.NewEWMA(0.3), jit: ExprJIT{On: true},
	}
}

// SetMode fixes the evaluation flavor.
func (f *Filter) SetMode(m EvalMode) *Filter { f.mode = m; return f }

// SetJIT configures trace compilation in the predicate VM.
func (f *Filter) SetJIT(j ExprJIT) *Filter { f.jit = j; return f }

// Selectivity returns the observed pass rate.
func (f *Filter) Selectivity() float64 {
	if f.RowsIn == 0 {
		return 1
	}
	return float64(f.RowsOut) / float64(f.RowsIn)
}

// Schema implements Operator.
func (f *Filter) Schema() []ColInfo { return f.child.Schema() }

// Open implements Operator.
func (f *Filter) Open(ctx context.Context) error {
	if err := f.child.Open(ctx); err != nil {
		return err
	}
	var kind vector.Kind
	found := false
	for _, ci := range f.child.Schema() {
		if ci.Name == f.col {
			kind, found = ci.Kind, true
		}
	}
	if !found {
		return fmt.Errorf("engine: filter column %q not produced by child", f.col)
	}
	evm, err := newExprVM(f.fn, []vector.Kind{kind}, vector.Bool, f.jit)
	if err != nil {
		return err
	}
	f.evm = evm
	return nil
}

// Next implements Operator.
func (f *Filter) Next(ctx context.Context) (*vector.Chunk, error) {
	for {
		chunk, err := f.child.Next(ctx)
		if err != nil || chunk == nil {
			return chunk, err
		}
		f.RowsIn += int64(chunk.SelectedLen())

		// Flavor choice: full (bitmap) evaluation computes the predicate
		// over every physical row and intersects masks — profitable when
		// most rows are alive; selection-vector evaluation condenses first.
		full := true
		if chunk.Sel() != nil {
			switch f.mode {
			case EvalFull:
				full = true
			case EvalSelective:
				full = false
			default:
				full = f.selEW.Value(1) >= fullThreshold
			}
		}

		var out *vector.Chunk
		if full {
			f.MaskEvals++
			mask, err := f.evm.eval(ctx, []*vector.Vector{chunk.MustColumn(f.col)})
			if err != nil {
				return nil, err
			}
			sel := vector.Intersect(chunk.Sel(), vector.SelFromMask(mask.Bool()), chunk.Len())
			out = shallowChunk(chunk)
			out.SetSel(sel)
		} else {
			f.SelEvals++
			cc := chunk.Condense()
			mask, err := f.evm.eval(ctx, []*vector.Vector{cc.MustColumn(f.col)})
			if err != nil {
				return nil, err
			}
			out = shallowChunk(cc)
			out.SetSel(vector.SelFromMask(mask.Bool()))
		}

		passed := out.SelectedLen()
		f.RowsOut += int64(passed)
		if f.RowsIn > 0 {
			f.selEW.Observe(float64(passed) / float64(maxi(1, chunk.SelectedLen())))
		}
		if passed == 0 {
			continue // fully filtered chunk: pull the next one
		}
		return out, nil
	}
}

// Close implements Operator.
func (f *Filter) Close() error {
	return f.child.Close()
}

func shallowChunk(c *vector.Chunk) *vector.Chunk {
	out := vector.NewChunk()
	for i := 0; i < c.Width(); i++ {
		out.Add(c.Name(i), c.Col(i))
	}
	return out
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
