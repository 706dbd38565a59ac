package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/advm"
)

// Frozen sizes of vm_programs.
const (
	hotElems   = 256 << 10 // elements a hot program sweeps
	coldElems  = 128 << 10 // elements a cold program sweeps, twice
	histElems  = 32 << 10  // the histogram program's single whole-array read
	histBins   = 256
	coldPerRun = 40 // never-seen programs in the cold pass, beside the 8 hot ones
)

// program is one DSL program with its bindings and an independent reference.
type program struct {
	name  string
	src   string
	kinds map[string]advm.Kind
	bind  map[string]*advm.Vector
	// outputs names the bindings the program writes; reset puts them back
	// to their pre-run state.
	outputs []string
	reset   func()
	// want computes the reference outputs by plain Go loops, by output name
	// ([]int64 or []float64); it is cached after the first call.
	want    func() map[string]any
	wantVal map[string]any
	runs    int // executions per op (a cold program runs twice)
	corrupt bool
}

// loopSrc is the chunked read loop every streaming program shares: body
// sees the chunk as xs and advances nothing itself.
func loopSrc(decl, body, tail string) string {
	return "mut i\n" + decl + "i := 0\nloop {\n  let xs = read i d\n  if len(xs) == 0 then break\n" +
		body + "  i := i + len(xs)\n}\n" + tail
}

// chainStep is one element-wise step of a map chain with its Go twin.
type chainStep struct {
	lambda string
	apply  func(int64) int64
}

var chainSteps = []chainStep{
	{`(\x -> x * 3)`, func(x int64) int64 { return x * 3 }},
	{`(\x -> x + 7)`, func(x int64) int64 { return x + 7 }},
	{`(\x -> x - 2)`, func(x int64) int64 { return x - 2 }},
	{`(\x -> x * 5)`, func(x int64) int64 { return x * 5 }},
	{`(\x -> x + 11)`, func(x int64) int64 { return x + 11 }},
	{`(\x -> x - 13)`, func(x int64) int64 { return x - 13 }},
	{`(\x -> x * 2)`, func(x int64) int64 { return x * 2 }},
	{`(\x -> x + 1)`, func(x int64) int64 { return x + 1 }},
}

// scalarOut is the output binding of a program that ends in one folded
// value: a one-element array.
const scalarTail = "write o 0 (gen (\\j -> t) 1)\n"

// chainProgram is a map chain of the given length folded to a sum.
func chainProgram(length int, d []int64) *program {
	var body strings.Builder
	prev := "xs"
	for s := 0; s < length; s++ {
		fmt.Fprintf(&body, "  let a%d = map %s %s\n", s, chainSteps[s].lambda, prev)
		prev = fmt.Sprintf("a%d", s)
	}
	fmt.Fprintf(&body, "  t := t + fold (\\acc x -> acc + x) 0 %s\n", prev)
	o := advm.NewVector(advm.I64, 0, 1)
	return &program{
		name:    fmt.Sprintf("chain%d", length),
		src:     loopSrc("mut t\nt := 0\n", body.String(), scalarTail),
		kinds:   map[string]advm.Kind{"d": advm.I64, "o": advm.I64},
		bind:    map[string]*advm.Vector{"d": advm.FromI64(d), "o": o},
		outputs: []string{"o"},
		reset:   func() { o.SetLen(0) },
		want: func() map[string]any {
			var t int64
			for _, x := range d {
				for s := 0; s < length; s++ {
					x = chainSteps[s].apply(x)
				}
				t += x
			}
			return map[string]any{"o": []int64{t}}
		},
		runs: 1,
	}
}

// figure2Program is the paper's Figure-2 loop: v gets twice every element,
// w the doubled elements that are positive, condensed.
func figure2Program(d []int64) *program {
	body := "  let a = map (\\x -> 2*x) xs\n  let b = condense (filter (\\x -> x > 0) a)\n" +
		"  write v i a\n  write w k b\n  k := k + len(b)\n"
	v, w := advm.NewVector(advm.I64, 0, len(d)), advm.NewVector(advm.I64, 0, len(d))
	return &program{
		name:    "figure2",
		src:     loopSrc("mut k\nk := 0\n", body, ""),
		kinds:   map[string]advm.Kind{"d": advm.I64, "v": advm.I64, "w": advm.I64},
		bind:    map[string]*advm.Vector{"d": advm.FromI64(d), "v": v, "w": w},
		outputs: []string{"v", "w"},
		reset:   func() { v.SetLen(0); w.SetLen(0) },
		want: func() map[string]any {
			vs, ws := make([]int64, 0, len(d)), make([]int64, 0, len(d))
			for _, x := range d {
				vs = append(vs, 2*x)
				if 2*x > 0 {
					ws = append(ws, 2*x)
				}
			}
			return map[string]any{"v": vs, "w": ws}
		},
		runs: 1,
	}
}

// filterProgram keeps the elements above thr, condensed: thr sets the
// selectivity.
func filterProgram(name string, thr int64, d []int64) *program {
	body := fmt.Sprintf("  let f = condense (filter (\\x -> x > %d) xs)\n  write o k f\n  k := k + len(f)\n", thr)
	o := advm.NewVector(advm.I64, 0, len(d))
	return &program{
		name:    name,
		src:     loopSrc("mut k\nk := 0\n", body, ""),
		kinds:   map[string]advm.Kind{"d": advm.I64, "o": advm.I64},
		bind:    map[string]*advm.Vector{"d": advm.FromI64(d), "o": o},
		outputs: []string{"o"},
		reset:   func() { o.SetLen(0) },
		want: func() map[string]any {
			out := make([]int64, 0, len(d))
			for _, x := range d {
				if x > thr {
					out = append(out, x)
				}
			}
			return map[string]any{"o": out}
		},
		runs: 1,
	}
}

// floatChainProgram is an f64 chain with a two-array step, folded.
func floatChainProgram(d []float64) *program {
	body := "  let a = map (\\x -> x * 1.5) xs\n  let b = map (\\x -> x + 2.0) a\n" +
		"  let c = map (\\x y -> x * y) b xs\n  t := t + fold (\\acc x -> acc + x) 0.0 c\n"
	o := advm.NewVector(advm.F64, 0, 1)
	return &program{
		name:    "fchain",
		src:     loopSrc("mut t\nt := 0.0\n", body, scalarTail),
		kinds:   map[string]advm.Kind{"d": advm.F64, "o": advm.F64},
		bind:    map[string]*advm.Vector{"d": advm.FromF64(d), "o": o},
		outputs: []string{"o"},
		reset:   func() { o.SetLen(0) },
		want: func() map[string]any {
			var t float64
			for _, x := range d {
				t += (x*1.5 + 2.0) * x
			}
			return map[string]any{"o": []float64{t}}
		},
		runs: 1,
	}
}

// histogramProgram buckets one whole-array read, gathers a weight per
// bucket and scatter-sums the weights: hist[b] = occurrences(b) · lut[b].
func histogramProgram(d, lut []int64) *program {
	src := fmt.Sprintf("let xs = read 0 d %d\nlet ks = map (\\x -> x & %d) xs\n"+
		"let ws = gather lut ks\nscatter hist ks ws sum\n", len(d), histBins-1)
	hist := advm.NewVectorLen(advm.I64, histBins)
	return &program{
		name:    "histogram",
		src:     src,
		kinds:   map[string]advm.Kind{"d": advm.I64, "lut": advm.I64, "hist": advm.I64},
		bind:    map[string]*advm.Vector{"d": advm.FromI64(d), "lut": advm.FromI64(lut), "hist": hist},
		outputs: []string{"hist"},
		reset:   func() { clear(hist.I64()) },
		want: func() map[string]any {
			out := make([]int64, histBins)
			for _, x := range d {
				out[x&(histBins-1)] += lut[x&(histBins-1)]
			}
			return map[string]any{"hist": out}
		},
		runs: 1,
	}
}

// coldChain is how many element-wise steps a cold program stacks between
// its first map and its filter: enough operators that compiling it and
// running it twice costs more than any hot op, so p95_ms sits inside the
// cold class.
const coldChain = 10

// coldProgram is a program no engine has seen: its constants — and so its
// fingerprint — are fresh. It maps, filters and folds, and runs twice.
func coldProgram(a, b, thr int64, d []int64) *program {
	var body strings.Builder
	fmt.Fprintf(&body, "  let m0 = map (\\x -> x * %d + %d) xs\n", a, b)
	for s := 1; s <= coldChain; s++ {
		fmt.Fprintf(&body, "  let m%d = map %s m%d\n", s, chainSteps[s%len(chainSteps)].lambda, s-1)
	}
	fmt.Fprintf(&body, "  let f = condense (filter (\\x -> x > %d) m%d)\n"+
		"  let g = map (\\x -> x - %d) f\n"+
		"  t := t + fold (\\acc x -> acc + x) 0 g\n", thr, coldChain, b)
	o := advm.NewVector(advm.I64, 0, 1)
	return &program{
		name:    "cold",
		src:     loopSrc("mut t\nt := 0\n", body.String(), scalarTail),
		kinds:   map[string]advm.Kind{"d": advm.I64, "o": advm.I64},
		bind:    map[string]*advm.Vector{"d": advm.FromI64(d), "o": o},
		outputs: []string{"o"},
		reset:   func() { o.SetLen(0) },
		want: func() map[string]any {
			var t int64
			for _, x := range d {
				m := x*a + b
				for s := 1; s <= coldChain; s++ {
					m = chainSteps[s%len(chainSteps)].apply(m)
				}
				if m > thr {
					t += m - b
				}
			}
			return map[string]any{"o": []int64{t}}
		},
		runs: 2,
	}
}

// reference returns the program's reference outputs, computed once
// (perturbed under -corrupt-ref).
func (p *program) reference() map[string]any {
	if p.wantVal == nil {
		p.wantVal = p.want()
		if p.corrupt {
			for _, v := range p.wantVal {
				switch xs := v.(type) {
				case []int64:
					xs[0]++
				case []float64:
					xs[0] = xs[0]*1.001 + 1
				}
			}
		}
	}
	return p.wantVal
}

func compareInts(prog, name string, got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: output %s has %d elements, reference %d", prog, name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: %s[%d] = %d, reference %d", prog, name, i, got[i], want[i])
		}
	}
	return nil
}

// digest folds an integer array into one word that moves when any element
// or the order changes: element i weighs 2i+k, an odd and so invertible
// factor. The sum carries no dependency from one product to the next, so it
// runs at memory speed.
func digest(xs []int64) uint64 {
	var h uint64
	for i, x := range xs {
		h += uint64(x) * (2*uint64(i) + 0x9e3779b97f4a7c15)
	}
	return h
}

// output is what an op keeps of one output binding until its result is
// checked: a float output (one folded value) as a copy, an integer output —
// up to 256 k elements, overwritten by the program's next run — as its
// length and digest.
type output struct {
	floats []float64
	n      int
	sum    uint64
}

// drain reads every output binding once, as draining the rows of a query
// does: it is the last thing an op's latency clock sees. What it keeps is
// compared with the reference after the phase's clock has stopped.
func (p *program) drain() map[string]output {
	outs := make(map[string]output, 2)
	for _, name := range p.outputs {
		v := p.bind[name]
		if p.kinds[name] == advm.F64 {
			outs[name] = output{floats: append([]float64(nil), v.F64()...)}
		} else {
			outs[name] = output{n: v.Len(), sum: digest(v.I64())}
		}
	}
	return outs
}

// verify compares what an op kept of its outputs with the program's
// reference.
func (p *program) verify(outs map[string]output) error {
	for name, v := range p.reference() {
		got := outs[name]
		switch want := v.(type) {
		case []int64:
			if got.n != len(want) {
				return fmt.Errorf("%s: output %s has %d elements, reference %d", p.name, name, got.n, len(want))
			}
			if got.sum != digest(want) {
				return fmt.Errorf("%s: output %s (%d elements) differs from its reference", p.name, name, got.n)
			}
		case []float64:
			if len(got.floats) != len(want) {
				return fmt.Errorf("%s: output %s has %d elements, reference %d", p.name, name, len(got.floats), len(want))
			}
			for i := range want {
				if !nearRel(got.floats[i], want[i], refEps) {
					return fmt.Errorf("%s: %s[%d] = %v, reference %v", p.name, name, i, got.floats[i], want[i])
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------

// vmWorkload drives Engine.Prepare + Prepared.Run directly: the paper's own
// interpret → profile → partition → JIT → inject → revert loop, with no
// relational layer on top.
type vmWorkload struct {
	cfg  *runConfig
	eng  *advm.Engine
	cold []int64 // the array cold programs sweep
	hot  []*program
	// coldSeq makes every cold program's constants unique within a run.
	coldSeq int64
}

func newVMWorkload(cfg *runConfig) *vmWorkload { return &vmWorkload{cfg: cfg} }

func (w *vmWorkload) engine() *advm.Engine { return w.eng }

func (w *vmWorkload) close() {
	if w.eng != nil {
		w.eng.Close()
	}
}

func (w *vmWorkload) setup() error {
	hotN, coldN, histN := hotElems, coldElems, histElems
	if w.cfg.smoke {
		hotN, coldN, histN = 8<<10, 4<<10, 2<<10
	}
	rng := rand.New(rand.NewSource(w.cfg.seed))
	ints := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = rng.Int63n(1000) - 500
		}
		return out
	}
	d := ints(hotN)
	w.cold = ints(coldN)
	fd := make([]float64, hotN)
	for i := range fd {
		fd[i] = rng.Float64() * 1000
	}
	lut := make([]int64, histBins)
	for i := range lut {
		lut[i] = rng.Int63n(100) + 1
	}
	// Rank order is fixed, not seeded: the hot class's cost mix is the same
	// for every seed.
	w.hot = []*program{
		figure2Program(d),
		chainProgram(4, d),
		filterProgram("sel10", 400, d),
		chainProgram(2, d),
		floatChainProgram(fd),
		chainProgram(8, d),
		filterProgram("sel90", -400, d),
		histogramProgram(d[:histN], lut),
	}
	var err error
	w.eng, err = advm.NewEngine(w.cfg.engineOptions()...)
	return err
}

func (w *vmWorkload) newCold(rng *rand.Rand) *entry {
	w.coldSeq++
	p := coldProgram(2+w.coldSeq, rng.Int63n(1000), rng.Int63n(2_000_000)-1_000_000, w.cold)
	return &entry{class: "prog_cold", params: p}
}

func (w *vmWorkload) buildPool(rng *rand.Rand) *pool {
	p := &pool{}
	var hot []*entry
	for _, prog := range w.hot {
		hot = append(hot, &entry{class: "prog_hot", params: prog})
	}
	p.warm = hot
	p.cold = append(p.cold, hot...)
	for i := 0; i < coldPerRun; i++ {
		p.cold = append(p.cold, w.newCold(rng))
	}
	z := newZipf(len(hot), 1.1)
	p.next = dealSchedule(rng,
		lane{7, func() *entry { return hot[z.draw(rng)] }},
		lane{3, func() *entry { return w.newCold(rng) }})
	return p
}

func (w *vmWorkload) exec(ctx context.Context, oc *opCtx, e *entry) error {
	p := e.params.(*program)
	sp := oc.begin("advm.prepare")
	prep, err := w.eng.Prepare(p.src, p.kinds)
	oc.obs.opened = time.Now()
	oc.end(sp)
	if err != nil {
		return err
	}
	for run := 0; run < p.runs; run++ {
		p.reset()
		sp := oc.begin("advm.run")
		err := prep.Run(ctx, p.bind)
		oc.end(sp)
		if err != nil {
			return err
		}
	}
	sp = oc.begin("advm.drain")
	outs := p.drain()
	oc.obs.end = time.Now()
	oc.end(sp)
	oc.obs.deferred = func() error { return p.verify(outs) }
	return nil
}
