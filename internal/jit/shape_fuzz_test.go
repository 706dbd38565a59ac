package jit

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/depgraph"
	"repro/internal/dsl"
	"repro/internal/interp"
	"repro/internal/nir"
	"repro/internal/vector"
)

// keySeen maps shape key → canonical dump of a fragment that produced it, so
// the fuzzer detects two fragments that differ in more than immediates
// sharing one key (which would let the template cache run one program's code
// for another). sync.Map because go test may fuzz in parallel workers.
var keySeen sync.Map

var (
	fuzzOps   = []string{"+", "-", "*", "/", "&", "|"}
	fuzzKinds = []vector.Kind{vector.I64, vector.I32, vector.I16, vector.F64}
)

// fuzzProgram is a two-map program over one chunk. flow picks the second
// map's dataflow: a constant operand, the first map's input again, or the
// first map's result twice; escape additionally writes the first map's
// result out, so it is read outside whatever fragment holds the maps.
func fuzzProgram(op1, op2 string, c1, c2 int64, flow int, escape bool) string {
	var second string
	switch flow {
	case 0:
		second = fmt.Sprintf(`map (\x -> x %s %d) a`, op2, c2)
	case 1:
		second = fmt.Sprintf(`map (\x y -> x %s y) a xs`, op2)
	default:
		second = fmt.Sprintf(`map (\x y -> x %s y) a a`, op2)
	}
	src := fmt.Sprintf("let xs = read 0 data 512\nlet a = map (\\x -> x %s %d) xs\nlet b = %s\nwrite out 0 b\n", op1, c1, second)
	if escape {
		src += "write out2 0 a\n"
	}
	return src
}

// canonFragment renders a fragment with everything a template may depend
// on and nothing else, independently of shape.go: registers renumbered by
// first appearance (destination first, unlike shapeOf), immediates, names
// and external names left out.
func canonFragment(prog *nir.Program, g *depgraph.Graph, frag *depgraph.Fragment, opt Options) string {
	member := map[*nir.Instr]bool{}
	for _, n := range frag.Nodes {
		member[g.Nodes[n].Instr] = true
	}
	readOutside := map[nir.Reg]bool{}
	prog.Walk(func(in *nir.Instr) {
		if !member[in] {
			for _, r := range in.Uses() {
				readOutside[r] = true
			}
		}
	})
	num := map[nir.Reg]int{}
	reg := func(r nir.Reg) string {
		if r == nir.NoReg {
			return "_"
		}
		if _, ok := num[r]; !ok {
			num[r] = len(num)
		}
		ri := prog.Reg(r)
		return fmt.Sprintf("%d:%v:%v", num[r], ri.Kind, ri.Scalar)
	}
	exts := map[string]int{}
	var sb strings.Builder
	fmt.Fprintf(&sb, "tile=%d\n", opt.TileSize)
	for _, n := range frag.Nodes {
		in := g.Nodes[n].Instr
		ext := "_"
		if in.Data != "" {
			if _, ok := exts[in.Data]; !ok {
				exts[in.Data] = len(exts)
			}
			ext = fmt.Sprintf("%d:%v", exts[in.Data], prog.ExternalKind(in.Data))
		}
		fmt.Fprintf(&sb, "%v/%v/%v/%v/%v/%v/%v dst=%s a=%s b=%s c=%s ext=%s esc=%v\n",
			in.Op, in.Arith, in.Cmp, in.Unary, in.Kind, in.Merge, in.Conf,
			reg(in.Dst), reg(in.A), reg(in.B), reg(in.C), ext,
			in.Dst != nir.NoReg && readOutside[in.Dst])
	}
	return sb.String()
}

// fragmentsOf normalizes src (nil when it does not normalize at this kind)
// and returns every fragment of every segment.
func fragmentsOf(src string, kind vector.Kind) (*nir.Program, []*depgraph.Graph, []*depgraph.Fragment) {
	ast, err := dsl.Parse(src)
	if err != nil {
		return nil, nil, nil
	}
	np, err := nir.Normalize(ast, map[string]vector.Kind{"data": kind, "out": kind, "out2": kind})
	if err != nil {
		return nil, nil, nil
	}
	var graphs []*depgraph.Graph
	var frags []*depgraph.Fragment
	for _, seg := range interp.New(np).Segments {
		g := depgraph.Build(seg.Instrs, nil)
		for _, f := range depgraph.Partition(g, depgraph.DefaultConstraints()) {
			graphs = append(graphs, g)
			frags = append(frags, f)
		}
	}
	return np, graphs, frags
}

// FuzzShapeKey drives keyOf with generated programs. Properties: (1)
// determinism; (2) soundness — two fragments with the same key are identical
// except for immediates and naming, checked against an independent canonical
// dump across everything the fuzzer has seen; (3) constant-blindness — a
// program differing only in (same-width) constants has the same keys; (4)
// sensitivity — changing an operator, the element kind, the dataflow or
// whether a value escapes changes the key.
func FuzzShapeKey(f *testing.F) {
	f.Add(uint8(0), uint8(2), int64(3), int64(7), uint8(0), uint8(0), false, uint16(0))
	f.Add(uint8(2), uint8(0), int64(5), int64(11), uint8(0), uint8(1), true, uint16(64))
	f.Add(uint8(1), uint8(1), int64(2), int64(2), uint8(3), uint8(2), false, uint16(0))
	f.Add(uint8(4), uint8(5), int64(255), int64(9), uint8(1), uint8(0), true, uint16(1))
	f.Fuzz(func(t *testing.T, o1, o2 uint8, c1, c2 int64, k, fl uint8, escape bool, tile uint16) {
		op1, op2 := fuzzOps[int(o1)%len(fuzzOps)], fuzzOps[int(o2)%len(fuzzOps)]
		kind := fuzzKinds[int(k)%len(fuzzKinds)]
		flow := int(fl) % 3
		opt := Options{TileSize: int(tile)}
		np, graphs, frags := fragmentsOf(fuzzProgram(op1, op2, c1, c2, flow, escape), kind)
		if np == nil {
			return // e.g. bitwise operators on f64
		}
		keys := make([]shapeKey, len(frags))
		for i, fr := range frags {
			keys[i] = keyOf(np, graphs[i], fr, opt)
			if again := keyOf(np, graphs[i], fr, opt); again != keys[i] {
				t.Fatalf("key not deterministic: %q vs %q", keys[i], again)
			}
			canon := canonFragment(np, graphs[i], fr, Options{TileSize: shapeTile(opt)})
			if prev, loaded := keySeen.LoadOrStore(keys[i], canon); loaded && prev.(string) != canon {
				t.Fatalf("one key for two fragments that differ in more than immediates:\n%s\n%s", prev, canon)
			}
		}

		// Constants of the same width never move a key.
		small := func(c int64) int64 { return 2 + (c&0x7fffffff)%50 }
		a, ga, fa := fragmentsOf(fuzzProgram(op1, op2, small(c1), small(c2), flow, escape), kind)
		b, gb, fb := fragmentsOf(fuzzProgram(op1, op2, small(c2)+50, small(c1)+50, flow, escape), kind)
		if a == nil || b == nil || len(fa) != len(fb) {
			t.Fatalf("programs differing only in small constants partition differently (%d vs %d fragments)", len(fa), len(fb))
		}
		for i := range fa {
			if ka, kb := keyOf(a, ga[i], fa[i], opt), keyOf(b, gb[i], fb[i], opt); ka != kb {
				t.Fatalf("constants moved a shape key:\n%s\n%s", canonFragment(a, ga[i], fa[i], opt), canonFragment(b, gb[i], fb[i], opt))
			}
		}

		// One structural change at a time must move the key of the fragment
		// holding the maps.
		joined := func(p *nir.Program, gs []*depgraph.Graph, fs []*depgraph.Fragment, o Options) string {
			var sb strings.Builder
			for i := range fs {
				sb.WriteString(string(keyOf(p, gs[i], fs[i], o)))
				sb.WriteByte(0xff)
			}
			return sb.String()
		}
		base := joined(a, ga, fa, opt)
		mutants := []struct {
			what string
			src  string
			kind vector.Kind
			opt  Options
		}{
			{"operator", fuzzProgram(fuzzOps[(int(o1)+1)%len(fuzzOps)], op2, small(c1), small(c2), flow, escape), kind, opt},
			{"kind", fuzzProgram(op1, op2, small(c1), small(c2), flow, escape), fuzzKinds[(int(k)+1)%len(fuzzKinds)], opt},
			{"dataflow", fuzzProgram(op1, op2, small(c1), small(c2), (flow+1)%3, escape), kind, opt},
			{"escape", fuzzProgram(op1, op2, small(c1), small(c2), flow, !escape), kind, opt},
			{"tile size", fuzzProgram(op1, op2, small(c1), small(c2), flow, escape), kind, Options{TileSize: shapeTile(opt) + 1}},
		}
		for _, m := range mutants {
			mp, mg, mf := fragmentsOf(m.src, m.kind)
			if mp == nil {
				continue // the mutant does not type-check (bitwise op on f64)
			}
			if joined(mp, mg, mf, m.opt) == base {
				t.Fatalf("changing the %s left every shape key unchanged:\n%s", m.what, m.src)
			}
		}
	})
}

// shapeTile is the tile size a shape records for opt (the default when
// unset), so the oracle's dump agrees with it.
func shapeTile(opt Options) int {
	if opt.TileSize <= 0 {
		return DefaultTileSize
	}
	return opt.TileSize
}
