package depgraph

import (
	"strings"
	"testing"

	"repro/internal/dsl"
	"repro/internal/interp"
	"repro/internal/nir"
	"repro/internal/profile"
	"repro/internal/vector"
)

// figure2Segment returns the loop-body segment of the normalized Figure 2
// program (the graph Figure 3 depicts).
func figure2Segment(t *testing.T) ([]*nir.Instr, *nir.Program) {
	t.Helper()
	prog := dsl.MustParse(dsl.Figure2Source)
	np, err := nir.Normalize(prog, map[string]vector.Kind{
		"some_data": vector.I64, "v": vector.I64, "w": vector.I64,
	})
	if err != nil {
		t.Fatal(err)
	}
	it := interp.New(np)
	// The loop body's first (large) segment holds read..write..len glue.
	var best *interp.Segment
	for _, seg := range it.Segments {
		if best == nil || len(seg.Instrs) > len(best.Instrs) {
			best = seg
		}
	}
	return best.Instrs, np
}

func TestBuildFigure2Graph(t *testing.T) {
	seg, _ := figure2Segment(t)
	g := Build(seg, nil)
	if len(g.Nodes) != len(seg) {
		t.Fatalf("nodes = %d, want %d", len(g.Nodes), len(seg))
	}
	// Locate the characteristic ops.
	find := func(op nir.OpCode) *Node {
		for _, n := range g.Nodes {
			if n.Instr.Op == op {
				return n
			}
		}
		return nil
	}
	read := find(nir.OpRead)
	mapMul := find(nir.OpMapBin)
	sel := find(nir.OpSelectCmp)
	cond := find(nir.OpCondense)
	if read == nil || mapMul == nil || sel == nil || cond == nil {
		t.Fatalf("missing expected ops in graph:\n%s", Dot(g, nil))
	}
	// map depends on read; select on map; condense on select.
	depends := func(n *Node, on *Node) bool {
		for _, d := range n.Deps {
			if d == on.Index {
				return true
			}
		}
		return false
	}
	if !depends(mapMul, read) {
		t.Error("map *2 must depend on read")
	}
	if !depends(sel, mapMul) {
		t.Error("filter must depend on map")
	}
	if !depends(cond, sel) {
		t.Error("condense must depend on filter")
	}
}

// TestPartitionReproducesFigure3: the greedy partitioner with the paper's
// heuristic constraints must split the Figure-2 loop body into two compiled
// functions — one covering read→map(×2)→write v, the other condense→write w —
// with the filter excluded from both (interpreted between them), exactly the
// shape of Figure 3.
func TestPartitionReproducesFigure3(t *testing.T) {
	seg, _ := figure2Segment(t)
	g := Build(seg, nil)
	frags := Partition(g, DefaultConstraints())
	if len(frags) != 2 {
		t.Fatalf("fragments = %d, want 2 (Figure 3)\n%s", len(frags), Dot(g, frags))
	}
	opsOf := func(f *Fragment) map[nir.OpCode]int {
		m := map[nir.OpCode]int{}
		for _, n := range f.Nodes {
			m[g.Nodes[n].Instr.Op]++
		}
		return m
	}
	// Identify which fragment holds the read+map and which the condense.
	var fMap, fCond *Fragment
	for _, f := range frags {
		ops := opsOf(f)
		if ops[nir.OpMapBin] > 0 {
			fMap = f
		}
		if ops[nir.OpCondense] > 0 {
			fCond = f
		}
	}
	if fMap == nil || fCond == nil || fMap == fCond {
		t.Fatalf("expected one map-side and one condense-side fragment:\n%s", Dot(g, frags))
	}
	mapOps := opsOf(fMap)
	if mapOps[nir.OpRead] != 1 || mapOps[nir.OpMapBin] != 1 || mapOps[nir.OpWrite] != 1 {
		t.Errorf("map-side fragment should be read+map+write, got %v", mapOps)
	}
	condOps := opsOf(fCond)
	if condOps[nir.OpCondense] != 1 || condOps[nir.OpWrite] != 1 {
		t.Errorf("condense-side fragment should be condense+write, got %v", condOps)
	}
	// The filter must be in neither (heuristic: no filters inside functions).
	for _, f := range frags {
		if opsOf(f)[nir.OpSelectCmp] > 0 || opsOf(f)[nir.OpSelect] > 0 {
			t.Error("filter must not be fused into a compiled function")
		}
	}
	t.Logf("Figure 3 as Graphviz (fragments are clusters):\n%s", Dot(g, frags))
}

func TestPartitionRespectsMaxInputs(t *testing.T) {
	// A wide expression with many independent reads: a+b+c+...+h. With
	// MaxInputs=3 no fragment may touch more than 3 inputs+externals.
	src := `
let a = read 0 d1 8
let b = read 0 d2 8
let c = read 0 d3 8
let d = read 0 d4 8
let s = map (\x y -> x + y) a b
let t = map (\x y -> x + y) c d
let u = map (\x y -> x + y) s t
write out 0 u
`
	prog := dsl.MustParse(src)
	kinds := map[string]vector.Kind{}
	for _, e := range []string{"d1", "d2", "d3", "d4", "out"} {
		kinds[e] = vector.I64
	}
	np, err := nir.Normalize(prog, kinds)
	if err != nil {
		t.Fatal(err)
	}
	it := interp.New(np)
	seg := it.Segments[0].Instrs
	g := Build(seg, nil)

	c := DefaultConstraints()
	c.MaxInputs = 3
	frags := Partition(g, c)
	if len(frags) < 2 {
		t.Fatalf("tight input budget must split the graph, got %d fragments", len(frags))
	}
	for _, f := range frags {
		if got := len(f.Inputs) + len(f.Externals); got > 3 {
			t.Errorf("fragment exceeds input budget: %d > 3 (%s)", got, f)
		}
	}

	// With a generous budget the whole (fusable part of the) graph fuses.
	c.MaxInputs = 16
	c.MaxNodes = 32
	frags = Partition(g, c)
	if len(frags) != 1 {
		t.Errorf("generous budget should yield one fragment, got %d", len(frags))
	}
}

func TestPartitionConvexity(t *testing.T) {
	// map → filter (unfusable) → map: the two maps must not end up in the
	// same fragment because the filter lies on the path between them.
	src := `
let a = read 0 d 8
let b = map (\x -> x + 1) a
let f = filter (\x -> x > 2) b
let c = map (\x -> x * 3) f
write out 0 (condense c)
`
	prog := dsl.MustParse(src)
	np, err := nir.Normalize(prog, map[string]vector.Kind{"d": vector.I64, "out": vector.I64})
	if err != nil {
		t.Fatal(err)
	}
	it := interp.New(np)
	g := Build(it.Segments[0].Instrs, nil)
	frags := Partition(g, DefaultConstraints())
	for _, f := range frags {
		hasAdd, hasMul := false, false
		for _, n := range f.Nodes {
			in := g.Nodes[n].Instr
			if in.Op == nir.OpMapBin && in.Arith == nir.AAdd {
				hasAdd = true
			}
			if in.Op == nir.OpMapBin && in.Arith == nir.AMul {
				hasMul = true
			}
		}
		if hasAdd && hasMul {
			t.Fatalf("non-convex fragment fuses across the filter:\n%s", Dot(g, frags))
		}
	}
}

func TestScheduleContiguousAndComplete(t *testing.T) {
	seg, _ := figure2Segment(t)
	g := Build(seg, nil)
	frags := Partition(g, DefaultConstraints())
	units, err := Schedule(g, frags)
	if err != nil {
		t.Fatal(err)
	}
	// Every node appears exactly once, and dependencies are respected.
	pos := make([]int, len(g.Nodes))
	for i := range pos {
		pos[i] = -1
	}
	cursor := 0
	for _, u := range units {
		if u.Fragment != nil {
			for _, n := range u.Fragment.Nodes {
				if pos[n] != -1 {
					t.Fatalf("node %d scheduled twice", n)
				}
				pos[n] = cursor
				cursor++
			}
		} else {
			if pos[u.Node] != -1 {
				t.Fatalf("node %d scheduled twice", u.Node)
			}
			pos[u.Node] = cursor
			cursor++
		}
	}
	for i, p := range pos {
		if p == -1 {
			t.Fatalf("node %d not scheduled", i)
		}
		for _, d := range g.Nodes[i].Deps {
			if pos[d] > p {
				t.Fatalf("dependency violated: node %d (pos %d) before its dep %d (pos %d)", i, p, d, pos[d])
			}
		}
	}
}

func TestProfileDrivenCosts(t *testing.T) {
	seg, np := figure2Segment(t)
	_ = np
	// Fake a profile where the condense op dominates.
	prof := profileWith(t, seg)
	g := Build(seg, prof)
	var condIdx int
	for i, n := range g.Nodes {
		if n.Instr.Op == nir.OpCondense {
			condIdx = i
		}
	}
	for i, n := range g.Nodes {
		if i != condIdx && n.Cost >= g.Nodes[condIdx].Cost {
			t.Fatalf("condense should be the most expensive node under this profile")
		}
	}
}

func profileWith(t *testing.T, seg []*nir.Instr) *profile.Profile {
	t.Helper()
	maxID := 0
	for _, in := range seg {
		if in.ID > maxID {
			maxID = in.ID
		}
	}
	p := profile.New(maxID + 1)
	for _, in := range seg {
		ns := int64(100)
		if in.Op == nir.OpCondense {
			ns = 100000
		}
		p.Record(in.ID, 1024, ns)
	}
	return p
}

func TestDotOutput(t *testing.T) {
	seg, _ := figure2Segment(t)
	g := Build(seg, nil)
	frags := Partition(g, DefaultConstraints())
	dot := Dot(g, frags)
	if !strings.Contains(dot, "cluster_0") || !strings.Contains(dot, "->") {
		t.Errorf("dot output incomplete:\n%s", dot)
	}
}
