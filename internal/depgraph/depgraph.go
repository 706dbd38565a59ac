// Package depgraph builds the dependency graph of a straight-line segment
// and partitions it into compilable fragments using the paper's greedy
// algorithm (§III-B):
//
//	"we propose to greedily partition the dependency graph. Starting with an
//	initially empty set of functions R, we go over the graph and select the
//	most expensive node (operation). From this node we greedily add neighbor
//	nodes until one of our heuristic constraints is violated. [...]
//	Afterwards, we go to the next expensive (unvisited) node and do the same."
//
// The heuristic constraints are the paper's:
//
//   - at most MaxInputs inputs/intermediates per function, a budget derived
//     from the TLB size ("This prevents TLB thrashing in the generated
//     functions");
//   - some operations are never included, "such as filters" (they restrict
//     branch mispredictions and keep selection-vector computation in the
//     interpreter) and complex string operations.
//
// Fragments are additionally kept convex so each can run as one contiguous
// unit in a dependency-respecting schedule.
package depgraph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/nir"
	"repro/internal/profile"
)

// Node is one operation in the dependency graph.
type Node struct {
	Instr *nir.Instr
	Index int   // position within the segment
	Deps  []int // indexes of nodes this node reads from
	Users []int // indexes of nodes reading this node's output
	Cost  float64
}

// Graph is the dependency graph of one straight-line segment (Figure 3 shows
// the graph of the Figure-2 loop body).
type Graph struct {
	Nodes []*Node
}

// staticCost estimates per-tuple cost when no profile data exists yet. The
// numbers are relative weights, not nanoseconds.
func staticCost(in *nir.Instr) float64 {
	switch in.Op {
	case nir.OpMapBin, nir.OpMapCmp:
		return 1.0
	case nir.OpMapUn:
		if in.Unary == nir.USqrt {
			return 3.0
		}
		return 0.8
	case nir.OpCast:
		return 0.6
	case nir.OpSelect, nir.OpSelectCmp:
		return 1.2
	case nir.OpRead:
		return 0.4
	case nir.OpWrite:
		return 0.5
	case nir.OpGather, nir.OpScatter:
		return 2.5
	case nir.OpCondense:
		return 0.8
	case nir.OpFold:
		return 1.0
	case nir.OpMerge:
		return 4.0
	case nir.OpIota:
		return 0.3
	default: // scalar glue
		return 0.01
	}
}

// Build constructs the dependency graph of a segment. When prof is non-nil,
// node costs come from observed per-instruction time; otherwise static
// estimates are used. Register dataflow creates edges; accesses to the same
// external array are serialized writer→reader and writer→writer to preserve
// memory order.
func Build(segment []*nir.Instr, prof *profile.Profile) *Graph {
	g := &Graph{}
	lastDef := map[nir.Reg]int{}     // reg → node index that defined it
	lastExtWrite := map[string]int{} // external → last writer
	extReaders := map[string][]int{} // external → readers since last write

	addDep := func(n *Node, dep int) {
		for _, d := range n.Deps {
			if d == dep {
				return
			}
		}
		n.Deps = append(n.Deps, dep)
		g.Nodes[dep].Users = append(g.Nodes[dep].Users, n.Index)
	}

	for idx, in := range segment {
		n := &Node{Instr: in, Index: idx, Cost: staticCost(in)}
		if prof != nil && prof.Nanos(in.ID) > 0 {
			n.Cost = float64(prof.Nanos(in.ID))
		}
		g.Nodes = append(g.Nodes, n)
		for _, r := range in.Uses() {
			if d, ok := lastDef[r]; ok {
				addDep(n, d)
			}
		}
		if in.Data != "" {
			switch in.Op {
			case nir.OpRead, nir.OpGather:
				if w, ok := lastExtWrite[in.Data]; ok {
					addDep(n, w)
				}
				extReaders[in.Data] = append(extReaders[in.Data], idx)
			case nir.OpWrite, nir.OpScatter:
				if w, ok := lastExtWrite[in.Data]; ok {
					addDep(n, w)
				}
				for _, r := range extReaders[in.Data] {
					addDep(n, r)
				}
				extReaders[in.Data] = nil
				lastExtWrite[in.Data] = idx
			}
		}
		if in.Dst != nir.NoReg {
			lastDef[in.Dst] = idx
		}
	}
	return g
}

// Constraints are the partitioner's heuristic limits.
type Constraints struct {
	// MaxInputs bounds distinct inputs+intermediates a fragment may touch
	// (the TLB-derived budget). Counted as: external arrays accessed plus
	// registers flowing in from outside the fragment.
	MaxInputs int
	// MaxNodes bounds fragment size (0 = unlimited). Compilation effort
	// grows with code size; this is the "threshold" at which partitioning
	// stops growing a function.
	MaxNodes int
	// Fusable decides whether an operation may live inside a compiled
	// fragment at all. Nil means DefaultFusable.
	Fusable func(*nir.Instr) bool
	// MinSeedCost: nodes cheaper than this never seed a fragment (scalar
	// glue is interpreted).
	MinSeedCost float64
}

// DefaultConstraints returns the paper-faithful configuration: an 8-entry
// input budget (a handful of 4 KiB pages under a typical 64-entry L1 TLB
// leaves room for the chunk intermediates), no filters or merges inside
// fragments.
func DefaultConstraints() Constraints {
	return Constraints{MaxInputs: 8, MaxNodes: 16, Fusable: DefaultFusable, MinSeedCost: 0.05}
}

// DefaultFusable excludes the operations the paper keeps out of generated
// functions: filters (selection-vector computation), the complex merge
// skeleton, scatters (conflict handling), and scalar control glue.
func DefaultFusable(in *nir.Instr) bool {
	switch in.Op {
	case nir.OpSelect, nir.OpSelectCmp, nir.OpMerge, nir.OpScatter:
		return false
	case nir.OpConst, nir.OpBinS, nir.OpUnS, nir.OpLen, nir.OpMove:
		return false // scalar glue stays interpreted
	case nir.OpMapBin, nir.OpMapCmp, nir.OpMapUn, nir.OpCast,
		nir.OpRead, nir.OpWrite, nir.OpGather, nir.OpIota,
		nir.OpCondense, nir.OpFold:
		return true
	}
	return false
}

// Fragment is one compilable function found by the partitioner: a convex,
// connected set of fusable nodes.
type Fragment struct {
	// Nodes lists member node indexes in dependency (topological) order.
	Nodes []int
	// Inputs are registers read by the fragment but defined outside it.
	Inputs []nir.Reg
	// Outputs are registers defined inside and visible outside (used by
	// later instructions or live at segment end).
	Outputs []nir.Reg
	// Externals are the external arrays the fragment touches.
	Externals []string
	// Cost is the summed node cost.
	Cost float64
}

// InstrIDs returns the nir instruction IDs of the fragment members.
func (f *Fragment) InstrIDs(g *Graph) []int {
	ids := make([]int, len(f.Nodes))
	for i, n := range f.Nodes {
		ids[i] = g.Nodes[n].Instr.ID
	}
	return ids
}

// String renders the fragment for reports.
func (f *Fragment) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fragment(cost=%.1f, nodes=%v, inputs=%d, ext=%v)", f.Cost, f.Nodes, len(f.Inputs), f.Externals)
	return sb.String()
}

// Partition runs the greedy algorithm and returns the fragments, most
// expensive first. Nodes not covered by any fragment remain interpreted.
func Partition(g *Graph, c Constraints) []*Fragment {
	if c.Fusable == nil {
		c.Fusable = DefaultFusable
	}
	visited := make([]bool, len(g.Nodes))
	var frags []*Fragment

	for {
		seed := -1
		var seedCost float64
		for i, n := range g.Nodes {
			if visited[i] || !c.Fusable(n.Instr) || n.Cost < c.MinSeedCost {
				continue
			}
			if seed < 0 || n.Cost > seedCost {
				seed = i
				seedCost = n.Cost
			}
		}
		if seed < 0 {
			break
		}

		members := map[int]bool{seed: true}
		visited[seed] = true
		for {
			// Candidate neighbors: fusable, unvisited, adjacent to the
			// fragment, ordered by cost.
			var cands []int
			for m := range members {
				for _, nb := range append(append([]int{}, g.Nodes[m].Deps...), g.Nodes[m].Users...) {
					if !visited[nb] && c.Fusable(g.Nodes[nb].Instr) && !members[nb] {
						cands = append(cands, nb)
					}
				}
			}
			if len(cands) == 0 {
				break
			}
			sort.Slice(cands, func(a, b int) bool { return g.Nodes[cands[a]].Cost > g.Nodes[cands[b]].Cost })
			added := false
			for _, cand := range cands {
				if members[cand] {
					continue
				}
				members[cand] = true
				if fragmentOK(g, members, c) {
					visited[cand] = true
					added = true
					break
				}
				delete(members, cand)
			}
			if !added {
				break
			}
		}
		frags = append(frags, makeFragment(g, members))
	}
	sort.Slice(frags, func(a, b int) bool { return frags[a].Cost > frags[b].Cost })
	return frags
}

// fragmentOK checks the heuristic constraints and convexity.
func fragmentOK(g *Graph, members map[int]bool, c Constraints) bool {
	if c.MaxNodes > 0 && len(members) > c.MaxNodes {
		return false
	}
	inputs, _, exts := fragmentIO(g, members)
	if c.MaxInputs > 0 && len(inputs)+len(exts) > c.MaxInputs {
		return false
	}
	return isConvex(g, members)
}

// isConvex reports whether no dependency path leaves the fragment and
// re-enters it (required to schedule the fragment as one unit).
func isConvex(g *Graph, members map[int]bool) bool {
	// From every non-member reachable from a member, check whether a member
	// is reachable again.
	reachesMember := make([]int8, len(g.Nodes)) // 0 unknown, 1 yes, -1 no
	var canReachMember func(i int) bool
	canReachMember = func(i int) bool {
		if members[i] {
			return true
		}
		switch reachesMember[i] {
		case 1:
			return true
		case -1:
			return false
		}
		reachesMember[i] = -1 // guard against cycles (none exist in a DAG)
		for _, u := range g.Nodes[i].Users {
			if canReachMember(u) {
				reachesMember[i] = 1
				return true
			}
		}
		return false
	}
	for m := range members {
		for _, u := range g.Nodes[m].Users {
			if !members[u] && canReachMember(u) {
				return false
			}
		}
	}
	return true
}

func fragmentIO(g *Graph, members map[int]bool) (inputs, outputs []nir.Reg, exts []string) {
	inSet := map[nir.Reg]bool{}
	outSet := map[nir.Reg]bool{}
	extSet := map[string]bool{}
	defined := map[nir.Reg]bool{}
	for m := range members {
		if d := g.Nodes[m].Instr.Dst; d != nir.NoReg {
			defined[d] = true
		}
		if g.Nodes[m].Instr.Data != "" {
			extSet[g.Nodes[m].Instr.Data] = true
		}
	}
	for m := range members {
		for _, r := range g.Nodes[m].Instr.Uses() {
			if !defined[r] {
				inSet[r] = true
			}
		}
		// Outputs: defined in fragment, used by a non-member or by nobody
		// (live-out conservatively).
		d := g.Nodes[m].Instr.Dst
		if d == nir.NoReg {
			continue
		}
		escapes := len(g.Nodes[m].Users) == 0
		for _, u := range g.Nodes[m].Users {
			if !members[u] {
				escapes = true
			}
		}
		if escapes {
			outSet[d] = true
		}
	}
	for r := range inSet {
		inputs = append(inputs, r)
	}
	for r := range outSet {
		outputs = append(outputs, r)
	}
	for e := range extSet {
		exts = append(exts, e)
	}
	sort.Slice(inputs, func(a, b int) bool { return inputs[a] < inputs[b] })
	sort.Slice(outputs, func(a, b int) bool { return outputs[a] < outputs[b] })
	sort.Strings(exts)
	return inputs, outputs, exts
}

func makeFragment(g *Graph, members map[int]bool) *Fragment {
	f := &Fragment{}
	for i := range g.Nodes {
		if members[i] {
			f.Nodes = append(f.Nodes, i)
			f.Cost += g.Nodes[i].Cost
		}
	}
	// Order members topologically (segment order is already topological).
	sort.Ints(f.Nodes)
	f.Inputs, f.Outputs, f.Externals = fragmentIO(g, members)
	return f
}

// Schedule produces an execution order for the segment in which every
// fragment is contiguous and all dependencies are respected. The result is a
// list of units; each unit is either a single node index (fragment == nil)
// or a whole fragment.
type Unit struct {
	Fragment *Fragment
	Node     int // valid when Fragment == nil
}

// Schedule contracts fragments to super-nodes and topologically sorts.
func Schedule(g *Graph, frags []*Fragment) ([]Unit, error) {
	fragOf := make([]int, len(g.Nodes))
	for i := range fragOf {
		fragOf[i] = -1
	}
	for fi, f := range frags {
		for _, n := range f.Nodes {
			fragOf[n] = fi
		}
	}
	// Super-node ids: fragments get 0..len(frags)-1; singleton node i gets
	// len(frags)+i.
	super := func(n int) int {
		if fragOf[n] >= 0 {
			return fragOf[n]
		}
		return len(frags) + n
	}
	total := len(frags) + len(g.Nodes)
	adj := make(map[int]map[int]bool, total)
	indeg := make(map[int]int, total)
	nodesOf := map[int][]int{}
	for i := range g.Nodes {
		s := super(i)
		nodesOf[s] = append(nodesOf[s], i)
		if _, ok := adj[s]; !ok {
			adj[s] = map[int]bool{}
			indeg[s] += 0
		}
	}
	for i, n := range g.Nodes {
		si := super(i)
		for _, d := range n.Deps {
			sd := super(d)
			if sd == si || adj[sd][si] {
				continue
			}
			adj[sd][si] = true
			indeg[si]++
		}
	}
	// Kahn's algorithm with deterministic order (smallest first-node).
	var ready []int
	for s := range adj {
		if indeg[s] == 0 {
			ready = append(ready, s)
		}
	}
	var order []Unit
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool { return minNode(nodesOf[ready[a]]) < minNode(nodesOf[ready[b]]) })
		s := ready[0]
		ready = ready[1:]
		if s < len(frags) {
			order = append(order, Unit{Fragment: frags[s]})
		} else {
			order = append(order, Unit{Fragment: nil, Node: s - len(frags)})
		}
		for t := range adj[s] {
			indeg[t]--
			if indeg[t] == 0 {
				ready = append(ready, t)
			}
		}
		delete(adj, s)
	}
	scheduled := 0
	for _, u := range order {
		if u.Fragment != nil {
			scheduled += len(u.Fragment.Nodes)
		} else {
			scheduled++
		}
	}
	if scheduled != len(g.Nodes) {
		return nil, fmt.Errorf("depgraph: schedule covered %d of %d nodes (cycle through a fragment?)", scheduled, len(g.Nodes))
	}
	return order, nil
}

func minNode(ns []int) int {
	m := ns[0]
	for _, n := range ns {
		if n < m {
			m = n
		}
	}
	return m
}

// Dot renders the graph in Graphviz format with fragments as clusters;
// TestPartitionReproducesFigure3 logs Figure 3 this way under -v.
func Dot(g *Graph, frags []*Fragment) string {
	var sb strings.Builder
	sb.WriteString("digraph depgraph {\n  rankdir=BT;\n")
	fragOf := make([]int, len(g.Nodes))
	for i := range fragOf {
		fragOf[i] = -1
	}
	for fi, f := range frags {
		for _, n := range f.Nodes {
			fragOf[n] = fi
		}
	}
	for fi, f := range frags {
		fmt.Fprintf(&sb, "  subgraph cluster_%d {\n    label=\"function %d\";\n", fi, fi+1)
		for _, n := range f.Nodes {
			fmt.Fprintf(&sb, "    n%d [label=%q];\n", n, g.Nodes[n].Instr.String())
		}
		sb.WriteString("  }\n")
	}
	for i, n := range g.Nodes {
		if fragOf[i] < 0 {
			fmt.Fprintf(&sb, "  n%d [label=%q, style=dashed];\n", i, n.Instr.String())
		}
	}
	for i, n := range g.Nodes {
		for _, d := range n.Deps {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", d, i)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
