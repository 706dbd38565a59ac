package jit

import (
	"encoding/binary"

	"repro/internal/depgraph"
	"repro/internal/nir"
	"repro/internal/vector"
)

// shape is the canonical description of a fragment that code generation
// works from: everything that can influence the generated code, and nothing
// else. Registers appear as slots numbered in order of first appearance, so
// two fragments that differ only in register numbering share a shape;
// immediates, register names and external array names do not appear at all,
// because traces read constants from scalar registers and resolve externals
// through the bound instruction at run time. compileTemplate sees only the
// shape, which is what makes equal shape keys imply interchangeable code.
type shape struct {
	instrs []shapeInstr
	slots  []shapeSlot
	tile   int
}

// shapeInstr is one member instruction with its operands as slots (-1 =
// unused).
type shapeInstr struct {
	op           nir.OpCode
	arith        nir.ArithOp
	cmp          nir.CmpOp
	unary        nir.UnaryOp
	kind         vector.Kind
	merge        nir.MergeFlavor
	conf         nir.Conflict
	dst, a, b, c int
	// ext numbers the external array the instruction touches in order of
	// first appearance (-1 = none); extKind is its declared element kind.
	ext     int
	extKind vector.Kind
	// escapes: dst is read by an instruction outside the fragment, so the
	// value must be materialized even when a consumer inside could absorb it.
	escapes bool
}

type shapeSlot struct {
	kind   vector.Kind
	scalar bool
}

// binding ties a shape's slots and member positions to one concrete program:
// what a template is patched with to become a trace.
type binding struct {
	instrs []*nir.Instr // member position → instruction
	ids    []int        // instruction IDs, in execution order
	regs   []nir.Reg    // slot → register
}

// shapeOf canonicalizes a fragment into its shape and the binding that maps
// the shape back onto prog.
func shapeOf(prog *nir.Program, g *depgraph.Graph, frag *depgraph.Fragment, opt Options) (*shape, binding) {
	tile := opt.TileSize
	if tile <= 0 {
		tile = DefaultTileSize
	}
	s := &shape{tile: tile, instrs: make([]shapeInstr, 0, len(frag.Nodes))}
	var b binding

	member := make(map[*nir.Instr]bool, len(frag.Nodes))
	for _, n := range frag.Nodes {
		member[g.Nodes[n].Instr] = true
	}
	readOutside := map[nir.Reg]bool{}
	prog.Walk(func(in *nir.Instr) {
		if member[in] {
			return
		}
		for _, r := range [...]nir.Reg{in.A, in.B, in.C} {
			if r != nir.NoReg {
				readOutside[r] = true
			}
		}
	})

	slotOf := map[nir.Reg]int{}
	slot := func(r nir.Reg) int {
		if r == nir.NoReg {
			return -1
		}
		if i, ok := slotOf[r]; ok {
			return i
		}
		ri := prog.Reg(r)
		slotOf[r] = len(s.slots)
		s.slots = append(s.slots, shapeSlot{kind: ri.Kind, scalar: ri.Scalar})
		b.regs = append(b.regs, r)
		return len(s.slots) - 1
	}
	extOf := map[string]int{}
	for _, n := range frag.Nodes {
		in := g.Nodes[n].Instr
		si := shapeInstr{
			op: in.Op, arith: in.Arith, cmp: in.Cmp, unary: in.Unary,
			kind: in.Kind, merge: in.Merge, conf: in.Conf,
			a: slot(in.A), b: slot(in.B), c: slot(in.C), dst: slot(in.Dst),
			ext: -1,
		}
		if in.Data != "" {
			e, ok := extOf[in.Data]
			if !ok {
				e = len(extOf)
				extOf[in.Data] = e
			}
			si.ext, si.extKind = e, prog.ExternalKind(in.Data)
		}
		si.escapes = in.Dst != nir.NoReg && readOutside[in.Dst]
		s.instrs = append(s.instrs, si)
		b.instrs = append(b.instrs, in)
		b.ids = append(b.ids, in.ID)
	}
	return s, b
}

// shapeKey identifies a fragment shape: the injective encoding of every
// field of the shape, so equal keys mean equal shapes (no hashing, no
// collisions). It is the template cache key.
type shapeKey string

// keyOf returns the shape key of a fragment compiled with opt.
func keyOf(prog *nir.Program, g *depgraph.Graph, frag *depgraph.Fragment, opt Options) shapeKey {
	s, _ := shapeOf(prog, g, frag, opt)
	return s.key()
}

func (s *shape) key() shapeKey {
	buf := make([]byte, 0, 8+2*len(s.slots)+20*len(s.instrs))
	u := func(x int) { buf = binary.AppendUvarint(buf, uint64(x)) }
	flag := func(b bool) {
		if b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	u(s.tile)
	u(len(s.slots))
	for _, sl := range s.slots {
		u(int(sl.kind))
		flag(sl.scalar)
	}
	u(len(s.instrs))
	for _, in := range s.instrs {
		u(int(in.op))
		u(int(in.arith))
		u(int(in.cmp))
		u(int(in.unary))
		u(int(in.kind))
		u(int(in.merge))
		u(int(in.conf))
		// Slots and external numbers are ≥ -1; shift so the varint stays
		// unsigned.
		u(in.dst + 1)
		u(in.a + 1)
		u(in.b + 1)
		u(in.c + 1)
		u(in.ext + 1)
		u(int(in.extKind))
		flag(in.escapes)
	}
	return shapeKey(buf)
}
