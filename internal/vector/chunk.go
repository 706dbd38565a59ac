package vector

import (
	"fmt"
	"strings"
)

// Chunk is a cache-resident batch of rows represented as a set of named,
// equally long vectors plus an optional selection vector. It is the unit of
// work for the vectorized interpreter and for fused traces.
type Chunk struct {
	names []string
	cols  []*Vector
	n     int
	sel   Sel
}

// NewChunk creates an empty chunk with row count 0.
func NewChunk() *Chunk { return &Chunk{} }

// ChunkOf builds a chunk from alternating name/vector pairs; all vectors must
// have the same length.
func ChunkOf(pairs ...any) *Chunk {
	if len(pairs)%2 != 0 {
		panic("vector.ChunkOf: need name/vector pairs")
	}
	c := NewChunk()
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic("vector.ChunkOf: name must be a string")
		}
		v, ok := pairs[i+1].(*Vector)
		if !ok {
			panic("vector.ChunkOf: value must be a *Vector")
		}
		c.Add(name, v)
	}
	return c
}

// ChunkFrom builds a chunk over names and cols without copying either
// slice: the chunk takes cols over, and names may be shared between chunks
// (Add never writes into it). All columns must have the same length.
func ChunkFrom(names []string, cols []*Vector) *Chunk {
	c := new(Chunk)
	c.Refill(names, cols)
	return c
}

// Refill points c at names and cols exactly as ChunkFrom builds a chunk, and
// clears its selection. A producer whose chunks are only valid until its
// next one refills a single Chunk instead of allocating one per batch.
func (c *Chunk) Refill(names []string, cols []*Vector) {
	if len(names) != len(cols) {
		panic(fmt.Sprintf("vector.ChunkFrom: %d names for %d columns", len(names), len(cols)))
	}
	*c = Chunk{names: names[:len(names):len(names)], cols: cols}
	for i, v := range cols {
		if i == 0 {
			c.n = v.Len()
		} else if v.Len() != c.n {
			panic(fmt.Sprintf("vector.ChunkFrom: column %q has %d rows, chunk has %d", names[i], v.Len(), c.n))
		}
	}
}

// Add attaches a column. The first column fixes the row count; later columns
// must match it.
func (c *Chunk) Add(name string, v *Vector) {
	if len(c.cols) == 0 {
		c.n = v.Len()
	} else if v.Len() != c.n {
		panic(fmt.Sprintf("vector.Chunk.Add: column %q has %d rows, chunk has %d", name, v.Len(), c.n))
	}
	c.names = append(c.names, name)
	c.cols = append(c.cols, v)
}

// Len returns the physical row count (before selection).
func (c *Chunk) Len() int { return c.n }

// SelectedLen returns the logical row count (after selection).
func (c *Chunk) SelectedLen() int { return c.sel.Count(c.n) }

// Sel returns the current selection vector (nil = all rows).
func (c *Chunk) Sel() Sel { return c.sel }

// SetSel replaces the selection vector.
func (c *Chunk) SetSel(s Sel) { c.sel = s }

// Width returns the number of columns.
func (c *Chunk) Width() int { return len(c.cols) }

// Name returns the name of column i.
func (c *Chunk) Name(i int) string { return c.names[i] }

// Col returns column i.
func (c *Chunk) Col(i int) *Vector { return c.cols[i] }

// Column returns the column with the given name, or nil if absent.
func (c *Chunk) Column(name string) *Vector {
	for i, n := range c.names {
		if n == name {
			return c.cols[i]
		}
	}
	return nil
}

// MustColumn returns the named column or panics.
func (c *Chunk) MustColumn(name string) *Vector {
	v := c.Column(name)
	if v == nil {
		panic(fmt.Sprintf("vector.Chunk: no column %q (have %v)", name, c.names))
	}
	return v
}

// Condense materializes the selection on every column and clears it.
func (c *Chunk) Condense() *Chunk {
	out := NewChunk()
	for i, v := range c.cols {
		out.Add(c.names[i], Condense(v, c.sel))
	}
	return out
}

// Clone deep-copies the chunk, including its selection vector.
func (c *Chunk) Clone() *Chunk {
	out := NewChunk()
	for i, v := range c.cols {
		out.Add(c.names[i], v.Clone())
	}
	if c.sel != nil {
		out.sel = append(Sel(nil), c.sel...)
	}
	return out
}

// String renders a compact preview.
func (c *Chunk) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "chunk(n=%d, selected=%d)", c.n, c.SelectedLen())
	for i, v := range c.cols {
		fmt.Fprintf(&sb, "\n  %s: %s", c.names[i], v.String())
	}
	return sb.String()
}
