package vector

import "fmt"

// This file implements table storage in the decomposed storage model
// (DSM, [33]): one contiguous array per column, so a read that touches few
// columns streams only those arrays. It is the engine's only in-RAM layout;
// stored tables (internal/colstore) are columnar too.

// Schema describes the columns of a stored table.
type Schema struct {
	Names []string
	Kinds []Kind
}

// NewSchema builds a schema from alternating name/kind pairs.
func NewSchema(pairs ...any) Schema {
	var s Schema
	for i := 0; i < len(pairs); i += 2 {
		s.Names = append(s.Names, pairs[i].(string))
		s.Kinds = append(s.Kinds, pairs[i+1].(Kind))
	}
	return s
}

// ColumnIndex returns the index of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, n := range s.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Store is a materialized table that can be scanned chunk-at-a-time.
type Store interface {
	// Schema returns the table schema.
	Schema() Schema
	// Rows returns the row count.
	Rows() int
	// Scan copies rows [lo, lo+n) of the named columns into the caller's
	// dst vectors, which must have matching kinds; each is resized to the
	// rows produced. It returns the number of rows produced. The copies
	// belong to the caller. Stores that keep their columns in RAM also
	// implement Viewer, which skips the copy.
	Scan(lo, n int, cols []int, dst []*Vector) int
}

// Viewer is implemented by stores that can hand out their own column
// storage instead of copying it. View has Scan's shape, but it overwrites
// each *dst[k] with a view (see Vector.Slice) of rows [lo, lo+n) of column
// cols[k], so the dst vectors need no storage of their own. The views alias
// the table: whoever holds one must treat it as read-only, and the table
// must not be mutated while a view of it is in use.
type Viewer interface {
	View(lo, n int, cols []int, dst []*Vector) int
}

// DSMStore stores each column as its own Vector (column-major). It is a
// Viewer: scans read its columns in place, so it must not be mutated while
// a scan's views are in use.
type DSMStore struct {
	schema Schema
	cols   []*Vector
	rows   int
}

// NewDSMStore creates an empty DSM table with the given schema.
func NewDSMStore(schema Schema) *DSMStore { return NewDSMStoreCap(schema, 0) }

// NewDSMStoreCap creates an empty DSM table whose columns have room for
// capacity rows, so appending that many rows never reallocates.
func NewDSMStoreCap(schema Schema, capacity int) *DSMStore {
	st := &DSMStore{schema: schema}
	for _, k := range schema.Kinds {
		st.cols = append(st.cols, New(k, 0, capacity))
	}
	return st
}

// DSMStoreOf makes a DSM table of the given columns, which it takes over;
// they must match the schema's kinds and have equal lengths. A generator
// that fills its columns itself builds its table this way without copying.
func DSMStoreOf(schema Schema, cols ...*Vector) *DSMStore {
	if len(cols) != len(schema.Kinds) {
		panic(fmt.Sprintf("vector.DSMStoreOf: %d columns for %d schema entries", len(cols), len(schema.Kinds)))
	}
	st := &DSMStore{schema: schema, cols: cols}
	for i, col := range cols {
		if col.Kind() != schema.Kinds[i] || col.Len() != cols[0].Len() {
			panic(fmt.Sprintf("vector.DSMStoreOf: column %q is %v[%d]", schema.Names[i], col.Kind(), col.Len()))
		}
	}
	if len(cols) > 0 {
		st.rows = cols[0].Len()
	}
	return st
}

// Schema returns the table schema.
func (st *DSMStore) Schema() Schema { return st.schema }

// Rows returns the row count.
func (st *DSMStore) Rows() int { return st.rows }

// Col returns the backing vector of column i. The caller must not resize it.
func (st *DSMStore) Col(i int) *Vector { return st.cols[i] }

// AppendChunk appends all (selected) rows of a chunk whose columns match the
// schema by position. Selected rows are gathered straight into the table's
// columns, without condensing the chunk first.
func (st *DSMStore) AppendChunk(c *Chunk) {
	if c.Width() != len(st.cols) {
		panic(fmt.Sprintf("DSMStore.AppendChunk: %d columns, want %d", c.Width(), len(st.cols)))
	}
	sel := c.Sel()
	for i, col := range st.cols {
		if st.rows == 0 {
			col.adopt(c.Col(i))
		}
		if sel == nil {
			col.AppendVector(c.Col(i))
			continue
		}
		col.SetLen(st.rows + len(sel))
		gatherAt(col, st.rows, c.Col(i), sel)
	}
	st.rows += c.SelectedLen()
}

// AppendRow appends one row given as scalar values.
func (st *DSMStore) AppendRow(vals ...Value) {
	if len(vals) != len(st.cols) {
		panic("DSMStore.AppendRow: arity mismatch")
	}
	for i, v := range vals {
		st.cols[i].AppendValue(v)
	}
	st.rows++
}

// Scan implements Store by copying slices of the requested columns. A dst
// vector takes its column's form, so a coded column scans as codes.
func (st *DSMStore) Scan(lo, n int, cols []int, dst []*Vector) int {
	if n = st.clip(lo, n); n == 0 {
		return 0
	}
	for k, ci := range cols {
		dst[k].SetLen(n)
		dst[k].adopt(st.cols[ci])
		dst[k].CopyFrom(0, st.cols[ci], lo, n)
	}
	return n
}

// View implements Viewer: it points the dst vectors at the requested
// columns' own storage without copying or allocating. A coded column's
// view shares its codes and dictionary.
func (st *DSMStore) View(lo, n int, cols []int, dst []*Vector) int {
	if n = st.clip(lo, n); n == 0 {
		return 0
	}
	for k, ci := range cols {
		*dst[k] = st.cols[ci].slice(lo, lo+n)
	}
	return n
}

// clip returns how many of the rows [lo, lo+n) exist.
func (st *DSMStore) clip(lo, n int) int {
	return max(0, min(n, st.rows-lo))
}
