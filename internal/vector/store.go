package vector

import "fmt"

// This file implements the two table-storage layouts contrasted in the
// paper's §II transformation list via [33] (Zukowski et al., "DSM vs. NSM"):
//
//   - DSM (decomposed storage model): one contiguous array per column. Reads
//     that touch few columns stream only those arrays.
//   - NSM (n-ary storage model): rows laid out contiguously. Reads that touch
//     all columns of a row enjoy locality; reads that touch few columns drag
//     the whole row through the cache.
//
// Both implement Store, so experiment E10 can scan either through the same
// code path.

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
func NewDSMStore(schema Schema) *DSMStore {
	st := &DSMStore{schema: schema}
	for _, k := range schema.Kinds {
		st.cols = append(st.cols, New(k, 0, 0))
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
// schema by position.
func (st *DSMStore) AppendChunk(c *Chunk) {
	if c.Width() != len(st.cols) {
		panic(fmt.Sprintf("DSMStore.AppendChunk: %d columns, want %d", c.Width(), len(st.cols)))
	}
	cc := c
	if c.Sel() != nil {
		cc = c.Condense()
	}
	for i := range st.cols {
		st.cols[i].AppendVector(cc.Col(i))
	}
	st.rows += cc.Len()
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

// Scan implements Store by copying slices of the requested columns.
func (st *DSMStore) Scan(lo, n int, cols []int, dst []*Vector) int {
	if n = st.clip(lo, n); n == 0 {
		return 0
	}
	for k, ci := range cols {
		dst[k].SetLen(n)
		dst[k].CopyFrom(0, st.cols[ci], lo, n)
	}
	return n
}

// View implements Viewer: it points the dst vectors at the requested
// columns' own storage without copying or allocating.
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

// NSMStore stores fixed-width rows contiguously (row-major). String columns
// are kept in a side array since they are not fixed width; the row holds an
// index into it. This mirrors how real NSM pages store out-of-line data.
type NSMStore struct {
	schema  Schema
	rowSize int
	offsets []int
	data    []byte
	strings []string
	rows    int
}

// NewNSMStore creates an empty NSM table with the given schema.
func NewNSMStore(schema Schema) *NSMStore {
	st := &NSMStore{schema: schema}
	for _, k := range schema.Kinds {
		st.offsets = append(st.offsets, st.rowSize)
		switch k {
		case Bool, I8:
			st.rowSize++
		case I16:
			st.rowSize += 2
		case I32:
			st.rowSize += 4
		case I64, F64, Str:
			st.rowSize += 8 // Str stores an 8-byte index into st.strings
		default:
			panic(fmt.Sprintf("NSMStore: unsupported kind %v", k))
		}
	}
	return st
}

// Schema returns the table schema.
func (st *NSMStore) Schema() Schema { return st.schema }

// Rows returns the row count.
func (st *NSMStore) Rows() int { return st.rows }

// RowSize returns the fixed byte width of one row.
func (st *NSMStore) RowSize() int { return st.rowSize }

func putU64(b []byte, x uint64) {
	b[0] = byte(x)
	b[1] = byte(x >> 8)
	b[2] = byte(x >> 16)
	b[3] = byte(x >> 24)
	b[4] = byte(x >> 32)
	b[5] = byte(x >> 40)
	b[6] = byte(x >> 48)
	b[7] = byte(x >> 56)
}

func getU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// AppendRow appends one row given as scalar values.
func (st *NSMStore) AppendRow(vals ...Value) {
	if len(vals) != len(st.schema.Kinds) {
		panic("NSMStore.AppendRow: arity mismatch")
	}
	base := len(st.data)
	st.data = append(st.data, make([]byte, st.rowSize)...)
	row := st.data[base:]
	for i, v := range vals {
		off := st.offsets[i]
		switch st.schema.Kinds[i] {
		case Bool:
			if v.B {
				row[off] = 1
			}
		case I8:
			row[off] = byte(int8(v.I))
		case I16:
			x := uint16(int16(v.I))
			row[off] = byte(x)
			row[off+1] = byte(x >> 8)
		case I32:
			x := uint32(int32(v.I))
			row[off] = byte(x)
			row[off+1] = byte(x >> 8)
			row[off+2] = byte(x >> 16)
			row[off+3] = byte(x >> 24)
		case I64:
			putU64(row[off:], uint64(v.I))
		case F64:
			putU64(row[off:], mathFloat64bits(v.F))
		case Str:
			putU64(row[off:], uint64(len(st.strings)))
			st.strings = append(st.strings, v.S)
		}
	}
	st.rows++
}

// AppendChunk appends all (selected) rows of a chunk matching the schema.
func (st *NSMStore) AppendChunk(c *Chunk) {
	cc := c
	if c.Sel() != nil {
		cc = c.Condense()
	}
	vals := make([]Value, cc.Width())
	for r := 0; r < cc.Len(); r++ {
		for i := 0; i < cc.Width(); i++ {
			vals[i] = cc.Col(i).Get(r)
		}
		st.AppendRow(vals...)
	}
}

// Scan implements Store by gathering the requested fields out of each row.
func (st *NSMStore) Scan(lo, n int, cols []int, dst []*Vector) int {
	if lo >= st.rows {
		return 0
	}
	if lo+n > st.rows {
		n = st.rows - lo
	}
	for k := range cols {
		dst[k].SetLen(n)
	}
	for r := 0; r < n; r++ {
		row := st.data[(lo+r)*st.rowSize:]
		for k, ci := range cols {
			off := st.offsets[ci]
			switch st.schema.Kinds[ci] {
			case Bool:
				dst[k].Bool()[r] = row[off] != 0
			case I8:
				dst[k].I8()[r] = int8(row[off])
			case I16:
				dst[k].I16()[r] = int16(uint16(row[off]) | uint16(row[off+1])<<8)
			case I32:
				dst[k].I32()[r] = int32(uint32(row[off]) | uint32(row[off+1])<<8 |
					uint32(row[off+2])<<16 | uint32(row[off+3])<<24)
			case I64:
				dst[k].I64()[r] = int64(getU64(row[off:]))
			case F64:
				dst[k].F64()[r] = mathFloat64frombits(getU64(row[off:]))
			case Str:
				dst[k].Str()[r] = st.strings[getU64(row[off:])]
			}
		}
	}
	return n
}
