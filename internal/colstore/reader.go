package colstore

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/compress"
	"repro/internal/vector"
)

// Table is an opened colstore table. It implements vector.Store, decoding
// lazily one segment at a time: the first touch of a segment parses its
// compress.Block out of the mapped file and caches the parsed form — roughly
// the compressed footprint, never the decoded column — so chunked scans pay
// one parse per segment and then cheap range decodes per chunk.
//
// A Str column scans as codes (vector.FromCodes) over one dictionary for
// the whole column, merged from the segments' local dictionaries on the
// column's first scan, with a remap per segment from its local codes to the
// column's. A chunk that spans segments therefore carries one dictionary,
// and every chunk of every scan of the column shares it. The merge reads
// every segment's dictionary whatever range or pruning the first scan has,
// and the table holds the column's distinct strings until it is closed.
type Table struct {
	dir     string
	schema  vector.Schema
	rows    int
	segRows int
	cols    []*column
}

// column is one opened column file.
type column struct {
	kind  vector.Kind
	data  []byte // whole file, mapped or read
	unmap func() error
	segs  []segMeta
	// cache[i] holds segment i's parsed form once first touched.
	cache []atomic.Pointer[segHandle]

	// Str columns: the column dictionary (strDict).
	dictOnce sync.Once
	dict     []string
	remaps   [][]int32 // per segment: local code → column code
	blockOff []uint64  // per segment: where its block follows its local dictionary
	dictErr  error
}

// segHandle is the parsed (still compressed) form of one segment.
type segHandle struct {
	block *compress.Block
	remap []int32 // string columns: the block's local codes → column codes
}

// Open opens a colstore table directory for reading.
func Open(dir string) (*Table, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	t := &Table{dir: dir, rows: m.Rows, segRows: m.SegmentRows}
	for _, mc := range m.Columns {
		kind, err := kindFromName(mc.Kind)
		if err != nil {
			t.Close()
			return nil, err
		}
		col, err := openColumn(columnFile(dir, mc.Name), kind, m)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("column %q: %w", mc.Name, err)
		}
		t.schema.Names = append(t.schema.Names, mc.Name)
		t.schema.Kinds = append(t.schema.Kinds, kind)
		t.cols = append(t.cols, col)
	}
	return t, nil
}

// openColumn maps one column file and parses its footer against the
// manifest's row geometry.
func openColumn(path string, kind vector.Kind, m *manifest) (*column, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	col := &column{kind: kind, data: data, unmap: unmap}
	fail := func(format string, args ...any) (*column, error) {
		col.close()
		return nil, fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
	if len(data) < 2*len(magic)+8+4 {
		return fail("file too short (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic || string(data[len(data)-len(magic):]) != magic {
		return fail("bad magic")
	}
	footerOff := binary.LittleEndian.Uint64(data[len(data)-len(magic)-8:])
	footerEnd := uint64(len(data) - len(magic) - 8)
	if footerOff < uint64(len(magic)) || footerOff > footerEnd-4 {
		return fail("footer offset %d out of range", footerOff)
	}
	nsegs := binary.LittleEndian.Uint32(data[footerOff:])
	if uint64(nsegs)*segMetaBytes != footerEnd-footerOff-4 {
		return fail("footer holds %d segments in %d bytes", nsegs, footerEnd-footerOff-4)
	}
	pos := footerOff + 4
	rows := 0
	for i := uint32(0); i < nsegs; i++ {
		var s segMeta
		s.rows = int(binary.LittleEndian.Uint32(data[pos:]))
		s.off = binary.LittleEndian.Uint64(data[pos+4:])
		s.len = binary.LittleEndian.Uint64(data[pos+12:])
		s.scheme = data[pos+20]
		s.min = int64(binary.LittleEndian.Uint64(data[pos+21:]))
		s.max = int64(binary.LittleEndian.Uint64(data[pos+29:]))
		s.nulls = binary.LittleEndian.Uint32(data[pos+37:])
		s.distinct = binary.LittleEndian.Uint32(data[pos+41:])
		pos += segMetaBytes
		if s.off < uint64(len(magic)) || s.len > footerOff || s.off > footerOff-s.len {
			return fail("segment %d spans [%d,+%d) outside data region", i, s.off, s.len)
		}
		if s.rows <= 0 || s.rows > m.SegmentRows {
			return fail("segment %d has %d rows (segment_rows %d)", i, s.rows, m.SegmentRows)
		}
		if i+1 < nsegs && s.rows != m.SegmentRows {
			return fail("non-final segment %d has %d rows", i, s.rows)
		}
		rows += s.rows
		col.segs = append(col.segs, s)
	}
	if rows != m.Rows {
		return fail("segments hold %d rows, manifest says %d", rows, m.Rows)
	}
	col.cache = make([]atomic.Pointer[segHandle], len(col.segs))
	return col, nil
}

func (c *column) close() {
	if c.unmap != nil {
		c.unmap()
		c.unmap = nil
	}
	c.data = nil
}

// DiskBytes returns the encoded size of the column file, footer included.
func (c *column) diskBytes() int64 { return int64(len(c.data)) }

// segment returns segment i's parsed handle, decoding it on first touch.
// Concurrent first touches may both parse; the duplicate is discarded.
func (c *column) segment(i int) (*segHandle, error) {
	if h := c.cache[i].Load(); h != nil {
		return h, nil
	}
	s := c.segs[i]
	payload := c.data[s.off : s.off+s.len]
	h := &segHandle{}
	if c.kind == vector.Str {
		if _, err := c.strDict(); err != nil {
			return nil, err
		}
		h.remap = c.remaps[i]
		payload = payload[c.blockOff[i]:]
	}
	b, used, err := compress.DecodeBlock(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: segment %d: %v", ErrCorrupt, i, err)
	}
	if used != len(payload) || b.Len() != s.rows {
		return nil, fmt.Errorf("%w: segment %d decodes %d rows in %d of %d bytes",
			ErrCorrupt, i, b.Len(), used, len(payload))
	}
	if c.kind == vector.Str {
		for _, v := range b.RunValues() {
			if v < 0 || v >= int64(len(h.remap)) {
				return nil, fmt.Errorf("%w: segment %d code %d outside dictionary", ErrCorrupt, i, v)
			}
		}
	}
	h.block = b
	c.cache[i].Store(h)
	return h, nil
}

// strDict returns the Str column's dictionary, building it and the
// segments' remaps on first use: it parses every segment's local
// dictionary and gives each distinct string one column code, in order of
// first occurrence.
func (c *column) strDict() ([]string, error) {
	c.dictOnce.Do(func() {
		index := map[string]int32{}
		c.remaps = make([][]int32, len(c.segs))
		c.blockOff = make([]uint64, len(c.segs))
		for i, s := range c.segs {
			payload := c.data[s.off : s.off+s.len]
			if len(payload) < 4 {
				c.dictErr = fmt.Errorf("%w: segment %d dictionary truncated", ErrCorrupt, i)
				return
			}
			nd := int(binary.LittleEndian.Uint32(payload))
			if nd > len(payload) {
				c.dictErr = fmt.Errorf("%w: segment %d dictionary count %d", ErrCorrupt, i, nd)
				return
			}
			remap := make([]int32, nd)
			pos := 4
			for j := range remap {
				l, n := binary.Uvarint(payload[pos:])
				if n <= 0 || uint64(pos+n)+l > uint64(len(payload)) {
					c.dictErr = fmt.Errorf("%w: segment %d dictionary truncated", ErrCorrupt, i)
					return
				}
				pos += n
				str := payload[pos : pos+int(l)]
				code, ok := index[string(str)]
				if !ok {
					code = int32(len(c.dict))
					c.dict = append(c.dict, string(str))
					index[c.dict[code]] = code
				}
				remap[j] = code
				pos += int(l)
			}
			c.remaps[i], c.blockOff[i] = remap, uint64(pos)
		}
	})
	return c.dict, c.dictErr
}

// Schema implements vector.Store.
func (t *Table) Schema() vector.Schema { return t.schema }

// Rows implements vector.Store.
func (t *Table) Rows() int { return t.rows }

// SegmentRows returns the table's segment height.
func (t *Table) SegmentRows() int { return t.segRows }

// Segments returns the number of segments per column.
func (t *Table) Segments() int {
	if t.rows == 0 {
		return 0
	}
	return (t.rows + t.segRows - 1) / t.segRows
}

// ColumnBytes returns the on-disk encoded size of the named column, or 0 if
// absent: the compressed bytes a scan of the column reads.
func (t *Table) ColumnBytes(name string) int64 {
	i := t.schema.ColumnIndex(name)
	if i < 0 {
		return 0
	}
	return t.cols[i].diskBytes()
}

// DistinctEstimate returns the largest per-segment distinct-value estimate
// recorded in the named column's zone maps, or 0 when the column is absent
// or carries no estimates. It deliberately reports the per-segment maximum,
// not a table-wide union: consumers (the engine's parallel aggregation)
// size per-morsel structures, and a morsel never spans more than a segment's
// worth of distinct values per column.
func (t *Table) DistinctEstimate(col string) int {
	i := t.schema.ColumnIndex(col)
	if i < 0 {
		return 0
	}
	est := 0
	for _, s := range t.cols[i].segs {
		if d := int(s.distinct); d > est {
			est = d
		}
	}
	return est
}

// Dir returns the directory the table was opened from.
func (t *Table) Dir() string { return filepath.Clean(t.dir) }

// Close releases the table's mappings. The table must not be scanned after.
func (t *Table) Close() error {
	for _, c := range t.cols {
		c.close()
	}
	return nil
}

// Scan implements vector.Store by decoding the requested row window out of
// each touched segment. A scan error (corrupt segment discovered lazily)
// panics, matching how in-RAM stores treat impossible states; Open validates
// geometry upfront so this only triggers on data-region corruption. Callers
// that cannot trust the data region (fuzzing, recovery) use ScanChecked.
func (t *Table) Scan(lo, n int, cols []int, dst []*vector.Vector) int {
	got, err := t.ScanChecked(lo, n, cols, dst)
	if err != nil {
		panic(fmt.Sprintf("colstore: %v", err))
	}
	return got
}

// ScanChecked is Scan with lazily discovered corruption surfaced as an
// ErrCorrupt-wrapped error instead of a panic. A Str dst becomes coded over
// the column's dictionary. Since that dictionary is merged from all of the
// column's segments, one corrupt segment dictionary fails every scan of the
// column, ranges within healthy segments included.
func (t *Table) ScanChecked(lo, n int, cols []int, dst []*vector.Vector) (int, error) {
	if lo >= t.rows {
		return 0, nil
	}
	if lo+n > t.rows {
		n = t.rows - lo
	}
	for k, ci := range cols {
		if err := t.scanColumn(ci, lo, n, dst[k]); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// scanColumn fills dst with rows [lo, lo+n) of column ci. It allocates
// nothing once the column dictionary exists: I64 and F64 rows decode
// straight into dst (a float's stored form is its IEEE bits, so the F64
// buffer is written as int64), and Str codes go through a fixed stack
// block.
func (t *Table) scanColumn(ci, lo, n int, dst *vector.Vector) error {
	c := t.cols[ci]
	var codes []int32
	if c.kind == vector.Str {
		dict, err := c.strDict()
		if err != nil {
			return err
		}
		codes = dst.SetCoded(dict, n)
	} else {
		dst.SetLen(n)
	}
	filled := 0
	for filled < n {
		row := lo + filled
		si := row / t.segRows
		from := row - si*t.segRows
		take := t.segRows - from
		if take > n-filled {
			take = n - filled
		}
		h, err := c.segment(si)
		if err != nil {
			return err
		}
		switch c.kind {
		case vector.I64:
			err = h.decode(dst.I64()[filled:filled+take], from, si)
		case vector.F64:
			out := dst.F64()[filled : filled+take]
			err = h.decode(unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(out))), take), from, si)
		case vector.Str:
			err = h.decodeCodes(codes[filled:filled+take], from, si)
		}
		if err != nil {
			return err
		}
		filled += take
	}
	return nil
}

// decode fills dst with the stored values of segment si's rows [from,
// from+len(dst)).
func (h *segHandle) decode(dst []int64, from, si int) error {
	if got := h.block.DecompressRange(dst, from, len(dst)); got != len(dst) {
		return fmt.Errorf("%w: segment %d range decode %d/%d", ErrCorrupt, si, got, len(dst))
	}
	return nil
}

// strBlock is how many dictionary codes decodeCodes decodes per call,
// through a stack buffer.
const strBlock = 256

// decodeCodes fills out with the column codes of segment si's rows [from,
// from+len(out)), checking every stored code against the segment's local
// dictionary before remapping it.
func (h *segHandle) decodeCodes(out []int32, from, si int) error {
	var codes [strBlock]int64
	for done := 0; done < len(out); {
		m := min(len(out)-done, strBlock)
		if err := h.decode(codes[:m], from+done, si); err != nil {
			return err
		}
		for i, code := range codes[:m] {
			if uint64(code) >= uint64(len(h.remap)) {
				return fmt.Errorf("%w: segment %d code %d outside dictionary", ErrCorrupt, si, code)
			}
			out[done+i] = h.remap[code]
		}
		done += m
	}
	return nil
}
