package colstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/compress"
	"repro/internal/vector"
)

// WriteOptions configure table layout.
type WriteOptions struct {
	// SegmentRows is the fixed row count per segment (last segment may be
	// short). Zero selects DefaultSegmentRows.
	SegmentRows int
}

// Write persists a table into dir (created if needed), one file per column
// plus a manifest written last, all via atomic renames. Columns are encoded
// in parallel — each worker runs the adaptive scheme chooser on its own
// segments, which is exactly the concurrent use the chooser must survive.
func Write(dir string, st vector.Store, opts WriteOptions) error {
	segRows := opts.SegmentRows
	if segRows <= 0 {
		segRows = DefaultSegmentRows
	}
	sch := st.Schema()
	for i, name := range sch.Names {
		if !validColumnName(name) {
			return fmt.Errorf("colstore: column name %q not writable", name)
		}
		if _, ok := kindNames[sch.Kinds[i]]; !ok {
			return fmt.Errorf("colstore: column %q has unsupported kind %v", name, sch.Kinds[i])
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	var wg sync.WaitGroup
	errs := make([]error, len(sch.Names))
	for ci := range sch.Names {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			errs[ci] = writeColumn(dir, st, ci, segRows)
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	m := manifest{Version: 1, Rows: st.Rows(), SegmentRows: segRows}
	for i, name := range sch.Names {
		m.Columns = append(m.Columns, manifestCol{Name: name, Kind: kindNames[sch.Kinds[i]]})
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, manifestName), data)
}

// writeColumn encodes one column into its segment file.
func writeColumn(dir string, st vector.Store, ci, segRows int) error {
	sch := st.Schema()
	kind := sch.Kinds[ci]
	rows := st.Rows()

	buf := []byte(magic)
	var metas []segMeta
	vals := make([]int64, segRows)
	vec := vector.NewLen(kind, segRows)
	var local segDict
	for lo := 0; lo < rows; lo += segRows {
		n := segRows
		if lo+n > rows {
			n = rows - lo
		}
		vec.SetLen(n)
		if got := st.Scan(lo, n, []int{ci}, []*vector.Vector{vec}); got != n {
			return fmt.Errorf("colstore: scan of %q returned %d rows, want %d", sch.Names[ci], got, n)
		}
		meta := segMeta{rows: n, off: uint64(len(buf))}
		var err error
		switch kind {
		case vector.I64:
			buf, meta, err = appendI64Segment(buf, meta, vec.I64()[:n], vals)
		case vector.F64:
			iv := vals[:n]
			for i, f := range vec.F64()[:n] {
				iv[i] = int64(math.Float64bits(f))
			}
			buf, meta, err = appendF64Segment(buf, meta, iv, vec.F64()[:n])
		case vector.Str:
			buf, meta, err = local.appendSegment(buf, meta, vec, vals)
		}
		if err != nil {
			return fmt.Errorf("colstore: column %q: %w", sch.Names[ci], err)
		}
		meta.len = uint64(len(buf)) - meta.off
		metas = append(metas, meta)
	}

	// Footer + trailer.
	footerOff := uint64(len(buf))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(metas)))
	for _, m := range metas {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.rows))
		buf = binary.LittleEndian.AppendUint64(buf, m.off)
		buf = binary.LittleEndian.AppendUint64(buf, m.len)
		buf = append(buf, m.scheme)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.min))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.max))
		buf = binary.LittleEndian.AppendUint32(buf, m.nulls)
		buf = binary.LittleEndian.AppendUint32(buf, m.distinct)
	}
	buf = binary.LittleEndian.AppendUint64(buf, footerOff)
	buf = append(buf, magic...)
	return writeFileAtomic(columnFile(dir, sch.Names[ci]), buf)
}

// appendI64Segment encodes one int64 segment: analyze → compress → append,
// recording the zone map off the encoded block.
func appendI64Segment(buf []byte, meta segMeta, data, _ []int64) ([]byte, segMeta, error) {
	b, err := compress.Compress(data, compress.Analyze(data))
	if err != nil {
		return nil, meta, err
	}
	buf = compress.AppendBlock(buf, b)
	meta.scheme = uint8(b.Scheme())
	if lo, hi, ok := b.MinMax(); ok {
		meta.min, meta.max = lo, hi
	}
	meta.distinct = distinctEstimate(b)
	return buf, meta, nil
}

// appendF64Segment encodes a float64 segment as the compress.Block of its
// bit images; the zone map stores the bit images of the true float min/max.
func appendF64Segment(buf []byte, meta segMeta, bits []int64, floats []float64) ([]byte, segMeta, error) {
	b, err := compress.Compress(bits, compress.Analyze(bits))
	if err != nil {
		return nil, meta, err
	}
	buf = compress.AppendBlock(buf, b)
	meta.scheme = uint8(b.Scheme())
	if len(floats) > 0 {
		mn, mx := floats[0], floats[0]
		for _, f := range floats[1:] {
			if f < mn {
				mn = f
			}
			if f > mx {
				mx = f
			}
		}
		meta.min = int64(math.Float64bits(mn))
		meta.max = int64(math.Float64bits(mx))
	}
	meta.distinct = distinctEstimate(b)
	return buf, meta, nil
}

// segDict builds one string segment's local dictionary: its distinct
// strings in order of first occurrence. It is reused from segment to
// segment of a column.
type segDict struct {
	index map[string]int64
	dict  []string
	// byCode holds, for a coded input, the local code + 1 of each input
	// code (0 = not seen in this segment); touched lists the ones set.
	byCode  []int64
	touched []int32
}

// code returns the local code of s, adding s if the segment lacks it.
func (d *segDict) code(s string) int64 {
	c, ok := d.index[s]
	if !ok {
		c = int64(len(d.dict))
		d.index[s] = c
		d.dict = append(d.dict, s)
	}
	return c
}

// appendSegment dictionary-encodes the string segment vec locally: the
// segment dictionary, then the local codes as a compressed int64 block. A
// coded vec is read as codes, each input code looked up once per segment;
// equal strings under two input codes still get one local code, so the
// bytes are those of the plain strings. The zone map's distinct count is
// exact.
func (d *segDict) appendSegment(buf []byte, meta segMeta, vec *vector.Vector, codes []int64) ([]byte, segMeta, error) {
	if d.index == nil {
		d.index = map[string]int64{}
	}
	clear(d.index)
	d.dict = d.dict[:0]
	codes = codes[:vec.Len()]
	if vec.Coded() {
		in := vec.Dict()
		if len(d.byCode) < len(in) {
			d.byCode = make([]int64, len(in))
		}
		for _, c := range d.touched {
			d.byCode[c] = 0
		}
		d.touched = d.touched[:0]
		for i, c := range vec.Codes() {
			if d.byCode[c] == 0 {
				d.byCode[c] = d.code(in[c]) + 1
				d.touched = append(d.touched, c)
			}
			codes[i] = d.byCode[c] - 1
		}
	} else {
		for i, s := range vec.Str() {
			codes[i] = d.code(s)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.dict)))
	for _, s := range d.dict {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	b, err := compress.Compress(codes, compress.Analyze(codes))
	if err != nil {
		return nil, meta, err
	}
	buf = compress.AppendBlock(buf, b)
	meta.scheme = uint8(b.Scheme())
	meta.distinct = uint32(len(d.dict))
	return buf, meta, nil
}

// distinctEstimate reads a cheap distinct bound off the encoded block,
// capped for the u32 footer field.
func distinctEstimate(b *compress.Block) uint32 {
	d := b.DistinctUpperBound()
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	return uint32(d)
}
