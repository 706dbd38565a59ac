// Package compress implements the per-block compression substrate of the
// paper's compressed-execution scenario (§I and §III-C): columns are stored
// as sequences of blocks, each block compressed with the scheme that fits
// its data ("the possibility of compression techniques within one column to
// change (e.g. block by block) in order to adapt compression methods to the
// data in each block"). Operators can either decompress and process
// (the fallback, [32]) or execute directly on the compressed representation
// ([1]); the adaptive scanner mirrors the VM's behaviour by specializing per
// scheme and falling back when the scheme changes mid-column.
package compress

import (
	"fmt"
	"math"
	"math/bits"
)

// Scheme identifies a block compression method.
type Scheme uint8

// Compression schemes.
const (
	None Scheme = iota
	RLE         // run-length encoding: (value, runLength) pairs
	Dict        // dictionary encoding: small value domain, narrow codes
	FOR         // frame of reference: base + bit-packed unsigned deltas
)

var schemeNames = [...]string{None: "none", RLE: "rle", Dict: "dict", FOR: "for"}

func (s Scheme) String() string { return schemeNames[s] }

// DefaultBlockLen is the number of values per block.
const DefaultBlockLen = 4096

// Block is one compressed block of an int64 column.
type Block struct {
	scheme Scheme
	n      int

	raw []int64 // None

	runVals []int64 // RLE
	runLens []int32

	dict  []int64 // Dict: codes index into dict
	codes []uint16

	base  int64 // FOR
	width uint8 // bits per delta
	packs []uint64
}

// Scheme returns the block's compression scheme.
func (b *Block) Scheme() Scheme { return b.scheme }

// Len returns the number of logical values.
func (b *Block) Len() int { return b.n }

// CompressedBytes estimates the block's storage footprint.
func (b *Block) CompressedBytes() int {
	switch b.scheme {
	case None:
		return 8 * len(b.raw)
	case RLE:
		return 12 * len(b.runVals)
	case Dict:
		return 8*len(b.dict) + 2*len(b.codes)
	case FOR:
		return 9 + 8*len(b.packs)
	}
	return 0
}

// Compress encodes data with the given scheme. Dict returns an error when
// the domain exceeds 65536 distinct values; FOR when deltas exceed 64 bits
// (impossible for int64 ranges up to 2^63-1 — guarded anyway).
func Compress(data []int64, scheme Scheme) (*Block, error) {
	b := &Block{scheme: scheme, n: len(data)}
	switch scheme {
	case None:
		b.raw = append([]int64(nil), data...)
		return b, nil

	case RLE:
		for i := 0; i < len(data); {
			j := i
			for j < len(data) && data[j] == data[i] {
				j++
			}
			b.runVals = append(b.runVals, data[i])
			b.runLens = append(b.runLens, int32(j-i))
			i = j
		}
		return b, nil

	case Dict:
		index := map[int64]uint16{}
		for _, x := range data {
			if _, ok := index[x]; !ok {
				if len(b.dict) >= 1<<16 {
					return nil, fmt.Errorf("compress: dictionary overflow (> %d distinct values)", 1<<16)
				}
				index[x] = uint16(len(b.dict))
				b.dict = append(b.dict, x)
			}
		}
		b.codes = make([]uint16, len(data))
		for i, x := range data {
			b.codes[i] = index[x]
		}
		return b, nil

	case FOR:
		if len(data) == 0 {
			return b, nil
		}
		lo, hi := data[0], data[0]
		for _, x := range data {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		span := uint64(hi - lo)
		width := uint8(bits.Len64(span))
		if width == 0 {
			width = 1
		}
		b.base = lo
		b.width = width
		b.packs = make([]uint64, (len(data)*int(width)+63)/64)
		for i, x := range data {
			put(b.packs, i, width, uint64(x-lo))
		}
		return b, nil
	}
	return nil, fmt.Errorf("compress: unknown scheme %v", scheme)
}

func put(packs []uint64, i int, width uint8, v uint64) {
	bitPos := i * int(width)
	word, off := bitPos/64, uint(bitPos%64)
	packs[word] |= v << off
	if off+uint(width) > 64 {
		packs[word+1] |= v >> (64 - off)
	}
}

// get returns delta i by its own bit position (point access; Block.Get).
func get(packs []uint64, i int, width uint8) uint64 {
	bitPos := i * int(width)
	word, off := bitPos/64, uint(bitPos%64)
	v := packs[word] >> off
	if off+uint(width) > 64 {
		v |= packs[word+1] << (64 - off)
	}
	if width == 64 {
		return v
	}
	return v & ((1 << width) - 1)
}

// unpack writes base plus the FOR deltas [from, from+len(dst)) of packs,
// width bits each, into dst; base 0 leaves the deltas themselves. Width 64
// copies words. Any other width advances a bit cursor, so no value pays a
// multiply or a divide: a value is its word shifted down by the offset, or'ed
// with the next word shifted up by 64 minus the offset — in two steps, so
// that offset 0 shifts the next word out with no branch. Values that start
// in the last word have no next word to read and go through a tail loop.
func unpack(dst []int64, packs []uint64, width uint8, base uint64, from int) {
	if len(dst) == 0 {
		return
	}
	if width == 64 {
		for i, w := range packs[from : from+len(dst)] {
			dst[i] = int64(base + w)
		}
		return
	}
	w := uint(width)
	mask := uint64(1)<<w - 1
	bit := uint(from) * w
	lastWord := int((uint(len(packs)-1)*64 + w - 1) / w) // first value starting in it
	body := min(len(dst), max(0, lastWord-from))
	for i := range dst[:body] {
		word, off := bit>>6, bit&63
		dst[i] = int64(base + (packs[word]>>off|packs[word+1]<<(63-off)<<1)&mask)
		bit += w
	}
	for i := body; i < len(dst); i++ {
		dst[i] = int64(base + packs[bit>>6]>>(bit&63)&mask)
		bit += w
	}
}

// forBlock is how many values the FOR kernels unpack per call, through a
// stack buffer.
const forBlock = 256

// unpackAt unpacks the up to forBlock values from value at on into buf,
// base added (base 0: the unsigned deltas), and returns them.
func (b *Block) unpackAt(buf *[forBlock]int64, base uint64, at int) []int64 {
	vals := buf[:min(forBlock, b.n-at)]
	unpack(vals, b.packs, b.width, base, at)
	return vals
}

// Analyze picks the scheme with the smallest footprint for data.
func Analyze(data []int64) Scheme {
	if len(data) == 0 {
		return None
	}
	// Estimate RLE runs and distinct count in one pass.
	runs := 1
	distinct := map[int64]struct{}{}
	lo, hi := data[0], data[0]
	for i, x := range data {
		if i > 0 && x != data[i-1] {
			runs++
		}
		if len(distinct) <= 1<<16 {
			distinct[x] = struct{}{}
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	costNone := 8 * len(data)
	costRLE := 12 * runs
	costDict := 1 << 62
	if len(distinct) <= 1<<16 {
		costDict = 8*len(distinct) + 2*len(data)
	}
	width := bits.Len64(uint64(hi - lo))
	if width == 0 {
		width = 1
	}
	costFOR := 9 + (len(data)*width+63)/64*8
	best, scheme := costNone, None
	for _, c := range []struct {
		cost int
		s    Scheme
	}{{costRLE, RLE}, {costDict, Dict}, {costFOR, FOR}} {
		if c.cost < best {
			best, scheme = c.cost, c.s
		}
	}
	return scheme
}

// Decompress writes all values into dst (which must have length ≥ b.Len())
// and returns the number written. This is the [32]-style fallback path.
func (b *Block) Decompress(dst []int64) int {
	switch b.scheme {
	case None:
		copy(dst, b.raw)
	case RLE:
		k := 0
		for r, v := range b.runVals {
			for j := int32(0); j < b.runLens[r]; j++ {
				dst[k] = v
				k++
			}
		}
	case Dict:
		for i, c := range b.codes {
			dst[i] = b.dict[c]
		}
	case FOR:
		unpack(dst[:b.n], b.packs, b.width, uint64(b.base), 0)
	}
	return b.n
}

// DecompressRange writes values [from, from+n) into dst (length ≥ n) and
// returns the number written. RLE walks runs once (O(runs + n)), so chunked
// readers pay far less than a full Decompress per chunk.
func (b *Block) DecompressRange(dst []int64, from, n int) int {
	if from < 0 || n <= 0 || from >= b.n {
		return 0
	}
	if from+n > b.n {
		n = b.n - from
	}
	switch b.scheme {
	case None:
		copy(dst[:n], b.raw[from:from+n])
	case RLE:
		k := 0
		pos := 0
		for r := 0; r < len(b.runVals) && k < n; r++ {
			l := int(b.runLens[r])
			if pos+l <= from {
				pos += l
				continue
			}
			start := 0
			if from > pos {
				start = from - pos
			}
			for j := start; j < l && k < n; j++ {
				dst[k] = b.runVals[r]
				k++
			}
			pos += l
		}
	case Dict:
		for i := 0; i < n; i++ {
			dst[i] = b.dict[b.codes[from+i]]
		}
	case FOR:
		unpack(dst[:n], b.packs, b.width, uint64(b.base), from)
	}
	return n
}

// DictValues returns the dictionary domain of a Dict block (nil otherwise).
// Predicates can be evaluated once over this domain instead of per row.
func (b *Block) DictValues() []int64 {
	if b.scheme != Dict {
		return nil
	}
	return b.dict
}

// RunValues returns the run values of an RLE block (nil otherwise); like
// DictValues, this is the (possibly repeating) value domain of the block.
func (b *Block) RunValues() []int64 {
	if b.scheme != RLE {
		return nil
	}
	return b.runVals
}

// DistinctUpperBound returns an upper bound on the number of distinct values
// in the block, cheap to read off the encoded form: exact for Dict, the run
// count for RLE, and the value count otherwise.
func (b *Block) DistinctUpperBound() int {
	switch b.scheme {
	case Dict:
		return len(b.dict)
	case RLE:
		return len(b.runVals)
	}
	return b.n
}

// MinMax scans the encoded form for the value range (zone map input). For
// Dict/RLE only the domain is visited; ok is false for an empty block.
func (b *Block) MinMax() (lo, hi int64, ok bool) {
	if b.n == 0 {
		return 0, 0, false
	}
	scan := func(vals []int64) (int64, int64) {
		mn, mx := vals[0], vals[0]
		for _, v := range vals[1:] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return mn, mx
	}
	switch b.scheme {
	case None:
		lo, hi = scan(b.raw)
	case RLE:
		lo, hi = scan(b.runVals)
	case Dict:
		lo, hi = scan(b.dict)
	case FOR:
		lo, hi = math.MaxInt64, math.MinInt64
		var buf [forBlock]int64
		for at := 0; at < b.n; at += forBlock {
			mn, mx := scan(b.unpackAt(&buf, uint64(b.base), at))
			lo, hi = min(lo, mn), max(hi, mx)
		}
	}
	return lo, hi, true
}

// Get returns value i (for tests and point access).
func (b *Block) Get(i int) int64 {
	switch b.scheme {
	case None:
		return b.raw[i]
	case RLE:
		for r, l := range b.runLens {
			if i < int(l) {
				return b.runVals[r]
			}
			i -= int(l)
		}
		panic("compress: index out of range")
	case Dict:
		return b.dict[b.codes[i]]
	case FOR:
		return b.base + int64(get(b.packs, i, b.width))
	}
	panic("compress: invalid block")
}

// ---------------------------------------------------------------------------
// Compressed execution kernels ([1]): operate directly on the encoded form.

// Sum returns the sum of all values without materializing them.
func (b *Block) Sum() int64 {
	switch b.scheme {
	case None:
		var s int64
		for _, x := range b.raw {
			s += x
		}
		return s
	case RLE:
		var s int64
		for r, v := range b.runVals {
			s += v * int64(b.runLens[r])
		}
		return s
	case Dict:
		// Histogram the codes, then one multiply per dictionary entry.
		counts := make([]int64, len(b.dict))
		for _, c := range b.codes {
			counts[c]++
		}
		var s int64
		for i, v := range b.dict {
			s += v * counts[i]
		}
		return s
	case FOR:
		var deltas uint64
		var buf [forBlock]int64
		for at := 0; at < b.n; at += forBlock {
			for _, d := range b.unpackAt(&buf, 0, at) {
				deltas += uint64(d)
			}
		}
		return b.base*int64(b.n) + int64(deltas)
	}
	return 0
}

// CountGreater returns |{i : v[i] > x}| directly on the encoded form.
func (b *Block) CountGreater(x int64) int64 {
	switch b.scheme {
	case None:
		var c int64
		for _, v := range b.raw {
			if v > x {
				c++
			}
		}
		return c
	case RLE:
		var c int64
		for r, v := range b.runVals {
			if v > x {
				c += int64(b.runLens[r])
			}
		}
		return c
	case Dict:
		// Evaluate the predicate once per dictionary entry, then count
		// matching codes with a bitmap over the (small) domain.
		match := make([]bool, len(b.dict))
		for i, v := range b.dict {
			match[i] = v > x
		}
		var c int64
		for _, code := range b.codes {
			if match[code] {
				c++
			}
		}
		return c
	case FOR:
		if x < b.base {
			return int64(b.n) // everything is ≥ base > x
		}
		t := uint64(x - b.base)
		var c int64
		var buf [forBlock]int64
		for at := 0; at < b.n; at += forBlock {
			for _, d := range b.unpackAt(&buf, 0, at) {
				if uint64(d) > t {
					c++
				}
			}
		}
		return c
	}
	return 0
}

// SumGreater returns the sum of values > x on the encoded form.
func (b *Block) SumGreater(x int64) int64 {
	switch b.scheme {
	case None:
		var s int64
		for _, v := range b.raw {
			if v > x {
				s += v
			}
		}
		return s
	case RLE:
		var s int64
		for r, v := range b.runVals {
			if v > x {
				s += v * int64(b.runLens[r])
			}
		}
		return s
	case Dict:
		counts := make([]int64, len(b.dict))
		for _, c := range b.codes {
			counts[c]++
		}
		var s int64
		for i, v := range b.dict {
			if v > x {
				s += v * counts[i]
			}
		}
		return s
	case FOR:
		var s int64
		var buf [forBlock]int64
		for at := 0; at < b.n; at += forBlock {
			for _, v := range b.unpackAt(&buf, uint64(b.base), at) {
				if v > x {
					s += v
				}
			}
		}
		return s
	}
	return 0
}

// Column is a compressed column: a sequence of independently encoded blocks
// whose schemes may differ block to block.
type Column struct {
	blocks []*Block
	n      int
}

// BuildColumn compresses data into blocks of blockLen values, choosing each
// block's scheme with Analyze (or forcing the given scheme when forced !=
// nil).
func BuildColumn(data []int64, blockLen int, forced *Scheme) (*Column, error) {
	if blockLen <= 0 {
		blockLen = DefaultBlockLen
	}
	col := &Column{n: len(data)}
	for lo := 0; lo < len(data); lo += blockLen {
		hi := lo + blockLen
		if hi > len(data) {
			hi = len(data)
		}
		scheme := Analyze(data[lo:hi])
		if forced != nil {
			scheme = *forced
		}
		b, err := Compress(data[lo:hi], scheme)
		if err != nil {
			return nil, err
		}
		col.blocks = append(col.blocks, b)
	}
	return col, nil
}

// Len returns the logical length of the column.
func (c *Column) Len() int { return c.n }

// Blocks returns the column's blocks.
func (c *Column) Blocks() []*Block { return c.blocks }

// CompressedBytes sums the block footprints.
func (c *Column) CompressedBytes() int {
	total := 0
	for _, b := range c.blocks {
		total += b.CompressedBytes()
	}
	return total
}

// SchemeChanges counts block boundaries where the scheme differs from the
// previous block (the "situation changes" the VM must survive).
func (c *Column) SchemeChanges() int {
	changes := 0
	for i := 1; i < len(c.blocks); i++ {
		if c.blocks[i].scheme != c.blocks[i-1].scheme {
			changes++
		}
	}
	return changes
}
