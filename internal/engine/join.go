package engine

import (
	"context"
	"fmt"

	"repro/internal/profile"
	"repro/internal/vector"
)

// BloomFilter is a blocked Bloom filter over int64 keys, the §IV-target-2
// "applicability of Bloom-filters in selective hash-joins" device: probes
// that miss the filter skip the hash table entirely.
type BloomFilter struct {
	bits []uint64
	mask uint64
}

// NewBloomFilter sizes the filter for n keys at ~8 bits per key.
func NewBloomFilter(n int) *BloomFilter {
	words := 1
	for words*64 < n*8 {
		words *= 2
	}
	return &BloomFilter{bits: make([]uint64, words), mask: uint64(words*64 - 1)}
}

func bloomHash1(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

func bloomHash2(k int64) uint64 {
	x := uint64(k)
	x *= 0xc2b2ae3d27d4eb4f
	x ^= x >> 29
	x *= 0x165667b19e3779f9
	x ^= x >> 32
	return x
}

// Add inserts a key.
func (b *BloomFilter) Add(k int64) {
	h1, h2 := bloomHash1(k)&b.mask, bloomHash2(k)&b.mask
	b.bits[h1/64] |= 1 << (h1 % 64)
	b.bits[h2/64] |= 1 << (h2 % 64)
}

// MayContain reports whether k may be present (false = definitely absent).
func (b *BloomFilter) MayContain(k int64) bool {
	h1, h2 := bloomHash1(k)&b.mask, bloomHash2(k)&b.mask
	return b.bits[h1/64]&(1<<(h1%64)) != 0 && b.bits[h2/64]&(1<<(h2%64)) != 0
}

// BloomMode controls Bloom-filter use in HashJoin.
type BloomMode int

// Bloom flavors.
const (
	// BloomAdaptive enables the prefilter while the observed probe hit
	// rate stays low and disables it when most probes hit anyway.
	BloomAdaptive BloomMode = iota
	BloomOn
	BloomOff
)

// bloomThreshold is the probe hit rate above which the prefilter is pure
// overhead.
const bloomThreshold = 0.5

// JoinTable is an immutable materialized-and-hashed build side: the build
// rows in build order, plus one join index (and Bloom filter) per partition.
// A single-partition table is what the serial HashJoin constructs; the
// morsel-parallel build produces one partition per worker so workers index
// without contention. The partition count never changes lookup results —
// match lists are always in build-row order — so the partitioning is
// invisible to probes.
type JoinTable struct {
	rows   *vector.DSMStore
	keyIdx int
	mask   uint64 // partition count - 1 (0 = single partition)
	parts  []joinIndex
	blooms []*BloomFilter
}

// joinIndex is one partition's index: an open-addressed table over the
// partition's distinct build keys, each key owning one run of build rows.
// Key id d (ids are dense, in first-seen order) has key keys[d] and rows
// rows[off[d]:off[d+1]], in build order. A lookup hashes once, walks the
// slots linearly and returns a subslice of rows: nothing is allocated per
// key, at build or at probe time.
type joinIndex struct {
	slots []int32 // key id + 1 per slot, 0 = empty; power-of-two length, load ≤ ¼
	keys  []int64 // distinct keys by id
	off   []int32 // len(keys)+1 run boundaries into rows
	rows  []int32 // build row indexes grouped by key
}

// newJoinIndex indexes the build rows listed in lists — concatenated, in
// build order — whose keys are keys[row]. It makes three passes: assign
// each row its key id and count the rows per id, prefix-sum the counts into
// run boundaries, and scatter the rows into their runs. Every buffer is
// sized up front from the row count.
func newJoinIndex(keys []int64, lists [][]int32) joinIndex {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	// Load ≤ ¼, not ½: most probes that miss then find their home slot
	// empty, a branch that predicts well. At ½ the same miss-heavy random
	// probes mispredict often enough to lose to a Go map (BenchmarkJoinProbe).
	nslots := 4
	for nslots < 4*n {
		nslots *= 2
	}
	x := joinIndex{
		slots: make([]int32, nslots),
		keys:  make([]int64, 0, n),
		off:   make([]int32, n+1),
		rows:  make([]int32, n),
	}
	mask := uint64(nslots - 1)
	ids := make([]int32, n) // each listed row's key id, in list order

	// Pass 1: ids and counts. off[d+1] counts key d's rows.
	j := 0
	for _, l := range lists {
		for _, r := range l {
			k := keys[r]
			h := hashI64(k) & mask
			for x.slots[h] != 0 && x.keys[x.slots[h]-1] != k {
				h = (h + 1) & mask
			}
			if x.slots[h] == 0 { // the key's first row
				x.keys = append(x.keys, k)
				x.slots[h] = int32(len(x.keys))
			}
			d := x.slots[h] - 1
			ids[j] = d
			x.off[d+1]++
			j++
		}
	}
	// Pass 2: prefix sum — off[d] is where key d's run starts.
	x.off = x.off[:len(x.keys)+1]
	for d := 1; d < len(x.off); d++ {
		x.off[d] += x.off[d-1]
	}
	// Pass 3: scatter, using off[d] as key d's cursor. Afterwards off[d]
	// is where run d ends, the start of run d+1; shifting right by one
	// slot restores the starts.
	j = 0
	for _, l := range lists {
		for _, r := range l {
			d := ids[j]
			x.rows[x.off[d]] = r
			x.off[d]++
			j++
		}
	}
	copy(x.off[1:], x.off[:len(x.off)-1])
	x.off[0] = 0
	return x
}

// lookup returns the build rows whose key is k, in build order (nil when
// none). The result is a capacity-clipped subslice of the index: callers
// only read it.
func (x *joinIndex) lookup(k int64) []int32 {
	mask := uint64(len(x.slots) - 1)
	for h := hashI64(k) & mask; ; h = (h + 1) & mask {
		s := x.slots[h]
		if s == 0 {
			return nil
		}
		if x.keys[s-1] == k {
			lo, hi := x.off[s-1], x.off[s]
			return x.rows[lo:hi:hi]
		}
	}
}

// NewJoinTable indexes a materialized build side into a single-partition
// table: match lists hold build row indexes in build order.
func NewJoinTable(rows *vector.DSMStore, buildKey string) (*JoinTable, error) {
	return newPartitionedJoinTable(rows, buildKey, 1)
}

// newJoinTableHeader validates the key column and prepares an empty table.
func newJoinTableHeader(rows *vector.DSMStore, buildKey string) (*JoinTable, error) {
	sch := rows.Schema()
	keyIdx := sch.ColumnIndex(buildKey)
	if keyIdx < 0 {
		return nil, fmt.Errorf("engine: build key %q missing", buildKey)
	}
	if sch.Kinds[keyIdx] != vector.I64 {
		return nil, fmt.Errorf("engine: build key %q must be i64", buildKey)
	}
	return &JoinTable{rows: rows, keyIdx: keyIdx}, nil
}

// part returns the partition index of a key.
func (t *JoinTable) part(k int64) int {
	if t.mask == 0 {
		return 0
	}
	// High hash bits: the Bloom filters consume the low bits.
	return int((bloomHash1(k) >> 32) & t.mask)
}

// lookup returns the build rows matching k, in build order.
func (t *JoinTable) lookup(k int64) []int32 { return t.parts[t.part(k)].lookup(k) }

// Lookup returns the build rows matching k, in build order — the probe
// primitive fused pipeline loops use directly (partitioning stays
// invisible: match lists are identical at any partition count). The slice
// belongs to the table and must not be written.
func (t *JoinTable) Lookup(k int64) []int32 { return t.lookup(k) }

// mayContain consults the partition's Bloom filter (false = definitely
// absent).
func (t *JoinTable) mayContain(k int64) bool { return t.blooms[t.part(k)].MayContain(k) }

// Rows returns the materialized build side (build order).
func (t *JoinTable) Rows() *vector.DSMStore { return t.rows }

// Partitions returns the partition count (1 for a serial build).
func (t *JoinTable) Partitions() int { return len(t.parts) }

// probeCore is the probe-side state shared by HashJoin and TableProbe: the
// adaptive Bloom decision plus instrumentation. Each probing operator owns a
// private core, so parallel probe workers adapt independently without
// synchronizing on the hot path.
type probeCore struct {
	mode   BloomMode
	hitEW  *profile.EWMA
	useNow bool

	// Probes/BloomSkips/Hits count probe-side behaviour for experiments.
	Probes, BloomSkips, Hits int64
	// BloomChecks counts probes that consulted the filter.
	BloomChecks int64
}

func newProbeCore() probeCore {
	return probeCore{mode: BloomAdaptive, hitEW: profile.NewEWMA(0.25), useNow: true}
}

// BloomEnabled reports the current flavor decision.
func (p *probeCore) BloomEnabled() bool {
	switch p.mode {
	case BloomOn:
		return true
	case BloomOff:
		return false
	}
	return p.useNow
}

// probeKeys matches one chunk's keys against the table, returning the
// (probe row, build row) index pairs of every match in probe-major,
// build-order form — the order a serial nested emit would produce.
func (p *probeCore) probeKeys(t *JoinTable, keys []int64) (probeIdx, buildIdx []int32) {
	useBloom := p.BloomEnabled()
	hits := 0
	for i, k := range keys {
		p.Probes++
		if useBloom {
			p.BloomChecks++
			if !t.mayContain(k) {
				p.BloomSkips++
				continue
			}
		}
		matches := t.lookup(k)
		if len(matches) == 0 {
			continue
		}
		hits++
		for _, m := range matches {
			probeIdx = append(probeIdx, int32(i))
			buildIdx = append(buildIdx, m)
		}
	}
	p.Hits += int64(hits)
	if len(keys) > 0 {
		p.hitEW.Observe(float64(hits) / float64(len(keys)))
		if p.mode == BloomAdaptive {
			p.useNow = p.hitEW.Value(0) < bloomThreshold
		}
	}
	return probeIdx, buildIdx
}

// joinEmit assembles one output chunk: the probe columns condensed by the
// matching probe rows, then the payload columns gathered from the build rows.
func joinEmit(cc *vector.Chunk, rows *vector.DSMStore, payload []string, payIdx []int, probeIdx, buildIdx []int32) *vector.Chunk {
	out := vector.NewChunk()
	for i := 0; i < cc.Width(); i++ {
		out.Add(cc.Name(i), vector.Condense(cc.Col(i), probeIdx))
	}
	for pi, p := range payload {
		out.Add(p, vector.Condense(rows.Col(payIdx[pi]), buildIdx))
	}
	return out
}

// resolvePayload maps payload column names onto build-side column indexes.
func resolvePayload(sch vector.Schema, payload []string) ([]int, error) {
	var payIdx []int
	for _, p := range payload {
		idx := sch.ColumnIndex(p)
		if idx < 0 {
			return nil, fmt.Errorf("engine: payload column %q missing from build side", p)
		}
		payIdx = append(payIdx, idx)
	}
	return payIdx, nil
}

// resolveProbeKey locates the probe key in a probe schema and checks its
// kind.
func resolveProbeKey(schema []ColInfo, probeKey string) (int, error) {
	keyIdx := -1
	for i, ci := range schema {
		if ci.Name == probeKey {
			keyIdx = i
			if ci.Kind != vector.I64 {
				return -1, fmt.Errorf("engine: probe key %q must be i64", probeKey)
			}
		}
	}
	if keyIdx < 0 {
		return -1, fmt.Errorf("engine: probe key %q missing", probeKey)
	}
	return keyIdx, nil
}

// HashJoin is an inner equi-join on int64 key columns. The build side is
// materialized into a hash table at Open; Next streams probe chunks and
// emits matches (probe columns prefixed as-is, build payload columns
// appended).
type HashJoin struct {
	build, probe       Operator
	buildKey, probeKey string
	payload            []string // build-side columns to carry
	probeCore

	tbl     *JoinTable
	schema  []ColInfo
	payIdx  []int
	keyIdxP int
}

// NewHashJoin joins probe ⋈ build on probeKey = buildKey, carrying the given
// build payload columns.
func NewHashJoin(probe, build Operator, probeKey, buildKey string, payload ...string) *HashJoin {
	return &HashJoin{
		build: build, probe: probe, buildKey: buildKey, probeKey: probeKey,
		payload: payload, probeCore: newProbeCore(),
	}
}

// SetBloom fixes the Bloom flavor (default adaptive).
func (j *HashJoin) SetBloom(m BloomMode) *HashJoin { j.mode = m; return j }

// Schema implements Operator.
func (j *HashJoin) Schema() []ColInfo { return j.schema }

// Open implements Operator: materializes and hashes the build side,
// honoring ctx while draining it.
func (j *HashJoin) Open(ctx context.Context) error {
	if err := j.probe.Open(ctx); err != nil {
		return err
	}
	rows, err := Collect(ctx, j.build)
	if err != nil {
		return err
	}
	j.tbl, err = NewJoinTable(rows, j.buildKey)
	if err != nil {
		return err
	}
	sch := rows.Schema()
	if j.payIdx, err = resolvePayload(sch, j.payload); err != nil {
		return err
	}
	j.schema = nil
	j.schema = append(j.schema, j.probe.Schema()...)
	for i, p := range j.payload {
		j.schema = append(j.schema, ColInfo{Name: p, Kind: sch.Kinds[j.payIdx[i]]})
	}
	if j.keyIdxP, err = resolveProbeKey(j.probe.Schema(), j.probeKey); err != nil {
		return err
	}
	return nil
}

// Next implements Operator.
func (j *HashJoin) Next(ctx context.Context) (*vector.Chunk, error) {
	for {
		chunk, err := j.probe.Next(ctx)
		if err != nil || chunk == nil {
			return chunk, err
		}
		cc := chunk
		if chunk.Sel() != nil {
			cc = chunk.Condense()
		}
		probeIdx, buildIdx := j.probeKeys(j.tbl, cc.Col(j.keyIdxP).I64())
		if len(probeIdx) == 0 {
			continue
		}
		return joinEmit(cc, j.tbl.rows, j.payload, j.payIdx, probeIdx, buildIdx), nil
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error { return j.probe.Close() }
