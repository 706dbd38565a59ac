package engine

import (
	"cmp"
	"context"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"

	"repro/internal/profile"
	"repro/internal/vector"
)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggSum AggFunc = iota + 1
	AggCount
	AggMin
	AggMax
	AggAvg
	// AggFirst carries the first value of the column seen for each group (in
	// input order). It accepts any column kind, including strings, and is the
	// canonical way to carry columns that are functionally dependent on the
	// group keys (e.g. o_orderdate per l_orderkey in TPC-H Q3).
	AggFirst
)

var aggNames = [...]string{0: "?", AggSum: "sum", AggCount: "count", AggMin: "min", AggMax: "max", AggAvg: "avg", AggFirst: "first"}

func (a AggFunc) String() string { return aggNames[a] }

// Aggregate describes one aggregate column.
type Aggregate struct {
	Func AggFunc
	Col  string // input column ("" for count)
	As   string // output name
}

// PreAggMode controls the adaptively triggered pre-aggregation of [12]: a
// small cache-resident table absorbs per-chunk group locality before rows
// reach the global table.
type PreAggMode int

// Pre-aggregation flavors.
const (
	PreAggAdaptive PreAggMode = iota
	PreAggOn
	PreAggOff
)

// preAggSlots is the size of the cache-resident pre-aggregation table.
const preAggSlots = 512

// preAggThreshold is the pre-agg hit rate below which the flavor is
// disabled (high-cardinality uniform keys make it pure overhead).
const preAggThreshold = 0.5

// AggOutputSchema resolves the output schema of a grouped aggregation over a
// child schema: the key columns first, then one column per aggregate. It is
// shared by the serial HashAgg and the morsel-parallel aggregation, so both
// validate (and err) identically.
func AggOutputSchema(child []ColInfo, keys []string, aggs []Aggregate) ([]ColInfo, error) {
	if len(keys) > 2 {
		return nil, fmt.Errorf("engine: at most 2 group keys supported, got %d", len(keys))
	}
	colKind := func(name string) (vector.Kind, error) {
		for _, ci := range child {
			if ci.Name == name {
				return ci.Kind, nil
			}
		}
		return vector.Invalid, fmt.Errorf("engine: aggregate column %q not produced by child", name)
	}
	var schema []ColInfo
	for _, k := range keys {
		kind, err := colKind(k)
		if err != nil {
			return nil, err
		}
		if kind != vector.I64 && kind != vector.Str {
			return nil, fmt.Errorf("engine: group key %q must be i64 or str, got %v", k, kind)
		}
		schema = append(schema, ColInfo{Name: k, Kind: kind})
	}
	for _, a := range aggs {
		switch a.Func {
		case AggCount:
			schema = append(schema, ColInfo{Name: a.As, Kind: vector.I64})
		case AggAvg:
			schema = append(schema, ColInfo{Name: a.As, Kind: vector.F64})
		case AggFirst:
			kind, err := colKind(a.Col)
			if err != nil {
				return nil, err
			}
			schema = append(schema, ColInfo{Name: a.As, Kind: kind})
		default:
			kind, err := colKind(a.Col)
			if err != nil {
				return nil, err
			}
			if !kind.IsNumeric() {
				return nil, fmt.Errorf("engine: aggregate input %q must be numeric", a.Col)
			}
			schema = append(schema, ColInfo{Name: a.As, Kind: kind})
		}
	}
	return schema, nil
}

// aggSpec is the resolved shape of one grouped aggregation, shared read-only
// by every table that serves it: the key and aggregate definitions plus the
// kind of each key column and of each aggregate's accumulator.
type aggSpec struct {
	keys     []string
	aggs     []Aggregate
	keyKinds []vector.Kind // I64 or Str, one per key
	// accKinds holds one kind per aggregate: the input kind for first, f64
	// for sums, averages and extremes of f64, i64 for those of every integer
	// kind, and Invalid for count.
	accKinds []vector.Kind
	// accOf holds, per aggregate, the aggregate whose accumulator it reads:
	// itself, or for a sum or avg, the first sum or avg over the same column.
	// Both add the same rows in the same order into the same kind, so one
	// accumulator serves both bit for bit; avg divides it at emission.
	accOf []int
}

// newAggSpec resolves an aggregation over a child schema and returns it
// with the output schema (see AggOutputSchema).
func newAggSpec(child []ColInfo, keys []string, aggs []Aggregate) (*aggSpec, []ColInfo, error) {
	schema, err := AggOutputSchema(child, keys, aggs)
	if err != nil {
		return nil, nil, err
	}
	s := &aggSpec{keys: keys, aggs: aggs}
	for _, ci := range schema[:len(keys)] {
		s.keyKinds = append(s.keyKinds, ci.Kind)
	}
	for ai, a := range aggs {
		kind := schema[len(keys)+ai].Kind
		switch a.Func {
		case AggCount:
			kind = vector.Invalid
		case AggAvg:
			for _, ci := range child {
				if ci.Name == a.Col {
					kind = ci.Kind
				}
			}
		}
		if a.Func != AggFirst && kind.IsInteger() {
			kind = vector.I64
		}
		s.accKinds = append(s.accKinds, kind)
		owner := ai
		if a.Func == AggSum || a.Func == AggAvg {
			for bi, b := range aggs[:ai] {
				if (b.Func == AggSum || b.Func == AggAvg) && b.Col == a.Col {
					owner = bi
					break
				}
			}
		}
		s.accOf = append(s.accOf, owner)
	}
	return s, schema, nil
}

// columns returns c's group-key columns and stores aggregate ai's input
// column in vals[ai].
func (s *aggSpec) columns(c *vector.Chunk, vals []*vector.Vector) keyCols {
	var in keyCols
	for k, name := range s.keys {
		switch col := c.MustColumn(name); {
		case s.keyKinds[k] == vector.I64:
			in.i[k], in.form[k] = col.I64(), keyI64
		case col.Coded():
			in.c[k], in.d[k], in.form[k] = col.Codes(), col.Dict(), keyCodes
		default:
			in.s[k], in.form[k] = col.Str(), keyStrs
		}
	}
	for ai, a := range s.aggs {
		if a.Func != AggCount {
			vals[ai] = c.MustColumn(a.Col)
		}
	}
	return in
}

// keyForm is how a group-key column holds its values.
type keyForm uint8

const (
	keyI64   keyForm = iota // i64 values in i
	keyCodes                // a coded Str vector's codes in c, into d
	keyIDs                  // an aggTable's Str key ids in i, into d
	keyStrs                 // plain strings in s
)

// keyCols holds group-key columns by key position, each in the form form
// names. An aggTable's own keys are keyCols too — i64 values, or Str key ids
// into the key's distinct values d — so merging reads another table's keys
// as it reads a chunk's.
type keyCols struct {
	i    [2][]int64
	c    [2][]int32
	s    [2][]string
	d    [2][]string
	form [2]keyForm
}

// groupPath is a bit set of the ways an aggregation mapped its input rows
// to groups (GroupPath).
type groupPath uint8

const (
	// pathDense: every key coded, each row's group one load from a table
	// indexed by the codes.
	pathDense groupPath = 1 << iota
	// pathIDs: Str keys turned into key ids through a remap of their
	// dictionary, the ids grouped like i64 keys.
	pathIDs
	// pathStrings: a Str key hashed row by row.
	pathStrings
	// pathInts: i64 keys only.
	pathInts
)

var groupPathNames = [...]string{"dense-codes", "code-ids", "hashed-strings", "hashed-ints"}

// String names the paths in p, joined by "+". A shape with a Str key is
// named by its Str keys' paths alone.
func (p groupPath) String() string {
	if p != pathInts {
		p &^= pathInts
	}
	var names []string
	for i, name := range groupPathNames {
		if p&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, "+")
}

// aggTable is a columnar grouped-aggregation accumulator. Groups have dense
// int32 ids in first-seen order; the table keeps one typed column per key
// and one typed accumulator column per aggregate (a sum and an avg of one
// column share theirs), indexed by group id, plus one row count per group
// that serves count and avg alike. There are no
// nulls, so every group has at least one row: min, max and first are seeded
// from a group's first row instead of tracking what each group has seen.
//
// A Str key is kept as key ids: strs gives each distinct string of the key
// an id in first-seen order, keys.d holds the strings by id, and the group
// index works on ids exactly as on i64 keys. A coded key column resolves
// each dictionary entry to its id once, so strings are hashed once per
// entry, not per row; with every key coded over small dictionaries, rows
// find their group through a dense table indexed by the codes.
//
// It is the building block shared by the serial HashAgg (one global table)
// and the morsel-parallel aggregation (one table per morsel). absorb folds a
// chunk in two steps — keys to a group-id vector, then fold, whose sums run
// row-major in blocks of up to four accumulators per pass over the rows —
// and merge folds another table the same way, its key and accumulator
// columns standing in for the chunk's.
type aggTable struct {
	spec  *aggSpec
	n     int // group count
	keys  keyCols
	count []int64
	acc   []*vector.Vector // one per aggregate; nil for count, the owner's when shared (aggSpec.accOf)

	// Key index: slots is a linear-probing table of group id + 1 (0 = empty)
	// over the per-group key hashes.
	slots  []int32
	hashes []uint64
	// strs assigns the ids of each Str key's strings.
	strs [2]strIDs
	// dense maps a pair of codes (code0·|dict1| + code1) to group id + 1
	// (0 = not seen yet), for the dictionaries denseDicts.
	dense      []int32
	denseDicts [2][]string
	// paths records how absorb grouped rows (GroupPath).
	paths groupPath

	// Scratch reused across calls.
	gids  []int32          // group id per input row
	fresh []int32          // input row of each group the current call created
	ids   [2][]int64       // per input row, a Str key's id
	in    []*vector.Vector // input column per aggregate
	// fold's block lists and the ones the row count adds (see fold).
	ints []sumCol[int64]
	flts []sumCol[float64]
	ones []int64
}

// aggTablePool recycles aggTables — key index, key and accumulator columns
// and scratch — across morsels and queries. Emitting copies every value out,
// so a released table aliases nothing that is still live.
var aggTablePool = sync.Pool{New: func() any { return new(aggTable) }}

// newAggTable takes a table for spec from the pool. hint is a group-count
// estimate (0 = unknown): the morsel-parallel aggregation sizes per-morsel
// tables from the scan's zone-map distinct estimates so high-cardinality
// runs skip incremental growth.
func newAggTable(spec *aggSpec, hint int) *aggTable {
	t := aggTablePool.Get().(*aggTable)
	t.spec = spec
	naggs := len(spec.aggs)
	t.acc = slices.Grow(t.acc[:0], naggs)[:naggs]
	t.in = slices.Grow(t.in[:0], naggs)[:naggs]
	for ai, kind := range spec.accKinds {
		switch {
		case kind == vector.Invalid:
			t.acc[ai] = nil
		case spec.accOf[ai] != ai:
			t.acc[ai] = t.acc[spec.accOf[ai]]
		case t.acc[ai] == nil || t.acc[ai].Kind() != kind:
			t.acc[ai] = vector.New(kind, 0, hint)
		}
	}
	for k, kind := range spec.keyKinds {
		t.keys.form[k] = keyI64
		if kind == vector.Str {
			t.keys.form[k] = keyIDs
		}
	}
	if len(spec.keys) > 0 {
		size := 16
		for size < 2*hint {
			size *= 2
		}
		if len(t.slots) < size {
			t.slots = make([]int32, size)
		}
	}
	return t
}

// release returns the table to the pool. Strings are cleared so the pooled
// columns and remaps pin nothing, and shared accumulators are unshared:
// the next spec may not share, and two slots holding one vector would fold
// two aggregates into it.
func (t *aggTable) release() {
	for k := range t.keys.i {
		clear(t.keys.d[k])
		t.keys.i[k], t.keys.d[k] = t.keys.i[k][:0], t.keys.d[k][:0]
		t.strs[k].reset()
	}
	for ai, acc := range t.acc {
		if acc == nil {
			continue
		}
		if t.spec.accOf[ai] != ai {
			t.acc[ai] = nil
			continue
		}
		if acc.Kind() == vector.Str {
			clear(acc.Str())
		}
		acc.SetLen(0)
	}
	clear(t.in)
	clear(t.slots)
	t.denseDicts = [2][]string{}
	t.n, t.spec, t.paths = 0, nil, 0
	t.count, t.hashes = t.count[:0], t.hashes[:0]
	aggTablePool.Put(t)
}

// absorb folds the selected rows of c into the table. Within a group, every
// aggregate visits rows in chunk order, which is what keeps parallel float
// aggregation byte-identical to serial: a group's arithmetic only depends
// on the order of its own rows.
func (t *aggTable) absorb(c *vector.Chunk) {
	sel := c.Sel()
	n := c.Len()
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return
	}
	in := t.spec.columns(c, t.in)
	t.paths |= t.group(&in, sel, n)
	t.fold(t.in, nil, sel)
}

// merge folds src's groups — those in sel, all of them when sel is nil —
// into t in src's first-seen order. src must hold strictly later rows than
// everything already in t (ParallelAgg merges the per-morsel tables in
// morsel sequence order), so overlapping groups combine as if t had
// absorbed src's rows: sums and counts add, first and the seeds of min and
// max keep t's values, and new groups append in first-seen order. The
// result is exactly the fold a single table absorbing the morsels
// back-to-back would produce, independent of which worker ran which morsel.
func (t *aggTable) merge(src *aggTable, sel vector.Sel) {
	n := src.n
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return
	}
	t.group(&src.keys, sel, n)
	t.fold(src.acc, src.count, sel)
}

func rowAt(sel vector.Sel, i int) int {
	if sel == nil {
		return i
	}
	return int(sel[i])
}

// group maps n input rows — rows sel[i], or i without a selection — to
// group ids in t.gids, creating a group for every unseen key and recording
// the input row that created it in t.fresh. It returns the path it took.
func (t *aggTable) group(in *keyCols, sel vector.Sel, n int) groupPath {
	t.gids = extend(t.gids[:0], n)
	t.fresh = t.fresh[:0]
	if len(t.spec.keys) == 0 {
		if t.n == 0 {
			t.n = 1
			t.fresh = append(t.fresh, int32(rowAt(sel, 0)))
		}
		return 0
	}
	if t.denseFits(in) {
		t.groupDense(in, sel)
		return pathDense
	}
	var cols [2][]int64
	var path groupPath
	for k := range t.spec.keys {
		var p groupPath
		cols[k], p = t.keyInts(in, k, sel)
		path |= p
	}
	groupInts(t, sel, cols[0], cols[1])
	return path
}

// keyInts returns key k of in as an i64 column over the input rows: an i64
// key as it is, a Str key as its ids, written for the rows sel selects into
// t.ids[k]. It also returns the path that took: pathInts, pathIDs or
// pathStrings.
func (t *aggTable) keyInts(in *keyCols, k int, sel vector.Sel) ([]int64, groupPath) {
	x, vals := &t.strs[k], &t.keys.d[k]
	var rows int
	switch in.form[k] {
	case keyI64:
		return in.i[k], pathInts
	case keyCodes:
		rows = len(in.c[k])
	case keyIDs:
		rows = len(in.i[k])
		// A table's strings grow and are recycled in place: its ids never
		// match a remap cached for an earlier one.
		x.forget()
	case keyStrs:
		rows = len(in.s[k])
	}
	if cap(t.ids[k]) < rows {
		t.ids[k] = make([]int64, rows)
	}
	ids := t.ids[k][:rows]
	switch {
	case in.form[k] == keyStrs:
		strIDsOf(x, vals, ids, in.s[k], sel, len(t.gids))
		return ids, pathStrings
	case in.form[k] == keyCodes:
		codeIDs(x, vals, ids, in.c[k], in.d[k], sel, len(t.gids))
	default:
		codeIDs(x, vals, ids, in.i[k], in.d[k], sel, len(t.gids))
	}
	return ids, pathIDs
}

// denseMax is the largest product of dictionary sizes the dense path
// indexes: its table is cleared for every aggTable that uses it, and most
// of a large table's entries miss. Measured per 16 384-row morsel of two
// uniformly random coded keys (2 vCPUs), the dense table beats code ids
// at a product of 4 096 (0.22–0.33 against 0.40–0.60 ms) and ties or loses
// from 16 384 on.
const denseMax = 1 << 12

// denseFits reports whether in's keys take the dense path — every key
// coded, the product of the dictionary sizes at most denseMax — and
// readies t.dense for their dictionaries.
func (t *aggTable) denseFits(in *keyCols) bool {
	size := 1
	for k := range t.spec.keys {
		if in.form[k] != keyCodes {
			return false
		}
		if size *= len(in.d[k]); size > denseMax {
			return false
		}
	}
	for k := range t.spec.keys {
		if !sameSlice(t.denseDicts[k], in.d[k]) {
			t.dense = extend(t.dense[:0], size)
			clear(t.dense)
			t.denseDicts = in.d
			break
		}
	}
	return true
}

// sameSlice reports whether a and b are the same slice: the same length
// and, when not empty, the same first element.
func sameSlice(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// groupDense maps rows whose keys are all coded to groups through t.dense:
// a row's group is dense[code0·|dict1| + code1] - 1, and only a row whose
// entry is still 0 — the first of its code pair in this table — resolves
// the codes to key ids and finds or creates its group.
func (t *aggTable) groupDense(in *keyCols, sel vector.Sel) {
	gids, dense := t.gids, t.dense
	a := in.c[0]
	if len(t.spec.keys) == 1 {
		for i := range gids {
			r := rowAt(sel, i)
			g := dense[a[r]]
			if g == 0 {
				g = t.denseMiss(in, int(a[r]), r)
			}
			gids[i] = g - 1
		}
		return
	}
	b, nb := in.c[1], int32(len(in.d[1]))
	for i := range gids {
		r := rowAt(sel, i)
		x := a[r]*nb + b[r]
		g := dense[x]
		if g == 0 {
			g = t.denseMiss(in, int(x), r)
		}
		gids[i] = g - 1
	}
}

// denseMiss fills dense entry x from row r, the first row of its codes:
// it resolves each code to its key id and finds or creates the group.
func (t *aggTable) denseMiss(in *keyCols, x, r int) int32 {
	var ids [2]int64
	for k := range t.spec.keys {
		ids[k] = t.strs[k].idOf(&t.keys.d[k], in.d[k], in.c[k][r])
	}
	g := findGroup(t, ids[0], ids[1], r) + 1
	t.dense[x] = g
	return g
}

// groupInts maps rows to groups by one i64 key column a, or two a and b: it
// hashes a row's key and probes the slots, checking candidates against the
// stored keys. A row whose key equals the previous row's reuses its group id
// without hashing or probing. It is findGroup inlined, with the hash called
// directly: high-cardinality i64 groupings probe on most rows.
func groupInts(t *aggTable, sel vector.Sel, a, b []int64) {
	two := len(t.spec.keys) == 2
	ta, tb := &t.keys.i[0], &t.keys.i[1]
	gids := t.gids
	prev := -1
	for i := range gids {
		r := rowAt(sel, i)
		if prev >= 0 && a[r] == a[prev] && (!two || b[r] == b[prev]) {
			gids[i] = gids[i-1]
			continue
		}
		prev = r
		h := hashI64(a[r])
		if two {
			h = h*hashMul ^ hashI64(b[r])
		}
		mask := uint64(len(t.slots) - 1)
		for s := h & mask; ; s = (s + 1) & mask {
			e := t.slots[s]
			if e == 0 {
				g := int32(t.n)
				*ta = append(*ta, a[r])
				if two {
					*tb = append(*tb, b[r])
				}
				t.hashes = append(t.hashes, h)
				t.fresh = append(t.fresh, int32(r))
				t.n++
				t.slots[s] = g + 1
				if 2*t.n > len(t.slots) {
					t.rehash()
				}
				gids[i] = g
				break
			}
			if g := e - 1; t.hashes[g] == h && (*ta)[g] == a[r] && (!two || (*tb)[g] == b[r]) {
				gids[i] = g
				break
			}
		}
	}
}

// findGroup returns the group of the key (a, b) of i64 values or key ids —
// b is ignored with one key: it hashes the key and probes the slots,
// checking candidates against the stored keys, and creates the group for
// input row r if the key is new.
func findGroup(t *aggTable, a, b int64, r int) int32 {
	two := len(t.spec.keys) == 2
	ta, tb := &t.keys.i[0], &t.keys.i[1]
	h := hashI64(a)
	if two {
		h = h*hashMul ^ hashI64(b)
	}
	mask := uint64(len(t.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		e := t.slots[s]
		if e == 0 {
			g := int32(t.n)
			*ta = append(*ta, a)
			if two {
				*tb = append(*tb, b)
			}
			t.hashes = append(t.hashes, h)
			t.fresh = append(t.fresh, int32(r))
			t.n++
			t.slots[s] = g + 1
			if 2*t.n > len(t.slots) {
				t.rehash()
			}
			return g
		}
		if g := e - 1; t.hashes[g] == h && (*ta)[g] == a && (!two || (*tb)[g] == b) {
			return g
		}
	}
}

// strIDs gives the distinct strings of one Str key of a table ids in
// first-seen order; the strings themselves, by id, are the table's keys.d
// entry for the key, which every method takes as vals. A linear-probing
// index over their hashes finds a string's id, and remap caches the ids of
// one input dictionary.
type strIDs struct {
	hashes []uint64
	slots  []int32 // id + 1; 0 = empty
	// remap[code] is the id + 1 of dict[code], 0 while not looked up.
	dict  []string
	remap []int32
}

// id returns the id of s, giving s the next id if it has none.
func (x *strIDs) id(vals *[]string, s string) int64 {
	if len(x.slots) == 0 {
		x.slots = make([]int32, 16)
	}
	h := hashStr64(s)
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := x.slots[i]
		if e == 0 {
			*vals = append(*vals, s)
			x.hashes = append(x.hashes, h)
			x.slots[i] = int32(len(*vals))
			if 2*len(*vals) > len(x.slots) {
				x.slots = slotsFor(x.hashes, 2*len(x.slots))
			}
			return int64(len(*vals) - 1)
		}
		if id := e - 1; x.hashes[id] == h && (*vals)[id] == s {
			return int64(id)
		}
	}
}

// remapFor returns the remap for dict, cleared unless it already serves
// dict.
func (x *strIDs) remapFor(dict []string) []int32 {
	if !sameSlice(x.dict, dict) || len(x.remap) != len(dict) {
		x.dict = dict
		x.remap = extend(x.remap[:0], len(dict))
		clear(x.remap)
	}
	return x.remap
}

// idOf returns the id of dict[code], looking the string up only the first
// time the code comes.
func (x *strIDs) idOf(vals *[]string, dict []string, code int32) int64 {
	remap := x.remapFor(dict)
	if remap[code] == 0 {
		remap[code] = int32(x.id(vals, dict[code])) + 1
	}
	return int64(remap[code] - 1)
}

// forget drops the cached remap.
func (x *strIDs) forget() { x.dict = nil }

// reset empties x for a new table, keeping its storage.
func (x *strIDs) reset() {
	clear(x.slots)
	x.hashes = x.hashes[:0]
	clear(x.remap)
	x.dict = nil
}

// codeIDs writes the id of each selected row's code into ids[r]: the
// string of a code is looked up once, in the remap of dict.
func codeIDs[C int32 | int64](x *strIDs, vals *[]string, ids []int64, codes []C, dict []string, sel vector.Sel, n int) {
	remap := x.remapFor(dict)
	for i := 0; i < n; i++ {
		r := rowAt(sel, i)
		c := codes[r]
		if remap[c] == 0 {
			remap[c] = int32(x.id(vals, dict[c])) + 1
		}
		ids[r] = int64(remap[c] - 1)
	}
}

// strIDsOf writes the id of each selected row's string into ids[r],
// hashing it.
func strIDsOf(x *strIDs, vals *[]string, ids []int64, strs []string, sel vector.Sel, n int) {
	for i := 0; i < n; i++ {
		r := rowAt(sel, i)
		ids[r] = x.id(vals, strs[r])
	}
}

// aggHashSeed seeds the string hash of the key index. Hashes decide probe
// sequences only, never group ids or output order, so a per-process seed
// cannot reach results.
var aggHashSeed = maphash.MakeSeed()

const hashMul = 0x9e3779b97f4a7c15

func hashStr64(s string) uint64 { return maphash.String(aggHashSeed, s) }

// hashI64 is the splitmix64 finalizer: it spreads every input bit over the
// low bits the slot index is taken from.
func hashI64(v int64) uint64 {
	x := uint64(v)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// rehash doubles the slot table, keeping the load factor at most one half.
func (t *aggTable) rehash() { t.slots = slotsFor(t.hashes, 2*len(t.slots)) }

// slotsFor returns a linear-probing table of size slots (a power of two)
// holding index + 1 of every hash in hashes.
func slotsFor(hashes []uint64, size int) []int32 {
	slots := make([]int32, size)
	mask := uint64(size - 1)
	for g, h := range hashes {
		s := h & mask
		for slots[s] != 0 {
			s = (s + 1) & mask
		}
		slots[s] = int32(g) + 1
	}
	return slots
}

// extend returns s resized to n elements, the ones past its old length
// zeroed.
func extend[T any](s []T, n int) []T {
	old := len(s)
	s = slices.Grow(s, n-old)[:n]
	clear(s[old:])
	return s
}

// fold folds the rows group mapped to t.gids into the accumulators: vals[ai]
// is aggregate ai's input column, read at rows sel[i] (or i), and counts
// holds each row's row count (nil: one each). An aggregate that shares
// another's accumulator is skipped. Groups group just created are first
// seeded: sums and counts with zero, min, max and first with the value of
// the row that created them.
//
// The sum family runs row-major. The row count and every i64 sum or avg
// over an i64 column go into one block list, every f64 sum or avg over an
// f64 column into another, and each list runs as blocks of up to
// sumBlockWidth accumulators: one pass over the rows per block, each row
// adding into every accumulator of the block. Column at a time, each
// accumulator would be its own pass, and while a run of rows falls into one
// group every add waits for the store of the add before it to the same
// slot; a row that updates several accumulators makes that many independent
// chains progress at once. The bytes cannot change: each accumulator still
// adds its group's rows one by one in row order, only the loops that do it
// are merged. Min, max, first and sums over narrow integer columns keep one
// loop per accumulator (foldRows).
func (t *aggTable) fold(vals []*vector.Vector, counts []int64, sel vector.Sel) {
	gids := t.gids
	t.count = extend(t.count, t.n)
	ints := append(t.ints[:0], sumCol[int64]{acc: t.count, src: counts})
	flts := t.flts[:0]
	for ai, a := range t.spec.aggs {
		acc, col := t.acc[ai], vals[ai]
		if acc == nil || t.spec.accOf[ai] != ai {
			continue
		}
		old := acc.Len()
		acc.SetLen(t.n)
		sum := a.Func == AggSum || a.Func == AggAvg
		switch {
		case a.Func == AggFirst:
			for j, r := range t.fresh {
				acc.CopyFrom(old+j, col, int(r), 1)
			}
		case sum && acc.Kind() == vector.F64:
			clear(acc.F64()[old:])
			flts = append(flts, sumCol[float64]{acc: acc.F64(), src: col.F64()})
		case sum && col.Kind() == vector.I64:
			clear(acc.I64()[old:])
			ints = append(ints, sumCol[int64]{acc: acc.I64(), src: col.I64()})
		case acc.Kind() == vector.F64:
			foldRows(a.Func, acc.F64(), old, gids, col.F64(), sel, t.fresh)
		default:
			switch col.Kind() {
			case vector.I8:
				foldRows(a.Func, acc.I64(), old, gids, col.I8(), sel, t.fresh)
			case vector.I16:
				foldRows(a.Func, acc.I64(), old, gids, col.I16(), sel, t.fresh)
			case vector.I32:
				foldRows(a.Func, acc.I64(), old, gids, col.I32(), sel, t.fresh)
			default:
				foldRows(a.Func, acc.I64(), old, gids, col.I64(), sel, t.fresh)
			}
		}
	}
	switch {
	case counts == nil && len(ints) == 1:
		// A row count with no i64 sum beside it keeps its own loop.
		cnt := t.count
		for _, g := range gids {
			cnt[g]++
		}
		ints = ints[:0]
	case counts == nil:
		// The row count adds 1 per row: it rides in the first int block as
		// a column of ones, as long as the columns it is read beside.
		t.ones = ones(t.ones, len(ints[1].src))
		ints[0].src = t.ones
	}
	sumBlocks(ints, gids, sel)
	sumBlocks(flts, gids, sel)
	// Drop the columns the lists point at, so a pooled table pins no chunk.
	t.ints, t.flts = ints[:0], flts[:0]
	clear(ints)
	clear(flts)
}

// sumCol is one accumulator of a sum block and the column that feeds it.
type sumCol[T int64 | float64] struct {
	acc, src []T
}

// sumBlockWidth is the most accumulators one row-major pass updates.
const sumBlockWidth = 4

// ones returns s if it holds at least n ones, else n fresh ones.
func ones(s []int64, n int) []int64 {
	if len(s) >= n {
		return s
	}
	s = make([]int64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// sumBlocks runs the list in blocks of sumBlockWidth accumulators and a
// tail block of the rest.
func sumBlocks[T int64 | float64](list []sumCol[T], gids []int32, sel vector.Sel) {
	for len(list) > 0 {
		n := min(len(list), sumBlockWidth)
		sumBlock(list[:n], gids, sel)
		list = list[n:]
	}
}

// sumBlock adds src[sel[i]] (or src[i]) into acc[gids[i]] for the one to
// four accumulators of b in one pass over the rows. Each width is written
// out so every row's adds are independent instructions of one iteration.
func sumBlock[T int64 | float64](b []sumCol[T], gids []int32, sel vector.Sel) {
	n := len(gids)
	switch len(b) {
	case 1:
		a0, s0 := b[0].acc, b[0].src
		if sel == nil {
			s0 = s0[:n]
			for i, g := range gids {
				a0[g] += s0[i]
			}
			return
		}
		for i, g := range gids {
			a0[g] += s0[sel[i]]
		}
	case 2:
		a0, a1 := b[0].acc, b[1].acc
		s0, s1 := b[0].src, b[1].src
		if sel == nil {
			s0, s1 = s0[:n], s1[:n]
			for i, g := range gids {
				a0[g] += s0[i]
				a1[g] += s1[i]
			}
			return
		}
		for i, g := range gids {
			r := sel[i]
			a0[g] += s0[r]
			a1[g] += s1[r]
		}
	case 3:
		a0, a1, a2 := b[0].acc, b[1].acc, b[2].acc
		s0, s1, s2 := b[0].src, b[1].src, b[2].src
		if sel == nil {
			s0, s1, s2 = s0[:n], s1[:n], s2[:n]
			for i, g := range gids {
				a0[g] += s0[i]
				a1[g] += s1[i]
				a2[g] += s2[i]
			}
			return
		}
		for i, g := range gids {
			r := sel[i]
			a0[g] += s0[r]
			a1[g] += s1[r]
			a2[g] += s2[r]
		}
	case 4:
		a0, a1, a2, a3 := b[0].acc, b[1].acc, b[2].acc, b[3].acc
		s0, s1, s2, s3 := b[0].src, b[1].src, b[2].src, b[3].src
		if sel == nil {
			s0, s1, s2, s3 = s0[:n], s1[:n], s2[:n], s3[:n]
			for i, g := range gids {
				a0[g] += s0[i]
				a1[g] += s1[i]
				a2[g] += s2[i]
				a3[g] += s3[i]
			}
			return
		}
		for i, g := range gids {
			r := sel[i]
			a0[g] += s0[r]
			a1[g] += s1[r]
			a2[g] += s2[r]
			a3[g] += s3[r]
		}
	}
}

// foldRows is the one-accumulator primitive of min, max and sums over
// narrow integer columns: it seeds the groups from old on (zero for sums,
// src[fresh[j]] for min and max) and then folds src[sel[i]] (or src[i])
// into acc[gids[i]], in row order.
func foldRows[A int64 | float64, T int8 | int16 | int32 | int64 | float64](fn AggFunc, acc []A, old int, gids []int32, src []T, sel vector.Sel, fresh []int32) {
	switch fn {
	case AggMin:
		for j, r := range fresh {
			acc[old+j] = A(src[r])
		}
		for i, g := range gids {
			if v := A(src[rowAt(sel, i)]); v < acc[g] {
				acc[g] = v
			}
		}
	case AggMax:
		for j, r := range fresh {
			acc[old+j] = A(src[r])
		}
		for i, g := range gids {
			if v := A(src[rowAt(sel, i)]); v > acc[g] {
				acc[g] = v
			}
		}
	default:
		clear(acc[old:])
		if sel == nil {
			src = src[:len(gids)]
			for i, g := range gids {
				acc[g] += A(src[i])
			}
			return
		}
		for i, g := range gids {
			acc[g] += A(src[sel[i]])
		}
	}
}

// keyOrder returns the group ids sorted by key. Keys are unique, so the
// order is total and needs no stability.
func (t *aggTable) keyOrder() []int32 {
	perm := make([]int32, t.n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if len(t.spec.keys) > 0 {
		slices.SortFunc(perm, func(a, b int32) int {
			for k, kind := range t.spec.keyKinds {
				var c int
				if kind == vector.I64 {
					c = cmp.Compare(t.keys.i[k][a], t.keys.i[k][b])
				} else {
					ids, vals := t.keys.i[k], t.keys.d[k]
					c = strings.Compare(vals[ids[a]], vals[ids[b]])
				}
				if c != 0 {
					return c
				}
			}
			return 0
		})
	}
	return perm
}

// gather returns src[perm[0]], src[perm[1]], ….
func gather[T any](src []T, perm []int32) []T {
	out := make([]T, len(perm))
	for i, g := range perm {
		out[i] = src[g]
	}
	return out
}

// emitAggChunk materializes an aggregation table into one result chunk,
// sorted by the key columns for a deterministic output order, writing each
// output column once. Shared by HashAgg and the morsel-parallel
// aggregation, so both emit identical bytes for identical tables.
func emitAggChunk(schema []ColInfo, t *aggTable) *vector.Chunk {
	perm := t.keyOrder()
	out := vector.NewChunk()
	nk := len(t.spec.keys)
	for k, ci := range schema[:nk] {
		ids := gather(t.keys.i[k], perm)
		if ci.Kind == vector.I64 {
			out.Add(ci.Name, vector.FromI64(ids))
			continue
		}
		strs := make([]string, len(ids))
		for i, id := range ids {
			strs[i] = t.keys.d[k][id]
		}
		out.Add(ci.Name, vector.FromStr(strs))
	}
	for ai, a := range t.spec.aggs {
		ci, acc := schema[nk+ai], t.acc[ai]
		var col *vector.Vector
		switch {
		case a.Func == AggCount:
			col = vector.FromI64(gather(t.count, perm))
		case a.Func == AggAvg:
			d := make([]float64, len(perm))
			for i, g := range perm {
				if acc.Kind() == vector.F64 {
					d[i] = acc.F64()[g] / float64(t.count[g])
				} else {
					d[i] = float64(acc.I64()[g]) / float64(t.count[g])
				}
			}
			col = vector.FromF64(d)
		case ci.Kind == acc.Kind():
			col = vector.Condense(acc, perm)
		default: // sum, min or max of a narrow integer kind, accumulated in i64
			col = vector.NewLen(ci.Kind, len(perm))
			for i, g := range perm {
				col.Set(i, vector.IntValue(ci.Kind, acc.I64()[g]))
			}
		}
		out.Add(a.As, col)
	}
	return out
}

// HashAgg groups by up to two key columns (i64 or str) and computes
// aggregates over one columnar aggTable. It is a pipeline breaker: Next
// drains the child on first call and then emits the result groups.
//
// With pre-aggregation enabled, rows first meet preAgg's cache-resident
// groups, which flush into the global table when evicted.
type HashAgg struct {
	child  Operator
	keys   []string
	aggs   []Aggregate
	mode   PreAggMode
	schema []ColInfo
	spec   *aggSpec

	tbl     *aggTable
	emitted bool

	hitEW  *profile.EWMA
	useNow bool
	paths  groupPath
	// PreAggHits / PreAggMisses / PreAggFlushes instrument the flavor.
	PreAggHits, PreAggMisses, PreAggFlushes int64
}

// NewHashAgg creates a grouped aggregation.
func NewHashAgg(child Operator, keys []string, aggs []Aggregate) *HashAgg {
	h := &HashAgg{
		child: child, keys: keys, aggs: aggs,
		mode: PreAggAdaptive, hitEW: profile.NewEWMA(0.25), useNow: true,
	}
	// Resolve the schema eagerly when the child's is known statically, so
	// operators stacked on an aggregation (TopK, probes) can validate before
	// Open; Open re-resolves authoritatively.
	if cs := child.Schema(); cs != nil {
		if sch, err := AggOutputSchema(cs, keys, aggs); err == nil {
			h.schema = sch
		}
	}
	return h
}

// SetPreAgg fixes the pre-aggregation flavor (default adaptive).
func (h *HashAgg) SetPreAgg(m PreAggMode) *HashAgg { h.mode = m; return h }

// PreAggEnabled reports the current flavor decision.
func (h *HashAgg) PreAggEnabled() bool {
	switch h.mode {
	case PreAggOn:
		return true
	case PreAggOff:
		return false
	}
	return h.useNow
}

// Schema implements Operator.
func (h *HashAgg) Schema() []ColInfo { return h.schema }

// Open implements Operator.
func (h *HashAgg) Open(ctx context.Context) error {
	if err := h.child.Open(ctx); err != nil {
		return err
	}
	spec, sch, err := newAggSpec(h.child.Schema(), h.keys, h.aggs)
	if err != nil {
		return err
	}
	h.spec, h.schema = spec, sch
	h.tbl = newAggTable(spec, 0)
	h.emitted = false
	return nil
}

// preAggSlot is the direct-mapped slot of row r of the key columns cols,
// which hold i64 values or t's key ids. It is a function of the key's
// values, not its ids, so a key keeps its slot when compaction moves the
// groups to a table that numbers the strings anew, and of nothing else, so
// eviction — and with it the blocking of f64 sums — is the same in every
// process.
func (t *aggTable) preAggSlot(cols *[2][]int64, r int) int {
	var i [2]int64
	var s [2]string
	for k, kind := range t.spec.keyKinds {
		if kind == vector.I64 {
			i[k] = cols[k][r]
		} else {
			s[k] = t.keys.d[k][cols[k][r]]
		}
	}
	return int((uint64(i[0])*hashMul ^ uint64(len(s[0]))<<32 ^ uint64(i[1]) ^ hashStr(s[0]) ^ hashStr(s[1])) % preAggSlots)
}

// preAgg is the cache-resident pre-aggregation table of [12]: preAggSlots
// direct-mapped slots, each pointing at one group of a small aggTable. A row
// whose slot holds its key joins that group; any other row evicts the
// slot's group, if any, into the global table and opens a new one. Slot
// choice stays row at a time, since every eviction depends on the rows
// before it; the fold itself is aggTable's.
type preAgg struct {
	tbl  *aggTable
	slot [preAggSlots]int32 // group of tbl per slot; -1 = empty
	// evict is scratch for group lists: the groups the current chunk
	// evicted, or live's. Never nil, since merge reads a nil selection as
	// every group.
	evict vector.Sel
}

func newPreAgg(spec *aggSpec) *preAgg {
	p := &preAgg{tbl: newAggTable(spec, preAggSlots), evict: make(vector.Sel, 0, preAggSlots)}
	for s := range p.slot {
		p.slot[s] = -1
	}
	return p
}

// live returns the groups the slots hold, in slot order.
func (p *preAgg) live() vector.Sel {
	live := p.evict[:0]
	for _, g := range p.slot {
		if g >= 0 {
			live = append(live, g)
		}
	}
	return live
}

// preAggregate folds the selected rows of c into p, flushing every group it
// evicts into the global table in eviction order. An evicted group gets no
// later rows — its key's slot points elsewhere — so flushing after the
// chunk's fold merges exactly what a flush at eviction time would.
func (h *HashAgg) preAggregate(p *preAgg, c *vector.Chunk) (hits, misses int) {
	t := p.tbl
	in := h.spec.columns(c, t.in)
	sel := c.Sel()
	n := c.Len()
	if sel != nil {
		n = len(sel)
	}
	t.gids = extend(t.gids[:0], n)
	t.fresh = t.fresh[:0]
	p.evict = p.evict[:0]
	var cols [2][]int64
	two := len(h.spec.keys) == 2
	for k := range h.spec.keys {
		var path groupPath
		cols[k], path = t.keyInts(&in, k, sel)
		h.paths |= path
	}
	ka, kb := &t.keys.i[0], &t.keys.i[1]
	for i := range t.gids {
		r := rowAt(sel, i)
		var a, b int64
		a = cols[0][r]
		if two {
			b = cols[1][r]
		}
		s := t.preAggSlot(&cols, r)
		g := p.slot[s]
		if g >= 0 && (*ka)[g] == a && (!two || (*kb)[g] == b) {
			hits++
		} else {
			misses++
			if g >= 0 {
				p.evict = append(p.evict, g)
			}
			*ka = append(*ka, a)
			if two {
				*kb = append(*kb, b)
			}
			g = int32(t.n)
			t.fresh = append(t.fresh, int32(r))
			t.n++
			p.slot[s] = g
		}
		t.gids[i] = g
	}
	t.fold(t.in, nil, sel)
	h.tbl.merge(t, p.evict)
	h.PreAggFlushes += int64(len(p.evict))
	if t.n > 4*preAggSlots {
		// Compact: copy the live groups, whose keys are distinct, into a
		// fresh table in slot order, and renumber the slots to match.
		live := p.live()
		p.tbl = newAggTable(h.spec, preAggSlots)
		p.tbl.merge(t, live)
		t.release()
		var g int32
		for s := range p.slot {
			if p.slot[s] >= 0 {
				p.slot[s] = g
				g++
			}
		}
	}
	return hits, misses
}

// flushPre merges every group p holds into the global table, in slot order,
// and releases p.
func (h *HashAgg) flushPre(p *preAgg) {
	live := p.live()
	h.tbl.merge(p.tbl, live)
	h.PreAggFlushes += int64(len(live))
	p.tbl.release()
}

// Next implements Operator. The aggregation is a pipeline breaker: the
// first call drains the child (checking ctx chunk-by-chunk through the
// child's own Next) and emits the grouped result.
func (h *HashAgg) Next(ctx context.Context) (*vector.Chunk, error) {
	if h.emitted {
		return nil, nil
	}
	var pre *preAgg
	if h.PreAggEnabled() {
		pre = newPreAgg(h.spec)
	}
	for {
		chunk, err := h.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if chunk == nil {
			break
		}
		// Re-evaluate the flavor per chunk (adaptive trigger).
		wantPre := h.PreAggEnabled()
		if wantPre && pre == nil {
			pre = newPreAgg(h.spec)
		}
		if !wantPre && pre != nil {
			h.flushPre(pre)
			pre = nil
		}
		if pre == nil {
			h.tbl.absorb(chunk)
			h.paths |= h.tbl.paths
			continue
		}
		hits, misses := h.preAggregate(pre, chunk)
		h.PreAggHits += int64(hits)
		h.PreAggMisses += int64(misses)
		if hits+misses > 0 {
			h.hitEW.Observe(float64(hits) / float64(hits+misses))
			if h.mode == PreAggAdaptive {
				h.useNow = h.hitEW.Value(1) >= preAggThreshold
			}
		}
	}
	if pre != nil {
		h.flushPre(pre)
	}
	h.emitted = true
	out := emitAggChunk(h.schema, h.tbl)
	h.tbl.release()
	h.tbl = nil
	return out, nil
}

// Close implements Operator.
func (h *HashAgg) Close() error { return h.child.Close() }

// GroupPath names how the aggregation mapped its input rows to groups:
// "dense-codes", "code-ids", "hashed-strings" or "hashed-ints" (see
// aggTable), "" before it ran or without keys.
func (h *HashAgg) GroupPath() string { return h.paths.String() }

func hashStr(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
