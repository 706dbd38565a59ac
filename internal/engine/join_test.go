package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/vector"
)

// refJoinMap is the reference index: every build key's rows, appended in
// build order.
func refJoinMap(keys []int64) map[int64][]int32 {
	m := make(map[int64][]int32, len(keys))
	for i, k := range keys {
		m[k] = append(m[k], int32(i))
	}
	return m
}

// keyStore is a one-column (k i64) build side.
func keyStore(keys []int64) *vector.DSMStore {
	st := vector.NewDSMStore(vector.NewSchema("k", vector.I64))
	for _, k := range keys {
		st.AppendRow(vector.I64Value(k))
	}
	return st
}

// joinTables indexes keys at 1, 2, 4 and 8 partitions, and as the serial
// single-partition table.
func joinTables(t testing.TB, keys []int64) map[string]*JoinTable {
	t.Helper()
	st := keyStore(keys)
	out := map[string]*JoinTable{}
	tbl, err := NewJoinTable(st, "k")
	if err != nil {
		t.Fatal(err)
	}
	out["serial"] = tbl
	for _, parts := range []int{1, 2, 4, 8} {
		tbl, err := newPartitionedJoinTable(st, "k", parts)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Partitions() != parts {
			t.Fatalf("%d workers built %d partitions", parts, tbl.Partitions())
		}
		out[fmt.Sprintf("parts=%d", parts)] = tbl
	}
	return out
}

// matchesRef fails unless every key in probes looks up exactly the
// reference's rows (none for an absent key), and every distinct build key
// is stored once in its partition's index.
func matchesRef(t testing.TB, name string, tbl *JoinTable, keys, probes []int64) {
	t.Helper()
	ref := refJoinMap(keys)
	for _, k := range append(slices.Clone(probes), keys...) {
		got, want := tbl.Lookup(k), ref[k]
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Lookup(%d) = %v, want %v", name, k, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: Lookup(%d) has capacity %d beyond its %d rows", name, k, cap(got), len(got))
		}
	}
	distinct, rows := 0, 0
	for _, x := range tbl.parts {
		distinct += len(x.keys)
		rows += len(x.rows)
		if len(x.off) != len(x.keys)+1 || 4*len(x.keys) > len(x.slots) {
			t.Fatalf("%s: %d keys, %d run boundaries, %d slots", name, len(x.keys), len(x.off), len(x.slots))
		}
	}
	if distinct != len(ref) || rows != len(keys) {
		t.Fatalf("%s: indexes hold %d keys and %d rows, want %d and %d", name, distinct, rows, len(ref), len(keys))
	}
}

// TestJoinIndexMatchesMap: at every partition count the flat index returns
// the reference map's match lists — duplicates in build order, the extreme
// keys, keys that share a home slot, an empty build side and probe keys the
// build side lacks.
func TestJoinIndexMatchesMap(t *testing.T) {
	special := []int64{0, -1, math.MinInt64, math.MaxInt64}
	rng := rand.New(rand.NewSource(7))
	var keys []int64
	for i := 0; i < 40; i++ {
		keys = append(keys, rng.Int63n(20)-10) // small domain: many duplicates
	}
	keys = append(keys, special...)
	keys = append(keys, special...)
	keys = append(keys, 0)
	// Keys whose home slot is the home slot of 0 at this table size: they
	// chain, and the lookup must walk past each other's slots.
	n := len(keys) + 3
	mask := uint64(4) - 1
	for mask+1 < uint64(4*n) {
		mask = mask<<1 | 1
	}
	home := hashI64(0) & mask
	var shared []int64
	for k := int64(1); len(shared) < 3; k++ {
		if hashI64(k)&mask == home {
			shared = append(shared, k)
		}
	}
	keys = append(keys, shared...)
	if len(keys) != n {
		t.Fatalf("built %d keys, sized the slots for %d", len(keys), n)
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	probes := []int64{11, -11, 1 << 40, math.MinInt64 + 1, math.MaxInt64 - 1}
	for name, tbl := range joinTables(t, keys) {
		matchesRef(t, name, tbl, keys, probes)
	}

	// The serial index really chains: some shared-slot key is not in its
	// home slot.
	x := joinTables(t, keys)["serial"].parts[0]
	displaced := 0
	for _, k := range append(shared, 0) {
		if s := x.slots[hashI64(k)&mask]; s == 0 || x.keys[s-1] != k {
			displaced++
		}
	}
	if displaced == 0 {
		t.Fatal("no key that shares a home slot was displaced; the test does not exercise chaining")
	}

	for name, tbl := range joinTables(t, nil) {
		matchesRef(t, "empty "+name, tbl, nil, append(probes, special...))
	}
}

// FuzzJoinIndex: for any build side, the flat index at any partition count
// returns the reference map's match lists. Each 8-byte word is one build
// key; a word whose first byte is even becomes a key from [-8, 8), so
// duplicates and the keys around 0 are common.
func FuzzJoinIndex(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 5, 0, 0, 0, 0, 0, 0, 2, 5, 0, 0, 0, 0, 0, 0}, uint8(3))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0x80, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 4, 8}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, w uint8) {
		var keys []int64
		for len(data) >= 8 {
			k := int64(binary.LittleEndian.Uint64(data))
			if data[0]%2 == 0 {
				k = int64(data[1]%16) - 8
			}
			keys = append(keys, k)
			data = data[8:]
		}
		workers := 1 << (w % 4)
		tbl, err := newPartitionedJoinTable(keyStore(keys), "k", workers)
		if err != nil {
			t.Fatal(err)
		}
		probes := []int64{0, -1, math.MinInt64, math.MaxInt64}
		for k := int64(-9); k <= 8; k++ {
			probes = append(probes, k)
		}
		matchesRef(t, fmt.Sprintf("parts=%d", workers), tbl, keys, probes)
	})
}

// probeSink keeps BenchmarkJoinProbe's loops from being optimized away.
var probeSink int

// BenchmarkJoinProbe prices one probe against a 16 384-key build side (one
// row per key, as a primary key), in ns per probe key, for
//   - map: the map[int64][]int32 index the flat one replaced;
//   - flat: JoinTable.Lookup on every key;
//   - flat+memo: the fused probe's run memo, which skips the lookup when a
//     key repeats the previous one;
//   - bloom+flat: the partition's Bloom filter first, Lookup only on a
//     maybe — the interpreted probe's Bloom arm.
//
// Probe keys are sorted in runs of four (a fact table clustered by its
// foreign key) or random, and 1, 10 or 100 % of them hit.
func BenchmarkJoinProbe(b *testing.B) {
	const buildKeys, probes, runLen = 1 << 14, 1 << 16, 4
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, buildKeys)
	for i := range keys {
		keys[i] = 2 * rng.Int63n(1<<40) // even: odd keys miss
	}
	tbl, err := NewJoinTable(keyStore(keys), "k")
	if err != nil {
		b.Fatal(err)
	}
	ref := refJoinMap(keys)
	for _, order := range []string{"runs", "random"} {
		for _, hit := range []int{1, 10, 100} {
			probe := make([]int64, 0, probes)
			for len(probe) < probes {
				k := keys[rng.Intn(buildKeys)]
				if rng.Intn(100) >= hit {
					k++ // odd: absent
				}
				for r := 0; r < runLen; r++ {
					probe = append(probe, k)
				}
			}
			if order == "random" {
				rng.Shuffle(len(probe), func(i, j int) { probe[i], probe[j] = probe[j], probe[i] })
			} else {
				sort.Slice(probe, func(i, j int) bool { return probe[i] < probe[j] })
			}
			arms := []struct {
				name string
				run  func() int
			}{
				{"map", func() int {
					n := 0
					for _, k := range probe {
						n += len(ref[k])
					}
					return n
				}},
				{"flat", func() int {
					n := 0
					for _, k := range probe {
						n += len(tbl.Lookup(k))
					}
					return n
				}},
				{"flat+memo", func() int {
					n := 0
					var (
						prev    int64
						matches []int32
						memo    bool
					)
					for _, k := range probe {
						if !memo || k != prev {
							prev, matches, memo = k, tbl.Lookup(k), true
						}
						n += len(matches)
					}
					return n
				}},
				{"bloom+flat", func() int {
					n := 0
					for _, k := range probe {
						if tbl.mayContain(k) {
							n += len(tbl.Lookup(k))
						}
					}
					return n
				}},
			}
			want := arms[0].run()
			for _, arm := range arms {
				b.Run(fmt.Sprintf("%s/hit=%d%%/%s", order, hit, arm.name), func(b *testing.B) {
					if got := arm.run(); got != want {
						b.Fatalf("%d matches, want %d", got, want)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						probeSink = arm.run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(probe)), "ns/probe")
				})
			}
		}
	}
}
