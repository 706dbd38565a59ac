package compress

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// forData returns n values whose frame-of-reference deltas need exactly
// width bits: the deltas are random below 1<<width, one of them is 0 and
// one is all ones.
func forData(rng *rand.Rand, width, n int) []int64 {
	base := int64(-12345)
	if width >= 63 {
		base = math.MinInt64
	}
	top := ^uint64(0) >> (64 - width)
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(uint64(base) + rng.Uint64()&top)
	}
	data[rng.Intn(n)] = base
	data[rng.Intn(n)] = int64(uint64(base) + top)
	return data
}

// TestFORDecodeEveryWidth checks every FOR reader against plain loops over
// the raw values, at every width and at lengths on both sides of a multiple
// of 64 values, where the last value's bits end at, before or after a word
// boundary: DecompressRange from each of the last 130 values and a few
// inside, Decompress, MinMax, Sum, CountGreater and SumGreater.
func TestFORDecodeEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for width := 1; width <= 64; width++ {
		for _, n := range []int{1, 63, 64, 65, 191, 192, 193, 4095, 4096, 4097} {
			data := forData(rng, width, max(n, 2))[:n]
			b, err := Compress(data, FOR)
			if err != nil {
				t.Fatal(err)
			}
			if n > 1 && int(b.width) != width {
				t.Fatalf("width %d n=%d: block width %d", width, n, b.width)
			}
			out := make([]int64, n)
			if got := b.Decompress(out); got != n || !slices.Equal(out, data) {
				t.Fatalf("width %d n=%d: Decompress differs", width, n)
			}
			froms := []int{0, 1, n / 3, n / 2}
			for from := max(0, n-130); from < n; from++ {
				froms = append(froms, from)
			}
			for _, from := range froms {
				if from >= n {
					continue
				}
				for _, m := range []int{n - from, min(3, n-from)} {
					clear(out)
					if got := b.DecompressRange(out, from, m); got != m || !slices.Equal(out[:m], data[from:from+m]) {
						t.Fatalf("width %d n=%d: DecompressRange(from %d, n %d) differs", width, n, from, m)
					}
				}
			}
			lo, hi, ok := b.MinMax()
			if !ok || lo != slices.Min(data) || hi != slices.Max(data) {
				t.Fatalf("width %d n=%d: MinMax = %d, %d, %v; want %d, %d", width, n, lo, hi, ok, slices.Min(data), slices.Max(data))
			}
			var sum int64
			for _, v := range data {
				sum += v
			}
			if got := b.Sum(); got != sum {
				t.Fatalf("width %d n=%d: Sum = %d, want %d", width, n, got, sum)
			}
			for _, x := range []int64{math.MinInt64, data[0] - 1, data[0], data[n/2], math.MaxInt64} {
				var count, sumGt int64
				for _, v := range data {
					if v > x {
						count++
						sumGt += v
					}
				}
				if got := b.CountGreater(x); got != count {
					t.Fatalf("width %d n=%d: CountGreater(%d) = %d, want %d", width, n, x, got, count)
				}
				if got := b.SumGreater(x); got != sumGt {
					t.Fatalf("width %d n=%d: SumGreater(%d) = %d, want %d", width, n, x, got, sumGt)
				}
			}
		}
	}
}

// FuzzFORDecode turns its bytes into a FOR block — the first byte picks the
// width the values are masked to, every following 8 bytes are one value —
// and checks DecompressRange over [from, from+n) against Get.
func FuzzFORDecode(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint16(1), uint16(1))
	f.Add(slices.Repeat([]byte{63, 0xff, 0, 0x80, 7}, 40), uint16(5), uint16(30))
	f.Add(slices.Repeat([]byte{0xff}, 8*70+1), uint16(60), uint16(9))
	f.Fuzz(func(t *testing.T, raw []byte, from, n uint16) {
		if len(raw) < 9 {
			return
		}
		mask := ^uint64(0) >> (63 - raw[0]%64)
		data := make([]int64, (len(raw)-1)/8)
		for i := range data {
			data[i] = int64(binary.LittleEndian.Uint64(raw[1+8*i:]) & mask)
		}
		b, err := Compress(data, FOR)
		if err != nil {
			t.Fatal(err)
		}
		start := int(from) % len(data)
		m := min(int(n)%(len(data)+1), len(data)-start)
		out := make([]int64, m)
		if got := b.DecompressRange(out, start, m); got != m {
			t.Fatalf("DecompressRange(from %d, n %d) wrote %d", start, m, got)
		}
		for i, v := range out {
			if want := b.Get(start + i); v != want || v != data[start+i] {
				t.Fatalf("value %d: DecompressRange %d, Get %d, data %d", start+i, v, want, data[start+i])
			}
		}
	})
}

// TestFORKernelsAllocateNothing: the FOR kernels unpack through a stack
// buffer, so scanning a block for its zone map or a compressed aggregate
// allocates nothing.
func TestFORKernelsAllocateNothing(t *testing.T) {
	b, err := Compress(forData(rand.New(rand.NewSource(3)), 17, 5000), FOR)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		b.MinMax()
		b.Sum()
		b.CountGreater(0)
		b.SumGreater(0)
	}); n != 0 {
		t.Fatalf("FOR kernels allocate %v times per call, want 0", n)
	}
}
