package morsel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestRunCoversEveryRowExactlyOnce(t *testing.T) {
	n := 1_000_003 // prime-ish, not a multiple of the morsel size
	seen := make([]int32, n)
	Run(n, Options{Workers: 8, MorselLen: 1024}, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("row %d covered %d times", i, c)
		}
	}
}

func TestRunSmallInputSingleCall(t *testing.T) {
	calls := 0
	Run(100, Options{Workers: 8, MorselLen: 1024}, func(w, lo, hi int) {
		calls++
		if w != 0 || lo != 0 || hi != 100 {
			t.Fatalf("small input should be one morsel on worker 0: %d %d %d", w, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
	Run(0, Options{}, func(_, _, _ int) { t.Fatal("n=0 must not call fn") })
}

// TestRunSingleWorkerKeepsMorselGranularity: Workers=1 used to receive the
// whole index space as one giant morsel, breaking the per-call contract
// (bounded ranges, aligned lo, dense sequence numbers) that the engine's
// exchange path depends on.
func TestRunSingleWorkerKeepsMorselGranularity(t *testing.T) {
	n := 10*1024 + 37
	var calls, rows int
	Run(n, Options{Workers: 1, MorselLen: 1024}, func(w, lo, hi int) {
		if w != 0 {
			t.Fatalf("worker = %d", w)
		}
		if lo%1024 != 0 || hi-lo > 1024 {
			t.Fatalf("morsel [%d,%d) violates alignment/bounds", lo, hi)
		}
		if lo != calls*1024 {
			t.Fatalf("morsel %d starts at %d, want sequential dispatch", calls, lo)
		}
		calls++
		rows += hi - lo
	})
	if calls != 11 || rows != n {
		t.Fatalf("calls=%d rows=%d, want 11 morsels covering %d rows", calls, rows, n)
	}
	st := RunInstrumented(n, Options{Workers: 1, MorselLen: 1024}, func(_, _, _ int) {})
	if st.Morsels() != 11 || st.Rows() != int64(n) {
		t.Fatalf("instrumented: morsels=%d rows=%d", st.Morsels(), st.Rows())
	}
}

// sumInts folds x(0..n-1) through Run into one accumulator per worker, then
// adds the accumulators: the pattern for commutative reductions, since
// which worker runs a morsel is not deterministic.
func sumInts(n int, opt Options, x func(i int) int64) int64 {
	accs := make([]int64, opt.Workers)
	Run(n, opt, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			accs[worker] += x(i)
		}
	})
	var sum int64
	for _, a := range accs {
		sum += a
	}
	return sum
}

func TestFoldSum(t *testing.T) {
	n := 500_000
	data := make([]int64, n)
	var want int64
	for i := range data {
		data[i] = int64(i % 97)
		want += data[i]
	}
	if got := sumInts(n, Options{Workers: 6, MorselLen: 4096}, func(i int) int64 { return data[i] }); got != want {
		t.Fatalf("fold = %d, want %d", got, want)
	}
}

// TestSkewAbsorption: with one pathologically slow morsel, dynamic
// boundaries must let other workers take the remaining morsels instead of
// stalling behind a static partition.
func TestSkewAbsorption(t *testing.T) {
	n := 64 * 1024
	slowMorsel := int64(0)
	st := RunInstrumented(n, Options{Workers: 4, MorselLen: 1024}, func(w, lo, hi int) {
		if atomic.CompareAndSwapInt64(&slowMorsel, 0, 1) {
			time.Sleep(30 * time.Millisecond) // one slow morsel
		}
	})
	// The slow worker must have handled far fewer morsels than the rest
	// combined: 64 morsels total, slow one takes ~1.
	var minM, maxM int64 = 1 << 62, 0
	for _, m := range st.MorselsPerWorker {
		if m < minM {
			minM = m
		}
		if m > maxM {
			maxM = m
		}
	}
	if minM > 4 {
		t.Fatalf("slow worker handled %d morsels; dynamic dispatch failed (%v)", minM, st.MorselsPerWorker)
	}
	var rows int64
	for _, r := range st.RowsPerWorker {
		rows += r
	}
	if rows != int64(n) {
		t.Fatalf("rows covered = %d, want %d", rows, n)
	}
}

// TestStealCountsUnderSkew: when one worker's whole initial range is slow,
// the other workers must steal from it (and from each other) instead of
// idling — observable through the new StealsPerWorker counters — while
// still covering every row exactly once.
func TestStealCountsUnderSkew(t *testing.T) {
	const morselLen = 1024
	const workers = 4
	n := 64 * morselLen
	seen := make([]int32, n)
	st := RunInstrumented(n, Options{Workers: workers, MorselLen: morselLen}, func(w, lo, hi int) {
		// Worker 0's initial contiguous range is the first quarter of the
		// index space; make every morsel there slow so its owner cannot
		// drain it alone.
		if lo < n/workers {
			time.Sleep(2 * time.Millisecond)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("row %d covered %d times", i, c)
		}
	}
	if st.Steals() == 0 {
		t.Fatalf("no steals recorded under a skewed region (%v)", st.StealsPerWorker)
	}
	if len(st.StealsPerWorker) != workers {
		t.Fatalf("StealsPerWorker sized %d, want %d", len(st.StealsPerWorker), workers)
	}
}

// TestStealSplitNeverLosesMorsels hammers the steal CAS paths with tiny
// morsels and more workers than morsels-per-range, where every worker
// spends most of its time thieving.
func TestStealSplitNeverLosesMorsels(t *testing.T) {
	for _, workers := range []int{2, 3, 8, 16} {
		for _, n := range []int{7, 64, 1000, 4097} {
			var rows atomic.Int64
			st := RunInstrumented(n, Options{Workers: workers, MorselLen: 3}, func(_, lo, hi int) {
				rows.Add(int64(hi - lo))
			})
			if rows.Load() != int64(n) || st.Rows() != int64(n) {
				t.Fatalf("workers=%d n=%d: covered %d rows (stats %d)", workers, n, rows.Load(), st.Rows())
			}
		}
	}
}

func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	n := 1 << 22
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i)
	}
	work := func(workers int) time.Duration {
		start := time.Now()
		accs := make([]float64, workers)
		Run(n, Options{Workers: workers, MorselLen: 8192}, func(worker, lo, hi int) {
			acc := accs[worker]
			for i := lo; i < hi; i++ {
				acc += data[i] * 1.0001
			}
			accs[worker] = acc
		})
		return time.Since(start)
	}
	seq := work(1)
	par := work(4)
	if par >= seq {
		t.Logf("warning: no speedup (seq=%v par=%v); machine may be loaded", seq, par)
	}
}

// Property: a sum folded through Run's per-worker accumulators equals the
// sequential sum for random sizes and options.
func TestFoldProperty(t *testing.T) {
	f := func(raw []int32, workers uint8, morsel uint16) bool {
		n := len(raw)
		var want int64
		for _, x := range raw {
			want += int64(x)
		}
		opt := Options{Workers: int(workers%8) + 1, MorselLen: int(morsel%512) + 1}
		return sumInts(n, opt, func(i int) int64 { return int64(raw[i]) }) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
