// Package morsel implements morsel-driven parallelism ([15], listed by the
// paper as a transformation the DSL must support through dynamic loop
// boundaries): the input index space is split into small morsels claimed by
// workers on demand, so fast workers absorb the skew of slow morsels instead
// of waiting at a static partition barrier.
//
// Dispatch is work-stealing. The morsel index space is split once into W
// contiguous per-worker ranges; each worker owns a lock-free range deque (one
// packed atomic word) and pops its own morsels front-to-back, preserving
// locality and ascending order within the range. A worker whose deque runs
// dry steals the back half of a victim's remaining range and continues, so a
// region of expensive morsels (a skewed filter, an unpruned colstore stretch)
// is drained by every idle worker rather than serializing on its owner.
// Successful steals are counted per thief and surface through
// Stats.StealsPerWorker.
//
// Concurrency contract: Run's fn is called concurrently from Workers
// goroutines; the worker argument identifies the calling goroutine for
// worker-private state (0..Workers-1). Each morsel index is claimed exactly
// once — claims move between deques only through CAS transitions, so coverage
// is exact no matter how steals interleave. Nothing about *which* worker runs
// a morsel is deterministic; callers that need deterministic results must key
// their state by morsel sequence number (lo/MorselLen), never by worker — see
// the engine's Exchange and ParallelAgg for the pattern.
package morsel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultMorselLen balances dispatch overhead against skew absorption.
const DefaultMorselLen = 16384

// Options configure a parallel run.
type Options struct {
	// Workers is the worker count (0 = GOMAXPROCS).
	Workers int
	// MorselLen is the morsel size in rows (0 = DefaultMorselLen).
	MorselLen int
}

func (o Options) normalize() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MorselLen <= 0 {
		o.MorselLen = DefaultMorselLen
	}
	return o
}

// deque is one worker's remaining range of morsel indices, packed hi<<32|lo
// into a single atomic word so both pops and steals are one CAS. The range
// is half-open [lo, hi) and empty when lo >= hi. Morsel counts are bounded
// by the row count / 1, far below 2^32.
type deque struct {
	r atomic.Uint64
	_ [7]uint64 // pad to a cache line: deques sit in one slice
}

func pack(lo, hi int) uint64 { return uint64(hi)<<32 | uint64(uint32(lo)) }
func unpack(r uint64) (lo, hi int) {
	return int(uint32(r)), int(r >> 32)
}

// Run processes [0, n) with fn(worker, lo, hi) over work-stealing morsel
// dispatch. fn is called concurrently from Workers goroutines; worker
// identifies the calling worker for thread-local state. Every call receives
// at most MorselLen rows and lo is always a multiple of MorselLen, so
// lo/MorselLen is a dense morsel sequence number — the engine's exchange and
// aggregation operators key on it to keep results in table order.
func Run(n int, opt Options, fn func(worker, lo, hi int)) {
	runStealing(n, opt, fn, nil)
}

// runStealing is Run plus an optional per-thief steal counter slice sized
// Workers (nil when the caller does not track steals).
func runStealing(n int, opt Options, fn func(worker, lo, hi int), steals []int64) {
	opt = opt.normalize()
	if n <= 0 {
		return
	}
	morsels := (n + opt.MorselLen - 1) / opt.MorselLen
	if opt.Workers > morsels {
		// Clamp the fan-out to the work available: with more workers than
		// morsels the surplus workers would spend the whole run in the steal
		// loop with nothing claimable (a single-morsel range is unstealable),
		// burning CPU on Gosched spins that directly slow the workers that do
		// have work — the dominant parallel tax of tiny inputs. Worker IDs
		// stay dense in [0, morsels), and which goroutines run is invisible
		// to callers keyed by morsel sequence number.
		opt.Workers = morsels
	}
	if opt.Workers == 1 {
		// Sequential path. This used to hand the whole index space to fn as
		// one giant morsel, which silently broke the per-call contract above:
		// callers that bound work (cancellation checks, skew statistics,
		// sequence numbering) per morsel saw a single unbounded call.
		for lo := 0; lo < n; lo += opt.MorselLen {
			hi := lo + opt.MorselLen
			if hi > n {
				hi = n
			}
			fn(0, lo, hi)
		}
		return
	}

	W := opt.Workers
	deques := make([]deque, W)
	for w := 0; w < W; w++ {
		// Contiguous initial split: worker w owns [w*M/W, (w+1)*M/W).
		deques[w].r.Store(pack(w*morsels/W, (w+1)*morsels/W))
	}

	runMorsel := func(worker, m int) {
		lo := m * opt.MorselLen
		hi := lo + opt.MorselLen
		if hi > n {
			hi = n
		}
		fn(worker, lo, hi)
	}

	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			own := &deques[self]
			for {
				// Drain the own deque front-to-back.
				for {
					r := own.r.Load()
					lo, hi := unpack(r)
					if lo >= hi {
						break
					}
					if own.r.CompareAndSwap(r, pack(lo+1, hi)) {
						runMorsel(self, lo)
					}
				}
				// Own deque dry: scan victims round-robin for the back half
				// of a range with at least 2 morsels (a victim always keeps
				// its front morsel, so a steal never empties a deque — that
				// is what makes the all-empty exit scan sound).
				stole, busy := false, false
				for i := 1; i < W && !stole; i++ {
					v := &deques[(self+i)%W]
					r := v.r.Load()
					lo, hi := unpack(r)
					if hi-lo <= 0 {
						continue
					}
					busy = true
					if hi-lo < 2 {
						continue // unstealable single morsel; its owner has it
					}
					mid := lo + (hi-lo+1)/2
					if v.r.CompareAndSwap(r, pack(lo, mid)) {
						// The stolen range becomes the own deque (empty right
						// now, and thieves never CAS an empty deque, so a
						// plain store cannot lose a concurrent claim).
						own.r.Store(pack(mid, hi))
						if steals != nil {
							atomic.AddInt64(&steals[self], 1)
						}
						stole = true
					} else {
						busy = true // contended victim: someone else is active
					}
				}
				if stole {
					continue
				}
				if !busy {
					// Every deque observed empty. Remaining in-flight morsels
					// are already claimed by their owners (a worker never
					// exits with a nonempty own deque), so retiring early
					// costs tail parallelism only, never coverage.
					return
				}
				runtime.Gosched()
			}
		}(w)
	}
	wg.Wait()
}

// InitialOwner returns the worker that owned morsel seq in the initial
// contiguous split runStealing makes before any stealing: worker w owns
// [w*morsels/W, (w+1)*morsels/W) with W clamped to the morsel count, the
// same clamp the dispatcher applies. Tracing uses it for steal
// attribution: a morsel executed by a worker other than its initial owner
// was stolen.
func InitialOwner(seq, morsels, workers int) int {
	if workers <= 1 || morsels <= 0 || seq < 0 {
		return 0
	}
	if workers > morsels {
		workers = morsels
	}
	w := seq * workers / morsels
	for w > 0 && seq < w*morsels/workers {
		w--
	}
	for w+1 < workers && seq >= (w+1)*morsels/workers {
		w++
	}
	return w
}

// Stats instruments a run for skew analysis.
type Stats struct {
	MorselsPerWorker []int64
	RowsPerWorker    []int64
	// StealsPerWorker counts successful steals per thief: how often each
	// worker ran out of its own range and took the back half of a victim's.
	StealsPerWorker []int64
}

// Morsels returns the total number of dispatched morsels.
func (s Stats) Morsels() int64 {
	var n int64
	for _, m := range s.MorselsPerWorker {
		n += m
	}
	return n
}

// Rows returns the total number of dispatched rows.
func (s Stats) Rows() int64 {
	var n int64
	for _, r := range s.RowsPerWorker {
		n += r
	}
	return n
}

// Steals returns the total number of successful steals across all workers.
func (s Stats) Steals() int64 {
	var n int64
	for _, st := range s.StealsPerWorker {
		n += st
	}
	return n
}

// RunInstrumented is Run plus per-worker dispatch statistics.
func RunInstrumented(n int, opt Options, fn func(worker, lo, hi int)) Stats {
	opt = opt.normalize()
	st := Stats{
		MorselsPerWorker: make([]int64, opt.Workers),
		RowsPerWorker:    make([]int64, opt.Workers),
		StealsPerWorker:  make([]int64, opt.Workers),
	}
	runStealing(n, opt, func(worker, lo, hi int) {
		atomic.AddInt64(&st.MorselsPerWorker[worker], 1)
		atomic.AddInt64(&st.RowsPerWorker[worker], int64(hi-lo))
		fn(worker, lo, hi)
	}, st.StealsPerWorker)
	return st
}
