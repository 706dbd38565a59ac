package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns the due times (offsets from the start) of a
// seeded arrival process at `rate` requests per second over `length`: every
// second holds exactly `rate` arrivals at independent uniform times (a
// Poisson process conditioned on its count, second by second). Arrivals
// bunch and thin out within a second as independent users' do, while the
// offered load of every slice of the window — and so ops_per_s — is the same
// for every seed. A pure function of seed, rate and length.
func poissonSchedule(seed int64, rate float64, length time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	for from := time.Duration(0); from < length; from += time.Second {
		span := min(time.Second, length-from)
		n := int(math.Round(rate * span.Seconds()))
		second := make([]time.Duration, n)
		for i := range second {
			second[i] = from + time.Duration(rng.Float64()*float64(span))
		}
		sort.Slice(second, func(i, j int) bool { return second[i] < second[j] })
		due = append(due, second...)
	}
	return due
}

// arrival is the outcome of one scheduled request: when it was due, when a
// connection was free to take it, when that connection actually issued it,
// and when its response was fully read.
type arrival struct {
	Due, Free, Sent, Done time.Duration
}

// latency is taken from the due time, so a stall is charged to every
// request it delays, not only to the one that hit it.
func (a arrival) latency() time.Duration { return a.Done - a.Due }

// connWait is how long the request was due while every connection was still
// busy with an earlier one: the server's doing, and part of latency.
func (a arrival) connWait() time.Duration { return max(0, a.Free-a.Due) }

// late is the generator's own lag: how long after the request was due and a
// connection free it actually went out. Large values mean the generator,
// not the server, is the bottleneck, and the run says nothing.
func (a arrival) late() time.Duration { return a.Sent - max(a.Due, a.Free) }

// runOpenLoop issues request i at start+due[i] regardless of how earlier
// requests fare, over `conns` connections: each connection claims the next
// scheduled request, waits until it is due, and calls do(conn, i). At most
// `conns` requests are ever in flight; when all connections are busy the
// next request goes out late and the wait shows in its latency.
func runOpenLoop(start time.Time, due []time.Duration, conns int, do func(conn, i int)) []arrival {
	out := make([]arrival, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				free := time.Since(start)
				if wait := due[i] - free; wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				do(conn, i)
				out[i] = arrival{Due: due[i], Free: free, Sent: sent, Done: time.Since(start)}
			}
		}(c)
	}
	wg.Wait()
	return out
}
