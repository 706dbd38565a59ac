package main

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleIsPureFunctionOfSeedAndRate(t *testing.T) {
	a := poissonSchedule(7, 60, 10*time.Second)
	b := poissonSchedule(7, 60, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and rate gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 60, 10*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n != 600 {
		t.Fatalf("rate 60/s over 10s scheduled %d arrivals, want exactly 600", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
	if last := a[len(a)-1]; last >= 10*time.Second {
		t.Fatalf("arrival at %v is outside the 10s schedule", last)
	}
	if double := len(poissonSchedule(7, 120, 10*time.Second)); double != 2*len(a) {
		t.Fatalf("doubling the rate scheduled %d arrivals against %d", double, len(a))
	}
}

// A 50 ms server stall must show in the latency of the requests due during
// it: latency runs from the due time, not from when a connection got round
// to sending.
func TestLatencyIsTakenFromDueTime(t *testing.T) {
	const gap, stall, stalled = 5 * time.Millisecond, 50 * time.Millisecond, 3
	due := make([]time.Duration, 12)
	for i := range due {
		due[i] = time.Duration(i+1) * gap
	}
	arrivals := runOpenLoop(time.Now(), due, 1, func(conn, i int) {
		if i == stalled {
			time.Sleep(stall)
		}
	})
	next := arrivals[stalled+1]
	if lat := next.latency(); lat < stall-2*gap {
		t.Errorf("request due during the stall has latency %v, want ≥ %v", lat, stall-2*gap)
	}
	if sendToDone := next.Done - next.Sent; sendToDone > stall/2 {
		t.Errorf("the delayed request itself was fast to serve (%v): the test is not testing the due-time clock", sendToDone)
	}
	if wait := next.connWait(); wait < stall-2*gap {
		t.Errorf("connection wait %v not reported, want ≥ %v", wait, stall-2*gap)
	}
	// The generator itself was not the bottleneck, and says so.
	for i, a := range arrivals {
		if a.late() < 0 || a.late() > 20*time.Millisecond {
			t.Errorf("request %d: generator lag %v", i, a.late())
		}
		if a.Sent < a.Due {
			t.Errorf("request %d sent %v before it was due", i, a.Due-a.Sent)
		}
	}
	if early := arrivals[0]; early.latency() > stall/2 {
		t.Errorf("request before the stall has latency %v", early.latency())
	}
}

func TestNeverMoreThanConnsInFlight(t *testing.T) {
	const conns = 2
	due := poissonSchedule(3, 2000, 200*time.Millisecond) // far more offered than two connections serve
	var inflight, peak atomic.Int32
	runOpenLoop(time.Now(), due, conns, func(conn, i int) {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inflight.Add(-1)
	})
	if p := peak.Load(); p != conns {
		t.Fatalf("peak requests in flight = %d, want exactly %d under overload", p, conns)
	}
}
