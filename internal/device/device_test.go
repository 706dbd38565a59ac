package device

import (
	"testing"
	"time"
)

func TestCPUEstimateComputeVsMemoryBound(t *testing.T) {
	cpu := NewCPU()
	// Compute-bound: many ops per element.
	kc := Kernel{Elems: 1000, BytesIn: 8000, BytesOut: 8000, OpsPerElem: 100}
	// Memory-bound: one op per element, lots of bytes.
	km := Kernel{Elems: 1000, BytesIn: 8 << 20, BytesOut: 0, OpsPerElem: 1}
	if cpu.Estimate(kc).Modeled <= 0 || cpu.Estimate(km).Modeled <= 0 {
		t.Fatal("estimates must be positive")
	}
	if cpu.Estimate(km).Modeled <= cpu.Estimate(kc).Modeled {
		t.Fatal("8MB memory-bound kernel should cost more than 1000-elem compute")
	}
}

// fakeDevice has a fixed estimate, for placer tests.
type fakeDevice struct {
	name string
	est  time.Duration
}

func (f *fakeDevice) Name() string         { return f.name }
func (f *fakeDevice) Estimate(Kernel) Cost { return Cost{Modeled: f.est} }

func TestPlacerPicksCheapest(t *testing.T) {
	slow := &fakeDevice{name: "slow", est: time.Millisecond}
	fast := &fakeDevice{name: "fast", est: time.Microsecond}
	p := NewPlacer(slow, fast)
	for range 2 {
		if d := p.Choose(Kernel{}); d.Name() != "fast" {
			t.Fatalf("chose %s", d.Name())
		}
	}
	if got := p.DecisionCounts(); got["fast"] != 2 || got["slow"] != 0 {
		t.Fatalf("decisions = %v", got)
	}
}

func TestPlacerBiasCorrection(t *testing.T) {
	// A device whose estimates are 20× optimistic: after feedback the
	// placer must learn to distrust it.
	liar := &fakeDevice{name: "liar", est: time.Microsecond}
	honest := &fakeDevice{name: "honest", est: 5 * time.Microsecond}
	p := NewPlacer(liar, honest)
	if d := p.Choose(Kernel{}); d.Name() != "liar" {
		t.Fatalf("liar should win before any feedback; chose %s", d.Name())
	}
	for range 10 {
		// Observed 20µs against the liar's 1µs estimate.
		p.ObserveForTest("liar", 20)
	}
	if b := p.Bias("liar"); b <= 5 {
		t.Fatalf("liar bias = %v after ten 20× observations, want > 5", b)
	}
	if b := p.Bias("unknown"); b != 1 {
		t.Fatalf("unknown device bias = %v, want 1", b)
	}
	if d := p.Choose(Kernel{}); d.Name() != "honest" {
		t.Fatalf("placer failed to learn the bias; chose %s", d.Name())
	}
}
