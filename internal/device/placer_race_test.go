package device_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/gpu"
)

// TestPlacerConcurrent hammers one Placer from many goroutines — the shape
// of an engine-global placer under morsel-parallel queries from concurrent
// sessions. Run under -race in CI: the decision counts, the EWMA feedback
// and the GPU's residency cache all synchronize internally. A kernel placed
// on the GPU makes its input resident there, and its observed/estimated
// cost ratio feeds back into that device's bias.
func TestPlacerConcurrent(t *testing.T) {
	g := gpu.New(gpu.DefaultConfig())
	p := device.NewPlacer(device.NewCPU(), g)

	const workers = 8
	const kernelsPerWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < kernelsPerWorker; i++ {
				k := device.Kernel{
					Elems: 1 << (8 + uint(i%12)),
					// Shared residency keys across workers: concurrent
					// MakeResident/Resident on the same names.
					Inputs:     []string{fmt.Sprintf("col%d", i%5)},
					OpsPerElem: float64(1 + i%4),
				}
				k.BytesIn = k.Elems * 8
				k.BytesOut = k.Elems * 8
				switch i % 3 {
				case 0:
					p.Choose(k)
				case 1:
					d := p.Choose(k)
					if d == g {
						g.MakeResident(k.Inputs[0], k.BytesIn)
					}
					p.ObserveForTest(d.Name(), 1.05)
				default:
					p.ObserveForTest("gpu", 1.1)
					p.ObserveForTest("cpu", 0.9)
				}
			}
		}(w)
	}
	wg.Wait()

	counts := p.DecisionCounts()
	var total int
	for _, n := range counts {
		total += n
	}
	// Iterations with i%3 ∈ {0, 1} place a kernel.
	perWorker := (kernelsPerWorker + 2) / 3 // i%3 == 0
	perWorker += (kernelsPerWorker + 1) / 3 // i%3 == 1
	want := workers * perWorker
	if total != want {
		t.Fatalf("placed %d kernels, want %d (%v)", total, want, counts)
	}
	if b := p.Bias("cpu"); b <= 0 {
		t.Fatalf("cpu bias not positive: %v", b)
	}
	if b := p.Bias("gpu"); b <= 0 {
		t.Fatalf("gpu bias not positive: %v", b)
	}
}
