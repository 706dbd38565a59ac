package gpu

import (
	"testing"

	"repro/internal/device"
)

func kernelOf(elems int, inputs ...string) device.Kernel {
	return device.Kernel{
		Elems:   elems,
		BytesIn: elems * 8, BytesOut: 8,
		OpsPerElem: 2, Inputs: inputs,
	}
}

func TestLaunchOverheadDominatesSmallKernels(t *testing.T) {
	g := New(DefaultConfig())
	cpu := device.NewCPU()
	k := kernelOf(64, "a")
	if g.Estimate(k).Modeled <= cpu.Estimate(k).Modeled {
		t.Fatalf("gpu should lose on tiny kernels: gpu=%v cpu=%v",
			g.Estimate(k).Modeled, cpu.Estimate(k).Modeled)
	}
}

func TestGPUWinsLargeResidentKernels(t *testing.T) {
	g := New(DefaultConfig())
	cpu := device.NewCPU()
	k := kernelOf(1<<24, "big")
	g.MakeResident("big", k.BytesIn)
	if g.Estimate(k).Modeled >= cpu.Estimate(k).Modeled {
		t.Fatalf("gpu should win on large resident data: gpu=%v cpu=%v",
			g.Estimate(k).Modeled, cpu.Estimate(k).Modeled)
	}
	if g.Estimate(k).Transfer != 0 {
		t.Fatal("resident input should not be charged transfer")
	}
}

func TestTransferChargedForColdData(t *testing.T) {
	g := New(DefaultConfig())
	k := kernelOf(1<<20, "cold")
	cold := g.Estimate(k)
	if cold.Transfer == 0 {
		t.Fatal("cold input must pay PCIe transfer")
	}
	// Once the input is resident, the estimate skips its transfer.
	g.MakeResident("cold", k.BytesIn)
	warm := g.Estimate(k)
	if warm.Transfer >= cold.Transfer {
		t.Fatalf("residency should remove the input transfer: %v vs %v", warm.Transfer, cold.Transfer)
	}
	if warm.Modeled >= cold.Modeled {
		t.Fatal("warm kernel should be cheaper")
	}
}

func TestCrossoverWithSize(t *testing.T) {
	// Sweep sizes: the winner must flip exactly once from CPU to GPU
	// (resident data).
	g := New(DefaultConfig())
	cpu := device.NewCPU()
	prevGPUWins := false
	flips := 0
	for _, elems := range []int{1 << 8, 1 << 12, 1 << 16, 1 << 20, 1 << 24} {
		k := kernelOf(elems, "x")
		g.MakeResident("x", k.BytesIn)
		gpuWins := g.Estimate(k).Modeled < cpu.Estimate(k).Modeled
		if gpuWins != prevGPUWins {
			flips++
			prevGPUWins = gpuWins
		}
	}
	if !prevGPUWins {
		t.Fatal("gpu must win at the largest size")
	}
	if flips != 1 {
		t.Fatalf("expected exactly one crossover, saw %d flips", flips)
	}
}

func TestResidencyEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 100
	g := New(cfg)
	g.MakeResident("a", 60)
	g.MakeResident("b", 60) // evicts a
	if g.Resident("a") {
		t.Fatal("a should be evicted")
	}
	if !g.Resident("b") {
		t.Fatal("b should be resident")
	}
	g.MakeResident("huge", 1000) // cannot fit, must not wedge the cache
	if g.Resident("huge") {
		t.Fatal("oversized array cannot be resident")
	}
	if !g.Resident("b") {
		t.Fatal("an array that cannot fit must not evict b")
	}
	g.MakeResident("c", 40) // fits beside b
	if !g.Resident("b") || !g.Resident("c") {
		t.Fatal("b and c fit together")
	}
}

func TestPlacerAdaptsToDeviceCosts(t *testing.T) {
	g := New(DefaultConfig())
	cpu := device.NewCPU()
	p := device.NewPlacer(cpu, g)

	// Small kernels → CPU; large resident kernels → GPU.
	small := kernelOf(128, "s")
	big := kernelOf(1<<24, "b")
	g.MakeResident("b", big.BytesIn)

	if d := p.Choose(small); d.Name() != "cpu" {
		t.Fatalf("small kernel placed on %s", d.Name())
	}
	if d := p.Choose(big); d.Name() != "gpu" {
		t.Fatalf("big resident kernel placed on %s", d.Name())
	}
	if p.Decisions["cpu"] == 0 || p.Decisions["gpu"] == 0 {
		t.Fatal("decision counters not updated")
	}
}
