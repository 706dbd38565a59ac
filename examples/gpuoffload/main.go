// Adaptive CPU/GPU placement (§IV target 3): sweep kernel sizes and show
// the placer routing small/cold kernels to the CPU and large/resident ones
// to the simulated GPU, with modeled costs for both. Placement is a cost
// model here, not an execution path: the GPU is simulated, so no query or
// program runs on it (paper_test.go's TestPaperE6Placement asserts the same
// shapes).
//
// Run: go run ./examples/gpuoffload
package main

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/gpu"
)

func main() {
	g := gpu.New(gpu.DefaultConfig())
	cpu := device.NewCPU()
	placer := device.NewPlacer(cpu, g)

	fmt.Printf("%-12s %-10s %14s %14s %14s   %s\n",
		"elems", "resident", "cpu est", "gpu est", "gpu transfer", "placement")
	for _, resident := range []bool{false, true} {
		for _, elems := range []int{1 << 8, 1 << 12, 1 << 16, 1 << 20, 1 << 24} {
			name := fmt.Sprintf("col-%d-%v", elems, resident)
			k := device.Kernel{
				Elems:   elems,
				BytesIn: elems * 8, BytesOut: elems * 8,
				OpsPerElem: 4, Inputs: []string{name},
			}
			if resident {
				g.MakeResident(name, k.BytesIn)
			}
			chosen := placer.Choose(k)
			fmt.Printf("%-12d %-10v %14v %14v %14v   → %s\n",
				elems, resident,
				cpu.Estimate(k).Modeled, g.Estimate(k).Modeled, g.Estimate(k).Transfer,
				chosen.Name())
		}
	}
	fmt.Printf("\ndecisions: %v\n", placer.Decisions)
	fmt.Println("expected shape: cpu wins small/cold kernels; gpu wins large resident ones;")
	fmt.Println("the crossover moves later when data must cross PCIe.")
}
