// Adaptive CPU/GPU placement (§IV target 3): sweep kernel sizes and show
// the placer routing small/cold kernels to the CPU and large/resident ones
// to the simulated GPU, with modeled costs for both. The second half drives
// the same policy through the public advm API: a session opened with
// advm.WithDevicePolicy(advm.DeviceAuto) records a placement decision per run,
// observable via Stats.
//
// Run: go run ./examples/gpuoffload
package main

import (
	"context"
	"fmt"
	"log"

	"repro/advm"
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
				Name: name, Elems: elems,
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

	sessionDemo()
	queryDemo()
}

// queryDemo shows per-morsel placement in the relational engine: a
// parallel query under WithDevicePolicy(DeviceAuto) dispatches each morsel
// of its scan→filter/compute segment to the CPU workers or the simulated
// GPU, and repeated queries shift large scans to the (now resident)
// accelerator. Results stay byte-identical to CPU execution either way.
func queryDemo() {
	fmt.Println("\n=== parallel query with WithDevicePolicy(DeviceAuto) ===")
	st := advm.NewTable(advm.NewSchema("k", advm.I64, "v", advm.F64))
	for i := 0; i < 300_000; i++ {
		st.AppendRow(advm.I64Value(int64(i%1000)), advm.F64Value(float64(i%97)*1.25))
	}
	sess, err := advm.NewSession(
		advm.WithParallelism(4),
		advm.WithDevicePolicy(advm.DeviceAuto))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	plan := advm.Scan(st, "k", "v").
		Filter(`(\k -> k < 900)`, "k").
		Compute("w", `(\v -> v * 1.5 + 2.0)`, advm.F64, "v").
		Aggregate(nil, advm.Agg{Func: advm.AggSum, Col: "w", As: "sum_w"})
	for run := 1; run <= 3; run++ {
		rows, err := sess.Query(context.Background(), plan)
		if err != nil {
			log.Fatal(err)
		}
		var sum float64
		for rows.Next() {
			if err := rows.Scan(&sum); err != nil {
				log.Fatal(err)
			}
		}
		place := rows.Placements()
		rows.Close()
		fmt.Printf("run %d: sum_w=%.2f  morsels cpu=%d gpu=%d\n",
			run, sum, place["cpu"], place["gpu"])
	}
	stats := sess.Stats()
	fmt.Printf("session totals: %v, modeled transfer %v\n",
		stats.MorselPlacements, stats.MorselTransfer)
}

// sessionDemo drives the same placement policy through the public API: the
// session runs a small program over growing inputs and records where the
// modeled-cost policy would place each run.
func sessionDemo() {
	fmt.Println("\n=== advm session with WithDevicePolicy(DeviceAuto) ===")
	src := `
mut i
i := 0
loop {
  let xs = read i data
  if len(xs) == 0 then break
  let r = map (\x -> (x * 3 + 7) * (x - 1)) xs
  write out i r
  i := i + len(xs)
}
`
	sess, err := advm.Compile(src, map[string]advm.Kind{"data": advm.I64, "out": advm.I64},
		advm.WithDevicePolicy(advm.DeviceAuto))
	if err != nil {
		log.Fatal(err)
	}
	for _, elems := range []int{1 << 8, 1 << 14, 1 << 20} {
		data := make([]int64, elems)
		if err := sess.Run(context.Background(), map[string]*advm.Vector{
			"data": advm.FromI64(data), "out": advm.NewVector(advm.I64, 0, elems),
		}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("%-12s %-12s %s\n", "elems", "bytes", "placed on")
	for _, p := range sess.Stats().Placements {
		fmt.Printf("%-12d %-12d %s\n", p.Elems, p.Bytes, p.Device)
	}
}
