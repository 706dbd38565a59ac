// Quickstart: run the paper's Figure 2 program on the adaptive VM through
// the public advm API.
//
// The program reads some_data, doubles every value into v, and writes the
// positive doubles consecutively into w. The VM starts interpreting,
// profiles the loop body, greedily partitions its dependency graph
// (Figure 3), JIT-compiles the two fragments and injects them — all visible
// in the session's Stats and plan report.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/advm"
	"repro/internal/dsl"
)

func main() {
	fmt.Printf("pre-compiled vectorized kernels available at startup: %d\n\n", advm.KernelCount())
	fmt.Println("Figure 2 program:")
	fmt.Print(dsl.Figure2Source)

	sess, err := advm.Compile(dsl.Figure2Source, map[string]advm.Kind{
		"some_data": advm.I64, "v": advm.I64, "w": advm.I64,
	},
		advm.WithHotThresholds(2, 200*time.Microsecond),
	)
	if err != nil {
		log.Fatal(err)
	}

	data := make([]int64, 4096)
	for i := range data {
		data[i] = int64(i%7 - 3)
	}

	ctx := context.Background()
	run := func(label string) {
		v := advm.NewVector(advm.I64, 0, 4096)
		w := advm.NewVector(advm.I64, 0, 4096)
		if err := sess.Run(ctx, map[string]*advm.Vector{
			"some_data": advm.FromI64(data), "v": v, "w": w,
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: v=%s  w=%s (|w|=%d)\n", label, v, w, w.Len())
	}

	run("run 1 (interpreted)")
	run("run 2 (hot: compiled traces injected)")

	st := sess.Stats()
	fmt.Println("\nVM state machine (Figure 1) transitions:")
	for _, tr := range st.Transitions {
		fmt.Printf("  %v\n", tr)
	}
	fmt.Println("\ncurrent plan:")
	fmt.Print(sess.PlanReport())
	fmt.Printf("\nruns=%d injected traces=%d reverted=%d compiled segments=%v\n",
		st.Runs, st.InjectedTraces, st.RevertedTraces, st.CompiledSegments)
}
