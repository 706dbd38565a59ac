package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/gpu"
)

// TestKernelSpecKernel: the spec scales per-row volumes to the morsel.
func TestKernelSpecKernel(t *testing.T) {
	spec := KernelSpec{
		Name: "seg", Inputs: []string{"t.a", "t.b"},
		RowBytes: 16, OutRowBytes: 8, OpsPerElem: 3,
	}
	k := spec.Kernel(16384, 16384+1000)
	if k.Elems != 1000 || k.BytesIn != 16000 || k.BytesOut != 8000 {
		t.Fatalf("kernel volumes wrong: %+v", k)
	}
	if k.OpsPerElem != 3 || len(k.Inputs) != 2 || k.Name != "seg" {
		t.Fatalf("kernel metadata wrong: %+v", k)
	}
}

// TestDeviceExecExchange: an exchange over DeviceExec-wrapped pipelines
// produces exactly the serial rows while recording one placement per
// morsel; forcing the GPU device pins every morsel and charges transfer.
func TestDeviceExecExchange(t *testing.T) {
	st := genTable(t, 50_000, 7)
	serialScan, err := NewScan(st)
	if err != nil {
		t.Fatal(err)
	}
	want := materialize(t, pipelineOn(serialScan))

	spec := KernelSpec{
		Name:     "seg@test",
		Inputs:   []string{"t.k", "t.v", "t.f"},
		RowBytes: 24, OutRowBytes: 24, OpsPerElem: 5,
	}
	const morselLen = 4096
	wantMorsels := int64((st.Rows() + morselLen - 1) / morselLen)

	cases := []struct {
		name   string
		placer *device.Placer
		forced device.Device
	}{
		{"adaptive", device.NewPlacer(device.NewCPU(), gpu.New(gpu.DefaultConfig())), nil},
		{"forced-gpu", nil, gpu.New(gpu.DefaultConfig())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := NewPlacementRecorder()
			ex, err := NewExchange(st, nil, 4, func(_ int, leaf Operator) (Operator, error) {
				return NewDeviceExec(pipelineOn(leaf), tc.placer, tc.forced, spec, rec), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			ex.SetMorselLen(morselLen)
			got := materialize(t, ex)
			if len(got) != len(want) {
				t.Fatalf("%d rows, want %d", len(got), len(want))
			}
			for i := range want {
				for c := range want[i] {
					if !got[i][c].Equal(want[i][c]) {
						t.Fatalf("row %d col %d: got %v want %v", i, c, got[i][c], want[i][c])
					}
				}
			}
			counts := rec.Counts()
			var total int64
			for _, n := range counts {
				total += n
			}
			if total != wantMorsels {
				t.Fatalf("recorded %d placements, want %d (%v)", total, wantMorsels, counts)
			}
			if tc.forced != nil {
				if counts["gpu"] != wantMorsels {
					t.Fatalf("forced gpu placed %v, want all on gpu", counts)
				}
				if rec.Transfer() <= 0 {
					t.Fatal("forced gpu recorded no transfer time")
				}
			}
		})
	}
}

// TestDeviceExecParallelAgg: grouped aggregation over placed pipelines is
// byte-identical to the unplaced aggregation at the same morsel length —
// placement is a scheduling concern only and must never reach result bytes.
func TestDeviceExecParallelAgg(t *testing.T) {
	st := genTable(t, 60_000, 9)
	keys := []string{"k"}
	aggs := []Aggregate{
		{Func: AggSum, Col: "f", As: "sum_f"},
		{Func: AggCount, As: "n"},
	}
	ref, err := NewParallelAgg(st, nil, 1, func(_ int, leaf Operator) (Operator, error) {
		return pipelineOn(leaf), nil
	}, keys, aggs)
	if err != nil {
		t.Fatal(err)
	}
	want := materialize(t, ref.SetMorselLen(4096))

	rec := NewPlacementRecorder()
	placer := device.NewPlacer(device.NewCPU(), gpu.New(gpu.DefaultConfig()))
	spec := KernelSpec{Name: "agg@test", Inputs: []string{"t.k", "t.v", "t.f"}, RowBytes: 24, OutRowBytes: 24, OpsPerElem: 5}
	pa, err := NewParallelAgg(st, nil, 4, func(_ int, leaf Operator) (Operator, error) {
		return NewDeviceExec(pipelineOn(leaf), placer, nil, spec, rec), nil
	}, keys, aggs)
	if err != nil {
		t.Fatal(err)
	}
	pa.SetMorselLen(4096)
	got := materialize(t, pa)
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if !got[i][c].Equal(want[i][c]) {
				t.Fatalf("group %d col %d: got %v want %v", i, c, got[i][c], want[i][c])
			}
		}
	}
	var total int64
	for _, n := range rec.Counts() {
		total += n
	}
	if wantMorsels := int64((st.Rows() + 4095) / 4096); total != wantMorsels {
		t.Fatalf("recorded %d placements, want %d", total, wantMorsels)
	}
}

// TestDeviceExecOperatorPassthrough: as a plain Operator the wrapper is
// transparent — serial drains bypass placement entirely.
func TestDeviceExecOperatorPassthrough(t *testing.T) {
	st := genTable(t, 5_000, 3)
	sc, err := NewScan(st)
	if err != nil {
		t.Fatal(err)
	}
	want := materialize(t, pipelineOn(sc))

	sc2, err := NewScan(st)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewPlacementRecorder()
	de := NewDeviceExec(pipelineOn(sc2), device.NewPlacer(device.NewCPU()), nil, KernelSpec{}, rec)
	if fmt.Sprint(de.Schema()) != fmt.Sprint(pipelineOn(sc).Schema()) {
		t.Fatal("schema not delegated")
	}
	got := materialize(t, de)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	if len(rec.Counts()) != 0 {
		t.Fatalf("serial passthrough recorded placements: %v", rec.Counts())
	}
}

// TestDeviceExecPropagatesError: a failing pipeline surfaces its error
// through RunMorsel instead of losing it inside the placed work.
func TestDeviceExecPropagatesError(t *testing.T) {
	st := genTable(t, 10_000, 5)
	ex, err := NewExchange(st, nil, 2, func(_ int, leaf Operator) (Operator, error) {
		f := NewFilter(leaf, dsl.MustParseLambda(`(\k -> k < nope)`), "k") // unbound name: Open fails later
		return NewDeviceExec(f, device.NewPlacer(device.NewCPU()), nil, KernelSpec{}, nil), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Open(context.Background()); err == nil {
		ex.Close()
		t.Fatal("expected open error from malformed predicate")
	}
}

// TestPlacementRecorderConcurrent: many goroutines recording placements at
// once keep consistent totals (run under -race in CI).
func TestPlacementRecorderConcurrent(t *testing.T) {
	rec := NewPlacementRecorder()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			name := "cpu"
			if g%2 == 1 {
				name = "gpu"
			}
			for i := 0; i < 1000; i++ {
				rec.record(name, device.Cost{Transfer: time.Nanosecond})
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	counts := rec.Counts()
	if counts["cpu"] != 4000 || counts["gpu"] != 4000 {
		t.Fatalf("lost updates: %v", counts)
	}
	if rec.Transfer() != 8000*time.Nanosecond {
		t.Fatalf("transfer total %v, want 8µs", rec.Transfer())
	}
}
