package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/vector"
)

var errBoom = errors.New("boom")

// failLog numbers and records every error the failing pipelines of one run
// return, across all workers.
type failLog struct {
	mu   sync.Mutex
	errs []error
}

func (l *failLog) fail() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := fmt.Errorf("%w #%d", errBoom, len(l.errs)+1)
	l.errs = append(l.errs, err)
	return err
}

// failAt passes its child's chunks through until the k-th, where its Next
// fails — and keeps failing if it is called again.
type failAt struct {
	Operator
	k, n int
	log  *failLog
}

func (f *failAt) Next(ctx context.Context) (*vector.Chunk, error) {
	c, err := f.Operator.Next(ctx)
	if err != nil || c == nil {
		return c, err
	}
	if f.n++; f.n >= f.k {
		return nil, f.log.fail()
	}
	return c, nil
}

// TestMorselOperatorsReportFirstError: a worker pipeline whose Next fails on
// its k-th chunk makes every dispatching operator return that error — the
// first one recorded, not a later worker's, not a combination — stop
// dispatching further morsels, and leave no goroutine behind.
func TestMorselOperatorsReportFirstError(t *testing.T) {
	st := genTable(t, 40_000, 41)
	dim := dimTable(3000, func(i int) int64 { return int64(i) })
	ctx := context.Background()
	type run func(workers int, mk func(int, Operator) (Operator, error)) error
	ops := []struct {
		name string
		run  run
	}{
		{"exchange", func(workers int, mk func(int, Operator) (Operator, error)) error {
			ex, err := NewExchange(st, nil, workers, mk)
			if err != nil {
				return err
			}
			ex.SetChunkLen(256).SetMorselLen(1024)
			defer ex.Close()
			if err := ex.Open(ctx); err != nil {
				return err
			}
			for {
				c, err := ex.Next(ctx)
				if err != nil || c == nil {
					return err
				}
			}
		}},
		{"parallel-agg", func(workers int, mk func(int, Operator) (Operator, error)) error {
			pa, err := NewParallelAgg(st, nil, workers, mk, []string{"k"}, []Aggregate{{Func: AggSum, Col: "v2", As: "s"}})
			if err != nil {
				return err
			}
			pa.SetChunkLen(256).SetMorselLen(1024)
			_, err = Collect(ctx, pa)
			return err
		}},
		{"parallel-topk", func(workers int, mk func(int, Operator) (Operator, error)) error {
			tk, err := NewParallelTopK(st, nil, workers, mk, 5, OrderSpec{Col: "g", Desc: true})
			if err != nil {
				return err
			}
			tk.SetChunkLen(256).SetMorselLen(1024)
			_, err = Collect(ctx, tk)
			return err
		}},
		{"join-build", func(workers int, mk func(int, Operator) (Operator, error)) error {
			_, err := BuildJoinTableParallel(ctx, dim, nil, workers, 256, 1024, "dk", mk)
			return err
		}},
	}
	before := runtime.NumGoroutine()
	for _, op := range ops {
		for _, workers := range []int{1, 4} {
			for _, k := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/workers=%d/k=%d", op.name, workers, k), func(t *testing.T) {
					log := &failLog{}
					err := op.run(workers, func(_ int, leaf Operator) (Operator, error) {
						inner := leaf
						if op.name != "join-build" {
							inner = pipelineOn(leaf)
						}
						return &failAt{Operator: inner, k: k, log: log}, nil
					})
					if !errors.Is(err, errBoom) {
						t.Fatalf("got error %v, want %v", err, errBoom)
					}
					log.mu.Lock()
					defer log.mu.Unlock()
					if n := len(log.errs); n > workers {
						// A worker fails at most once: after the first failure
						// no further morsel starts, only those in flight end.
						t.Fatalf("%d pipelines failed with %d workers: dispatch went on after the first error", n, workers)
					}
					found := false
					for _, e := range log.errs {
						if e == err {
							found = true
						} else if errors.Is(err, e) {
							t.Fatalf("reported error %q wraps the later error %q", err, e)
						}
					}
					if !found {
						t.Fatalf("reported error %q is none of the pipelines' errors %q", err, log.errs)
					}
					if workers == 1 && err != log.errs[0] {
						t.Fatalf("reported %q, want the first error %q", err, log.errs[0])
					}
				})
			}
		}
	}
	const slack = 3
	if n := settleGoroutines(before + slack); n > before+slack {
		t.Fatalf("goroutines: %d before, %d after the failed runs (slack %d) — worker leak", before, n, slack)
	}
}
