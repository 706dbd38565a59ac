package advm

import (
	"testing"

	"repro/internal/colstore"
	"repro/internal/dsl"
)

// predCase drives predFromLambda over the lambda shapes the TPC-H plans and
// typical embedders emit.
func TestPredFromLambda(t *testing.T) {
	cases := []struct {
		name   string
		lambda string
		float  bool
		ok     bool
		check  func(t *testing.T, p colstore.Pred)
	}{
		{
			name: "upper-closed", lambda: `(\d -> d <= 2436)`, ok: true,
			check: func(t *testing.T, p colstore.Pred) {
				if p.HasLo || !p.HasHi || p.HiI != 2436 || p.HiOpen {
					t.Fatalf("pred = %+v", p)
				}
			},
		},
		{
			name: "range", lambda: `(\d -> (d >= 2000) && (d < 2100))`, ok: true,
			check: func(t *testing.T, p colstore.Pred) {
				if !p.HasLo || p.LoI != 2000 || p.LoOpen || !p.HasHi || p.HiI != 2100 || !p.HiOpen {
					t.Fatalf("pred = %+v", p)
				}
			},
		},
		{
			name: "equality", lambda: `(\s -> s == 3)`, ok: true,
			check: func(t *testing.T, p colstore.Pred) {
				if !p.HasLo || !p.HasHi || p.LoI != 3 || p.HiI != 3 || p.LoOpen || p.HiOpen {
					t.Fatalf("pred = %+v", p)
				}
			},
		},
		{
			name: "mirrored-const", lambda: `(\d -> 10 < d)`, ok: true,
			check: func(t *testing.T, p colstore.Pred) {
				if !p.HasLo || p.LoI != 10 || !p.LoOpen || p.HasHi {
					t.Fatalf("pred = %+v", p)
				}
			},
		},
		{
			name: "tightening", lambda: `(\d -> (d > 5) && (d > 9) && (d <= 100) && (d < 80))`, ok: true,
			check: func(t *testing.T, p colstore.Pred) {
				if p.LoI != 9 || !p.LoOpen || p.HiI != 80 || !p.HiOpen {
					t.Fatalf("pred = %+v", p)
				}
			},
		},
		{
			name: "float-range", lambda: `(\x -> (x >= 0.05) && (x <= 0.07))`, float: true, ok: true,
			check: func(t *testing.T, p colstore.Pred) {
				if !p.Float || p.LoF != 0.05 || p.HiF != 0.07 || p.LoOpen || p.HiOpen {
					t.Fatalf("pred = %+v", p)
				}
			},
		},
		// Shapes extraction must refuse.
		{name: "disjunction", lambda: `(\d -> (d < 3) || (d > 9))`},
		{name: "not-equal", lambda: `(\d -> d != 7)`},
		{name: "arithmetic", lambda: `(\d -> d + 1 < 10)`},
		{name: "two-vars", lambda: `(\d -> d < d)`},
		{name: "float-on-int", lambda: `(\d -> d < 2.5)`},
		{name: "no-comparison", lambda: `(\d -> d * 2)`},
		{name: "bitwise-and", lambda: `(\d -> d & 3)`},
		{name: "parse-error", lambda: `(\d -> d <`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fn, err := dsl.ParseLambda(tc.lambda)
			if err != nil {
				if tc.ok {
					t.Fatal(err)
				}
				return // a lambda that does not parse yields no predicate
			}
			p, ok := predFromLambda(fn, "c", tc.float)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v (pred %+v)", ok, tc.ok, p)
			}
			if tc.check != nil {
				tc.check(t, p)
			}
		})
	}
}

// writeColstore persists an in-RAM table as a small-segment colstore
// directory so a few thousand rows span many prunable segments.
func writeColstore(t *testing.T, dir string, tb *Table) error {
	t.Helper()
	return colstore.Write(dir, tb, colstore.WriteOptions{SegmentRows: 512})
}

// A scan leaf reached along two plan paths must never be pruned: the two
// consumers imply different predicates.
func TestSharedScanLeafNotPruned(t *testing.T) {
	dir := t.TempDir()
	tb := NewTable(NewSchema("k", I64, "v", I64))
	for i := 0; i < 4096; i++ {
		tb.AppendRow(I64Value(int64(i)), I64Value(int64(i%7)))
	}
	if err := writeColstore(t, dir, tb); err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.OpenTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	scan := Scan(st, "k", "v")
	probe := scan.Filter(`(\k -> k < 100)`, "k")
	build := scan.Filter(`(\k -> k >= 4000)`, "k")
	plan := probe.Join(build, "v", "v")
	b := &builder{s: sess, workers: 1}
	b.annotatePruning(plan)
	if got := b.storeFor(scan); got != TableSource(st) {
		t.Fatalf("shared scan leaf got pruned store %T", got)
	}
}
