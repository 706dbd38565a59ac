package advm_test

import (
	"context"
	"fmt"
	"os"
	"testing"

	"repro/advm"
	"repro/internal/colstore"
)

// ExampleWithTableDir shows the disk-backed workflow: persist a table as a
// compressed colstore directory, open it by name through a session rooted at
// the directory, and query it with segment-skipping scans.
func ExampleWithTableDir() {
	root, _ := os.MkdirTemp("", "advm-tables")
	defer os.RemoveAll(root)

	items := advm.NewTable(advm.NewSchema("id", advm.I64, "price", advm.F64))
	for i := 0; i < 10000; i++ {
		items.AppendRow(advm.I64Value(int64(i)), advm.F64Value(float64(i)/100))
	}
	if err := colstore.Write(root+"/items", items, colstore.WriteOptions{SegmentRows: 1024}); err != nil {
		panic(err)
	}

	sess, _ := advm.NewSession(advm.WithTableDir(root))
	defer sess.Close()
	stored, _ := sess.OpenTable("items")
	rows, _ := sess.Query(context.Background(),
		advm.Scan(stored, "id", "price").
			Filter(`(\id -> (id >= 2000) && (id < 2003))`, "id"))
	for rows.Next() {
		var id int64
		var price float64
		rows.Scan(&id, &price)
		fmt.Println(id, price)
	}
	scanned, skipped := rows.ScanStats()
	fmt.Println("segments scanned:", scanned, "skipped:", skipped)
	// Output:
	// 2000 20
	// 2001 20.01
	// 2002 20.02
	// segments scanned: 1 skipped: 9
}

// buildClusteredTable makes a lineitem-shaped table whose d column ascends
// (so zone maps are tight) with f64 and str payload columns.
func buildClusteredTable(rows int) *advm.Table {
	tb := advm.NewTable(advm.NewSchema("d", advm.I64, "x", advm.F64, "tag", advm.Str))
	tags := []string{"A", "B", "C"}
	for i := 0; i < rows; i++ {
		tb.AppendRow(
			advm.I64Value(int64(i/4)), // ascending, duplicated: RLE/dict friendly
			advm.F64Value(float64(i%97)/7),
			advm.StrValue(tags[i%len(tags)]),
		)
	}
	return tb
}

// drainAll renders every result row; string form is enough to prove
// byte-identity because floats render with full precision via %v.
func drainAll(t *testing.T, sess *advm.Session, plan *advm.Plan) ([]string, *advm.Rows) {
	t.Helper()
	rows, err := sess.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := len(rows.Columns())
	var out []string
	for rows.Next() {
		vals := make([]any, n)
		dests := make([]any, n)
		for i := range vals {
			dests[i] = &vals[i]
		}
		if err := rows.Scan(dests...); err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%v", vals))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out, rows
}

// TestStoredTableByteIdentical: the same plan over the colstore-backed table
// must produce exactly the rows of the in-RAM table, at every parallelism
// and device policy, with and without pruning — and the pruned runs must
// actually skip segments on the range filter. The device policy is a
// deprecated no-op; its axis checks that no policy changes a row.
func TestStoredTableByteIdentical(t *testing.T) {
	const rows = 24 * 1024
	tb := buildClusteredTable(rows)
	dir := t.TempDir()
	if err := colstore.Write(dir, tb, colstore.WriteOptions{SegmentRows: 1024}); err != nil {
		t.Fatal(err)
	}

	mkPlan := func(src advm.TableSource) *advm.Plan {
		// Q6-style: range filter on the clustered column plus a float band,
		// then an arithmetic compute.
		return advm.Scan(src, "d", "x", "tag").
			Filter(`(\d -> (d >= 1000) && (d < 1500))`, "d").
			Filter(`(\x -> x <= 9.0)`, "x").
			Compute("x2", `(\x -> x * 2.0)`, advm.F64, "x")
	}

	ref, err := advm.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, _ := drainAll(t, ref, mkPlan(tb))
	if len(want) == 0 {
		t.Fatal("reference query returned no rows")
	}

	for _, par := range []int{1, 2, 4, 8} {
		for _, dev := range []advm.DeviceKind{advm.DeviceCPU, advm.DeviceGPU, advm.DeviceAuto} {
			for _, pruning := range []bool{true, false} {
				name := fmt.Sprintf("par=%d/dev=%v/pruning=%v", par, dev, pruning)
				t.Run(name, func(t *testing.T) {
					sess, err := advm.NewSession(
						advm.WithParallelism(par),
						advm.WithDevicePolicy(dev),
						advm.WithScanPruning(pruning),
					)
					if err != nil {
						t.Fatal(err)
					}
					defer sess.Close()
					st, err := sess.OpenTable(dir)
					if err != nil {
						t.Fatal(err)
					}
					got, rws := drainAll(t, sess, mkPlan(st))
					if len(got) != len(want) {
						t.Fatalf("rows = %d, want %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("row %d = %s, want %s", i, got[i], want[i])
						}
					}
					scanned, skipped := rws.ScanStats()
					if pruning {
						// Rows 4000..5999 of 24576 survive; with 1024-row
						// segments most of the table is provably out of range.
						if skipped == 0 {
							t.Fatalf("pruning on but no segments skipped (scanned %d)", scanned)
						}
					} else if skipped != 0 || scanned != 0 {
						t.Fatalf("pruning off but counters = %d scanned, %d skipped", scanned, skipped)
					}
					if pruning {
						if st := sess.Stats(); st.SegmentsSkipped == 0 {
							t.Fatal("session stats did not absorb skipped segments")
						}
					}
				})
			}
		}
	}
}

// TestStoredTableAggregatePruned covers the morsel-parallel aggregation path
// (NewParallelAgg over the pruned store) and the serial fallback.
func TestStoredTableAggregatePruned(t *testing.T) {
	const rows = 16 * 1024
	tb := buildClusteredTable(rows)
	dir := t.TempDir()
	if err := colstore.Write(dir, tb, colstore.WriteOptions{SegmentRows: 512}); err != nil {
		t.Fatal(err)
	}
	plan := func(src advm.TableSource) *advm.Plan {
		return advm.Scan(src, "d", "x", "tag").
			Filter(`(\d -> d < 800)`, "d").
			Aggregate([]string{"tag"},
				advm.Agg{Func: advm.AggSum, Col: "x", As: "sum_x"},
				advm.Agg{Func: advm.AggCount, Col: "d", As: "n"},
			)
	}
	ref, err := advm.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, _ := drainAll(t, ref, plan(tb))

	for _, par := range []int{1, 6} {
		sess, err := advm.NewSession(advm.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		st, err := sess.OpenTable(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, rws := drainAll(t, sess, plan(st))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("par %d: %v, want %v", par, got, want)
		}
		if _, skipped := rws.ScanStats(); skipped == 0 {
			t.Fatalf("par %d: aggregation scan skipped nothing", par)
		}
		sess.Close()
	}
}

// TestOpenTableResolution: WithTableDir roots the name, the engine caches by
// directory, and Engine.Close releases the tables.
func TestOpenTableResolution(t *testing.T) {
	root := t.TempDir()
	tb := buildClusteredTable(256)
	if err := colstore.Write(root+"/items", tb, colstore.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	eng, err := advm.NewEngine(advm.WithTableDir(root))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.Session()
	if err != nil {
		t.Fatal(err)
	}
	st1, err := sess.OpenTable("items")
	if err != nil {
		t.Fatal(err)
	}
	st2, err := eng.OpenTable(root + "/items")
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatal("catalog did not share the open table")
	}
	if st1.Rows() != 256 {
		t.Fatalf("rows = %d", st1.Rows())
	}
	if _, err := sess.OpenTable("missing"); err == nil {
		t.Fatal("opening a missing table succeeded")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.OpenTable(root + "/items"); err == nil {
		t.Fatal("OpenTable on closed engine succeeded")
	}
}
