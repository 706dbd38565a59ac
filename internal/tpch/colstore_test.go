package tpch

import (
	"context"
	"fmt"
	"os"
	"testing"

	"repro/advm"
)

// colstoreFixture generates the three TPC-H tables at sf, persists them as
// colstore directories, and returns both representations.
type colstoreFixture struct {
	li, ord, cust          *advm.Table
	liDir, ordDir, custDir string
}

func newColstoreFixture(t testing.TB, sf float64, seed int64) *colstoreFixture {
	t.Helper()
	root := os.Getenv("TPCH_DATA_DIR")
	if root == "" {
		root = t.TempDir()
	}
	fx := &colstoreFixture{}
	var err error
	for _, tb := range []struct {
		name string
		st   **advm.Table
		dir  *string
	}{
		{"lineitem", &fx.li, &fx.liDir},
		{"orders", &fx.ord, &fx.ordDir},
		{"customer", &fx.cust, &fx.custDir},
	} {
		if *tb.st, err = LoadOrGen(root, tb.name, sf, seed); err != nil {
			t.Fatal(err)
		}
		if *tb.dir, err = LoadOrGenColstore(root, tb.name, sf, seed); err != nil {
			t.Fatal(err)
		}
	}
	return fx
}

// renderRows drains a query into one string per row; %v renders float64 in
// shortest round-trip form, so distinct bits yield distinct strings and
// equal strings prove byte-identical results.
func renderRows(t testing.TB, sess *advm.Session, plan *advm.Plan) ([]string, int64) {
	t.Helper()
	rows, err := sess.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	ncols := len(rows.Columns())
	var out []string
	for rows.Next() {
		vals := make([]any, ncols)
		dests := make([]any, ncols)
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
	_, skipped := rows.ScanStats()
	return out, skipped
}

func sameRows(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d\n got %s\nwant %s", label, i, got[i], want[i])
		}
	}
}

// testColstoreQueries checks that Q1, Q3 and Q6 over colstore directories
// are byte-identical to the in-RAM generator path across worker counts and
// device policies, and that Q6's shipdate range scan prunes segments. The
// device policy is a deprecated no-op; its axis checks that no policy
// changes a row.
func testColstoreQueries(t *testing.T, sf float64, q16Pars, q3Pars []int) {
	fx := newColstoreFixture(t, sf, 42)
	q3p, q6p := DefaultQ3Params(), DefaultQ6Params()

	ref, err := advm.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	wantQ1, _ := renderRows(t, ref, PlanQ1(fx.li))
	wantQ3, _ := renderRows(t, ref, PlanQ3(fx.li, fx.ord, fx.cust, q3p))
	wantQ6, _ := renderRows(t, ref, PlanQ6(fx.li, q6p))
	if len(wantQ1) == 0 || len(wantQ3) == 0 || len(wantQ6) != 1 {
		t.Fatalf("degenerate references: %d, %d, %d rows", len(wantQ1), len(wantQ3), len(wantQ6))
	}

	devices := []advm.DeviceKind{advm.DeviceCPU, advm.DeviceGPU, advm.DeviceAuto}
	for _, par := range q16Pars {
		for _, dev := range devices {
			t.Run(fmt.Sprintf("par=%d/dev=%v", par, dev), func(t *testing.T) {
				sess, err := advm.NewSession(advm.WithParallelism(par), advm.WithDevicePolicy(dev))
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				li, err := sess.OpenTable(fx.liDir)
				if err != nil {
					t.Fatal(err)
				}
				gotQ6, skipped := renderRows(t, sess, PlanQ6(li, q6p))
				sameRows(t, "Q6", gotQ6, wantQ6)
				if skipped == 0 {
					t.Fatal("Q6 range scan skipped no segments")
				}
				gotQ1, _ := renderRows(t, sess, PlanQ1(li))
				sameRows(t, "Q1", gotQ1, wantQ1)
			})
		}
	}
	for _, par := range q3Pars {
		for _, dev := range devices {
			t.Run(fmt.Sprintf("q3/par=%d/dev=%v", par, dev), func(t *testing.T) {
				sess, err := advm.NewSession(advm.WithParallelism(par), advm.WithDevicePolicy(dev))
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				li, err := sess.OpenTable(fx.liDir)
				if err != nil {
					t.Fatal(err)
				}
				ord, err := sess.OpenTable(fx.ordDir)
				if err != nil {
					t.Fatal(err)
				}
				cust, err := sess.OpenTable(fx.custDir)
				if err != nil {
					t.Fatal(err)
				}
				gotQ3, _ := renderRows(t, sess, PlanQ3(li, ord, cust, q3p))
				sameRows(t, "Q3", gotQ3, wantQ3)
			})
		}
	}
}

// TestColstoreQueriesByteIdentical runs the full worker × device matrix at a
// bench-sized scale factor on every test invocation.
func TestColstoreQueriesByteIdentical(t *testing.T) {
	testColstoreQueries(t, 0.02, []int{1, 2, 3, 4, 5, 6, 7, 8}, []int{1, 2, 4, 8})
}

// TestColstoreSF1 is the full-scale acceptance run: SF 1 (6M lineitem rows)
// end-to-end from disk, byte-identical to the in-RAM path. The generator
// dominates its runtime, so it is skipped under -short; set TPCH_DATA_DIR to
// cache the generated tables across invocations.
func TestColstoreSF1(t *testing.T) {
	if testing.Short() {
		t.Skip("SF 1 acceptance run skipped with -short")
	}
	if raceEnabled {
		t.Skip("SF 1 matrix exceeds the race detector's time budget; " +
			"TestColstoreQueriesByteIdentical runs the same matrix at SF 0.02 under race")
	}
	testColstoreQueries(t, 1, []int{1, 2, 3, 4, 5, 6, 7, 8}, []int{1, 8})
}
