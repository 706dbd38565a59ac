package advm_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/advm"
)

// chunkLoopSrc processes the whole input chunk-at-a-time — the canonical
// shape of a data-parallel program on the VM.
const chunkLoopSrc = `
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

var chunkLoopKinds = map[string]advm.Kind{"data": advm.I64, "out": advm.I64}

func chunkLoopBindings(n int) (map[string]*advm.Vector, []int64) {
	data := make([]int64, n)
	want := make([]int64, n)
	for i := range data {
		data[i] = int64(i%1000 - 500)
		want[i] = (data[i]*3 + 7) * (data[i] - 1)
	}
	return map[string]*advm.Vector{
		"data": advm.FromI64(data),
		"out":  advm.NewVector(advm.I64, 0, n),
	}, want
}

func TestSessionRunCompilesHotLoop(t *testing.T) {
	sess := advm.MustCompile(chunkLoopSrc, chunkLoopKinds,
		// Micro-adaptive revert off: on a loaded host the heuristic can
		// deoptimize the traces this test asserts are injected.
		advm.WithMicroAdaptive(false),
		advm.WithHotThresholds(2, time.Hour),
	)
	for run := 0; run < 3; run++ {
		ext, want := chunkLoopBindings(1 << 15)
		if err := sess.Run(t.Context(), ext); err != nil {
			t.Fatal(err)
		}
		got := ext["out"].I64()
		if len(got) != len(want) {
			t.Fatalf("run %d: out len=%d want %d", run, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: out[%d]=%d want %d", run, i, got[i], want[i])
			}
		}
	}
	st := sess.Stats()
	if st.Runs != 3 {
		t.Fatalf("Runs=%d want 3", st.Runs)
	}
	if len(st.CompiledSegments) == 0 {
		t.Fatalf("hot loop was not compiled; transitions: %+v", st.Transitions)
	}
	if st.InjectedTraces == 0 {
		t.Fatal("stats report no injected traces")
	}
	if st.Kernels == 0 {
		t.Fatal("no pre-compiled kernels reported")
	}
	var calls int64
	for _, in := range st.Instructions {
		calls += in.Calls
	}
	if calls == 0 {
		t.Fatal("per-instruction profile is empty")
	}
	// The Figure-1 cycle must appear in order in the transition log.
	want := []string{"Optimize", "GenerateCode", "InjectFunctions", "Interpret"}
	j := 0
	for _, tr := range st.Transitions {
		if j < len(want) && tr.To == want[j] {
			j++
		}
	}
	if j != len(want) {
		t.Fatalf("transition log misses the Figure-1 cycle: %+v", st.Transitions)
	}
	if !strings.Contains(sess.PlanReport(), "trace") {
		t.Fatalf("plan report shows no injected trace:\n%s", sess.PlanReport())
	}
}

// TestShiftsInterpretedAndTraced: x << 3 over [10] is [80] and x >> 2 over
// [1000] is [250] whether the program is interpreted or runs through the
// injected traces, whose templates call the same shift kernels.
func TestShiftsInterpretedAndTraced(t *testing.T) {
	const src = `
let xs = read 0 a 1
let ys = read 0 b 1
write shl 0 (map (\x -> x << 3) xs)
write shr 0 (map (\y -> y >> 2) ys)
`
	kinds := map[string]advm.Kind{"a": advm.I64, "b": advm.I64, "shl": advm.I64, "shr": advm.I64}
	sess := advm.MustCompile(src, kinds,
		advm.WithMicroAdaptive(false),
		advm.WithHotThresholds(1, 0))
	traced := false
	for run := 0; run < 10 && !traced; run++ {
		traced = len(sess.Stats().CompiledSegments) > 0
		shl, shr := advm.NewVector(advm.I64, 0, 1), advm.NewVector(advm.I64, 0, 1)
		if err := sess.Run(t.Context(), map[string]*advm.Vector{
			"a": advm.FromI64([]int64{10}), "b": advm.FromI64([]int64{1000}), "shl": shl, "shr": shr,
		}); err != nil {
			t.Fatal(err)
		}
		if shl.Len() != 1 || shl.I64()[0] != 80 || shr.Len() != 1 || shr.I64()[0] != 250 {
			t.Fatalf("run %d (traced=%v): 10 << 3 = %v, 1000 >> 2 = %v; want [80], [250]", run, traced, shl, shr)
		}
	}
	if !traced {
		t.Fatalf("no run went through an injected trace: %+v", sess.Stats().Transitions)
	}
	if st := sess.Stats(); st.GuardFailures != 0 {
		t.Fatalf("%d guard failures: the traced runs fell back to the interpreter", st.GuardFailures)
	}
}

func TestSessionRunConcurrent(t *testing.T) {
	sess := advm.MustCompile(chunkLoopSrc, chunkLoopKinds,
		advm.WithHotThresholds(4, 0),
	)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := 0; run < 4; run++ {
				ext, want := chunkLoopBindings(1 << 13)
				if err := sess.Run(context.Background(), ext); err != nil {
					errs <- err
					return
				}
				got := ext["out"].I64()
				for i := range want {
					if got[i] != want[i] {
						errs <- errors.New("concurrent run corrupted output")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := sess.Stats().Runs; got != 32 {
		t.Fatalf("Runs=%d want 32", got)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	if _, err := advm.Compile("map (\\x ->", nil); !errors.Is(err, advm.ErrCompile) {
		t.Fatalf("parse failure not ErrCompile: %v", err)
	}

	sess := advm.MustCompile(chunkLoopSrc, chunkLoopKinds)
	err := sess.Run(context.Background(), map[string]*advm.Vector{"data": advm.FromI64([]int64{1})})
	if !errors.Is(err, advm.ErrBind) {
		t.Fatalf("missing binding not ErrBind: %v", err)
	}
	err = sess.Run(context.Background(), map[string]*advm.Vector{
		"data": advm.FromF64([]float64{1}), "out": advm.NewVector(advm.I64, 0, 0),
	})
	if !errors.Is(err, advm.ErrBind) {
		t.Fatalf("wrongly-typed binding not ErrBind: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ext, _ := chunkLoopBindings(1 << 12)
	err = sess.Run(ctx, ext)
	if !errors.Is(err, advm.ErrCancelled) {
		t.Fatalf("cancelled run not ErrCancelled: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run does not wrap context.Canceled: %v", err)
	}

	// Query classification: unknown column is a bind error, a broken lambda
	// a compile error.
	q, err := advm.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	table := advm.NewTable(advm.NewSchema("k", advm.I64))
	table.AppendRow(advm.I64Value(1))
	if _, err := q.Query(context.Background(), advm.Scan(table, "nope")); !errors.Is(err, advm.ErrBind) {
		t.Fatalf("unknown scan column not ErrBind: %v", err)
	}
	if _, err := q.Query(context.Background(), advm.Scan(table).Filter(`(\k ->`, "k")); !errors.Is(err, advm.ErrCompile) {
		t.Fatalf("broken lambda not ErrCompile: %v", err)
	}
	if err := q.Run(context.Background(), nil); !errors.Is(err, advm.ErrBind) {
		t.Fatalf("Run without a program not ErrBind: %v", err)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := advm.NewSession(advm.WithChunkLen(0)); err == nil {
		t.Fatal("chunk length 0 accepted")
	}
	if _, err := advm.NewSession(advm.WithDevicePolicy(advm.DeviceKind(99))); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func queryTable(n int) *advm.Table {
	table := advm.NewTable(advm.NewSchema("k", advm.I64, "v", advm.I64))
	for i := 0; i < n; i++ {
		table.AppendRow(advm.I64Value(int64(i%100)), advm.I64Value(int64(i)))
	}
	return table
}

func TestQueryStreamsIncrementally(t *testing.T) {
	sess, err := advm.NewSession(advm.WithChunkLen(256))
	if err != nil {
		t.Fatal(err)
	}
	table := queryTable(10_000)
	plan := advm.Scan(table, "k", "v").
		Filter(`(\k -> k < 10)`, "k").
		Compute("v2", `(\v -> v * v)`, advm.I64, "v")
	rows, err := sess.Query(t.Context(), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols := rows.Columns()
	if len(cols) != 3 || cols[0] != "k" || cols[1] != "v" || cols[2] != "v2" {
		t.Fatalf("columns = %v", cols)
	}
	count := 0
	for rows.Next() {
		var k, v, v2 int64
		if err := rows.Scan(&k, &v, &v2); err != nil {
			t.Fatal(err)
		}
		if k >= 10 {
			t.Fatalf("row with k=%d passed the filter", k)
		}
		if v2 != v*v {
			t.Fatalf("v2=%d for v=%d", v2, v)
		}
		count++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 1000 {
		t.Fatalf("streamed %d rows, want 1000", count)
	}
	if got := sess.Stats().Queries; got != 1 {
		t.Fatalf("Queries=%d want 1", got)
	}
}

func TestQueryAggregateAndJoin(t *testing.T) {
	sess, err := advm.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	fact := queryTable(5000)
	dim := advm.NewTable(advm.NewSchema("id", advm.I64, "name", advm.Str))
	for i := 0; i < 10; i++ {
		dim.AppendRow(advm.I64Value(int64(i)), advm.StrValue(string(rune('a'+i))))
	}
	plan := advm.Scan(fact, "k", "v").
		Join(advm.Scan(dim, "id", "name"), "k", "id", "name").
		Aggregate([]string{"name"}, advm.Agg{Func: advm.AggCount, As: "n"}, advm.Agg{Func: advm.AggSum, Col: "v", As: "sv"})
	rows, err := sess.Query(t.Context(), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	groups := 0
	var total int64
	for rows.Next() {
		var name string
		var n, sv int64
		if err := rows.Scan(&name, &n, &sv); err != nil {
			t.Fatal(err)
		}
		if n != 50 { // 5000 rows, k = i%100, 10 dim keys → 50 rows per key
			t.Fatalf("group %q count %d want 50", name, n)
		}
		groups++
		total += sv
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if groups != 10 {
		t.Fatalf("groups=%d want 10", groups)
	}
	var want int64
	for i := 0; i < 5000; i++ {
		if i%100 < 10 {
			want += int64(i)
		}
	}
	if total != want {
		t.Fatalf("sum=%d want %d", total, want)
	}
}

func TestQueryScanDestinations(t *testing.T) {
	sess, err := advm.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	table := advm.NewTable(advm.NewSchema("i", advm.I64, "f", advm.F64, "s", advm.Str, "b", advm.Bool))
	table.AppendRow(advm.I64Value(7), advm.F64Value(2.5), advm.StrValue("x"), advm.BoolValue(true))
	rows, err := sess.Query(t.Context(), advm.Scan(table))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal(rows.Err())
	}
	var i int64
	var f float64
	var s string
	var b bool
	if err := rows.Scan(&i, &f, &s, &b); err != nil {
		t.Fatal(err)
	}
	if i != 7 || f != 2.5 || s != "x" || !b {
		t.Fatalf("scanned %v %v %v %v", i, f, s, b)
	}
	var anyI, anyS any
	var asF float64
	if err := rows.Scan(&anyI, &asF, &anyS, nil); err != nil {
		t.Fatal(err)
	}
	if anyI.(int64) != 7 || asF != 2.5 || anyS.(string) != "x" {
		t.Fatalf("generic scan got %v %v %v", anyI, asF, anyS)
	}
	if err := rows.Scan(&s, &f, &s, &b); err == nil {
		t.Fatal("kind mismatch not reported")
	}
	if err := rows.Scan(&i); err == nil {
		t.Fatal("arity mismatch not reported")
	}
}

// TestDevicePolicyIsInert: the deprecated WithDevicePolicy accepts every
// policy and changes nothing — a parallel aggregation returns the CPU
// session's bytes and no morsel placement is counted.
func TestDevicePolicyIsInert(t *testing.T) {
	table := queryTable(50_000)
	plan := advm.Scan(table, "k", "v").
		Filter(`(\k -> k < 50)`, "k").
		Aggregate([]string{"k"}, advm.Agg{Func: advm.AggSum, Col: "v", As: "s"})
	var want []string
	for _, policy := range []advm.DeviceKind{advm.DeviceCPU, advm.DeviceGPU, advm.DeviceAuto} {
		sess, err := advm.NewSession(advm.WithParallelism(4), advm.WithMorselLen(4096), advm.WithDevicePolicy(policy))
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		got, _ := drainAll(t, sess, plan)
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("%v: %d rows differ from the cpu policy's %d", policy, len(got), len(want))
		}
		if st := sess.Stats(); st.MorselPlacements != nil {
			t.Fatalf("%v: morsel placements %v, want nil", policy, st.MorselPlacements)
		}
		sess.Close()
	}
}

func TestWithJITFalseOrderIndependent(t *testing.T) {
	// WithJIT(false) must win regardless of where it appears relative to
	// WithHotThresholds.
	for _, opts := range [][]advm.Option{
		{advm.WithJIT(false), advm.WithHotThresholds(1, time.Nanosecond)},
		{advm.WithHotThresholds(1, time.Nanosecond), advm.WithJIT(false)},
	} {
		sess := advm.MustCompile(chunkLoopSrc, chunkLoopKinds, opts...)
		for run := 0; run < 3; run++ {
			ext, _ := chunkLoopBindings(1 << 14)
			if err := sess.Run(context.Background(), ext); err != nil {
				t.Fatal(err)
			}
		}
		if st := sess.Stats(); len(st.CompiledSegments) != 0 || st.InjectedTraces != 0 {
			t.Fatalf("JIT-disabled session compiled anyway: %+v", st)
		}
	}
}

func TestDeviceKindString(t *testing.T) {
	for want, d := range map[string]advm.DeviceKind{
		"cpu": advm.DeviceCPU, "gpu": advm.DeviceGPU, "auto": advm.DeviceAuto,
		"DeviceKind(-1)": advm.DeviceKind(-1), "DeviceKind(99)": advm.DeviceKind(99),
	} {
		if got := d.String(); got != want {
			t.Errorf("String(%d) = %q want %q", int(d), got, want)
		}
	}
}

func TestRowsCount(t *testing.T) {
	sess, err := advm.NewSession(advm.WithChunkLen(128))
	if err != nil {
		t.Fatal(err)
	}
	table := queryTable(10_000)
	plan := advm.Scan(table, "k", "v").Filter(`(\k -> k < 10)`, "k")

	// Fresh cursor: Count is the total cardinality.
	rows, err := sess.Query(t.Context(), plan)
	if err != nil {
		t.Fatal(err)
	}
	n, err := rows.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("Count=%d want 1000", n)
	}
	if rows.Next() {
		t.Fatal("Next after Count should be false")
	}

	// Partially consumed cursor: Count returns the remainder.
	rows2, err := sess.Query(t.Context(), plan)
	if err != nil {
		t.Fatal(err)
	}
	consumed := int64(0)
	for i := 0; i < 7 && rows2.Next(); i++ {
		consumed++
	}
	rest, err := rows2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if consumed+rest != 1000 {
		t.Fatalf("consumed %d + rest %d != 1000", consumed, rest)
	}
}
