package qtrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in   string
		want Level
		ok   bool
	}{
		{"", LevelOff, true},
		{"off", LevelOff, true},
		{"ops", LevelOps, true},
		{"morsels", LevelMorsels, true},
		{"bogus", LevelOff, false},
	}
	for _, c := range cases {
		got, err := ParseLevel(c.in)
		if c.ok && err != nil {
			t.Errorf("ParseLevel(%q): unexpected error %v", c.in, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseLevel(%q): want error", c.in)
		}
		if c.ok && got != c.want {
			t.Errorf("ParseLevel(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLevelAndKindStrings(t *testing.T) {
	if LevelOff.String() != "off" || LevelOps.String() != "ops" || LevelMorsels.String() != "morsels" {
		t.Errorf("level strings: %q %q %q", LevelOff, LevelOps, LevelMorsels)
	}
	if KindQuery.String() != "query" || KindOp.String() != "op" ||
		KindMorsel.String() != "morsel" || KindEvent.String() != "event" {
		t.Errorf("kind strings: %q %q %q %q", KindQuery, KindOp, KindMorsel, KindEvent)
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	if tr != New(LevelOff) {
		t.Fatal("New(LevelOff) must return nil")
	}
	if tr.Enabled() || tr.Morsels() {
		t.Fatal("nil trace must report disabled")
	}
	root := tr.Root("q")
	if root != nil {
		t.Fatal("nil trace must produce nil spans")
	}
	// Every span method must be a no-op on nil.
	sp := root.Child(KindOp, "x")
	sp.AddTime(time.Second)
	sp.AddRows(1)
	sp.AddLoop()
	sp.SetWorker(3)
	sp.SetAttr("k", 1)
	sp.End()
	if sp.DurNs() != 0 || sp.BusyNs() != 0 || sp.Rows() != 0 || sp.Loops() != 0 ||
		sp.Worker() != -1 || sp.Attrs() != nil || sp.Attr("k") != nil {
		t.Fatal("nil span accessors must return zero values")
	}
	tr.Event(root, "e")
	tr.Finish()
	if got := tr.ExplainAnalyze(); !strings.Contains(got, "disabled") {
		t.Fatalf("nil ExplainAnalyze = %q", got)
	}
	if tr.Spans() != nil || tr.Tree() != nil {
		t.Fatal("nil trace must have no spans")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatalf("nil WriteChromeJSON: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil chrome JSON invalid: %v", err)
	}
}

// TestNilHooksAllocateNothing pins the disabled-tracing contract: with
// tracing off the engine holds a nil *Trace and nil *Spans, and every hook
// it calls on them must cost a nil check and no allocation. The exceptions
// are SetAttr and Event with attrs: their arguments are boxed into an any at
// the call site, before the nil check runs, so their callers guard them
// with a nil check of their own (see their godoc).
func TestNilHooksAllocateNothing(t *testing.T) {
	var tr *Trace
	var sp *Span
	hooks := []struct {
		name string
		fn   func()
	}{
		{"Trace.Root", func() { _ = tr.Root("q") }},
		{"Span.Child", func() { _ = sp.Child(KindOp, "x") }},
		{"Trace.Event", func() { tr.Event(sp, "e") }},
		{"Span.End", func() { sp.End() }},
		{"Trace.Finish", func() { tr.Finish() }},
		{"Span.AddTime", func() { sp.AddTime(time.Millisecond) }},
		{"Span.AddRows", func() { sp.AddRows(7) }},
		{"Span.AddLoop", func() { sp.AddLoop() }},
		{"Span.SetWorker", func() { sp.SetWorker(3) }},
		{"Trace.Now", func() { _ = tr.Now() }},
		{"Trace.Level", func() { _ = tr.Level() }},
		{"Trace.Morsels", func() { _ = tr.Morsels() }},
		{"Trace.Enabled", func() { _ = tr.Enabled() }},
		{"Trace.Spans", func() { _ = tr.Spans() }},
		{"Trace.Tree", func() { _ = tr.Tree() }},
		{"Trace.OpSelfTimes", func() { _ = tr.OpSelfTimes() }},
		{"Trace.ExplainAnalyze", func() { _ = tr.ExplainAnalyze() }},
		{"Span accessors", func() {
			_, _, _, _ = sp.ID(), sp.Parent(), sp.Kind(), sp.Name()
			_, _, _, _ = sp.StartNs(), sp.EndNs(), sp.DurNs(), sp.BusyNs()
			_, _, _ = sp.Rows(), sp.Loops(), sp.Worker()
			_, _ = sp.Attrs(), sp.Attr("k")
		}},
	}
	for _, h := range hooks {
		if n := testing.AllocsPerRun(100, h.fn); n != 0 {
			t.Errorf("%s on a nil receiver allocates %v times per call, want 0", h.name, n)
		}
	}
}

// buildSample constructs a small two-level trace with morsel leaves and an
// event, exercising the accumulation API the engine hooks use.
func buildSample(level Level) *Trace {
	tr := New(level)
	root := tr.Root("query")
	root.SetAttr("workers", 2)
	op := root.Child(KindOp, "filter")
	op.SetAttr("col", "a")
	op.AddTime(3 * time.Millisecond)
	op.AddRows(100)
	op.AddLoop()
	child := op.Child(KindOp, "scan")
	child.AddTime(1 * time.Millisecond)
	child.AddRows(200)
	child.AddLoop()
	child.End()
	for seq := 1; seq >= 0; seq-- { // out of order: rendering must sort by seq
		m := op.Child(KindMorsel, "morsel")
		m.SetWorker(seq)
		m.SetAttr("seq", seq)
		m.SetAttr("rows_in", 50)
		if seq == 1 {
			m.SetAttr("stolen", true)
		}
		m.AddRows(25)
		m.End()
	}
	tr.Event(root, "deopt")
	op.End()
	root.End()
	tr.Finish()
	return tr
}

func TestSpanTreeAndSelfTimes(t *testing.T) {
	tr := buildSample(LevelMorsels)
	if !tr.Enabled() || !tr.Morsels() || tr.Level() != LevelMorsels {
		t.Fatal("trace must be enabled at morsels level")
	}
	spans := tr.Spans()
	if len(spans) != 6 { // root, filter, scan, 2 morsels, event
		t.Fatalf("got %d spans, want 6", len(spans))
	}
	self := tr.OpSelfTimes()
	// filter self = 3ms − 1ms (scan child busy); morsels don't subtract.
	if got := self["filter"]; got != int64(2*time.Millisecond) {
		t.Errorf("filter self = %d, want 2ms", got)
	}
	if got := self["scan"]; got != int64(1*time.Millisecond) {
		t.Errorf("scan self = %d, want 1ms", got)
	}
}

func TestSelfTimeClampsNegative(t *testing.T) {
	tr := New(LevelOps)
	root := tr.Root("query")
	op := root.Child(KindOp, "agg")
	op.AddTime(1 * time.Millisecond)
	// Parallel children can accumulate more busy time than the parent.
	c := op.Child(KindOp, "stage")
	c.AddTime(5 * time.Millisecond)
	tr.Finish()
	if got := tr.OpSelfTimes()["agg"]; got != 0 {
		t.Errorf("agg self = %d, want clamp to 0", got)
	}
}

// TestSelfTimeLooksThroughFoldedStages: a fused segment's time lands on its
// top span, and the stages folded into it report none. The top span's self
// time excludes the scan below them, which reports its own.
func TestSelfTimeLooksThroughFoldedStages(t *testing.T) {
	tr := New(LevelOps)
	root := tr.Root("query")
	compute := root.Child(KindOp, "compute")
	compute.AddTime(10 * time.Millisecond)
	filter := compute.Child(KindOp, "filter")
	scan := filter.Child(KindOp, "scan")
	scan.AddTime(2 * time.Millisecond)
	tr.Finish()
	self := tr.OpSelfTimes()
	want := map[string]int64{"compute": int64(8 * time.Millisecond), "filter": 0, "scan": int64(2 * time.Millisecond)}
	for name, ns := range want {
		if self[name] != ns {
			t.Errorf("%s self = %d, want %d", name, self[name], ns)
		}
	}
}

func TestSetAttrReplaces(t *testing.T) {
	tr := New(LevelOps)
	sp := tr.Root("q")
	sp.SetAttr("k", 1)
	sp.SetAttr("k", 2)
	if len(sp.Attrs()) != 1 || sp.Attr("k") != 2 {
		t.Fatalf("attrs = %v", sp.Attrs())
	}
}

func TestExplainAnalyzeRendering(t *testing.T) {
	out := buildSample(LevelMorsels).ExplainAnalyze()
	for _, want := range []string{
		"query (wall=",
		"workers=2",
		"->  filter (actual=3.00ms self=2.00ms rows=100 loops=1, col=a)",
		"morsels: 2 w0=1 w1=1 stolen=1",
		"->  scan (actual=1.00ms self=1.00ms rows=200 loops=1)",
		"[event: deopt]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\"morsel\"") || strings.Count(out, "morsel\n") > 0 {
		t.Errorf("morsel leaves must be summarized, not listed:\n%s", out)
	}
}

func TestFmtNs(t *testing.T) {
	cases := map[int64]string{
		500:         "500ns",
		1500:        "1.5µs",
		2_500_000:   "2.50ms",
		1_000_0000:  "10.00ms",
		3_000000000: "3000.00ms",
	}
	for ns, want := range cases {
		if got := fmtNs(ns); got != want {
			t.Errorf("fmtNs(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestChromeJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := buildSample(LevelMorsels).WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var complete, instant, meta int
	threads := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X":
			complete++
			if _, ok := ev["dur"]; !ok {
				t.Errorf("complete event missing dur: %v", ev)
			}
			tid, _ := ev["tid"].(float64)
			threads[tid] = true
		case "i":
			instant++
			if ev["s"] != "p" {
				t.Errorf("instant event missing process scope: %v", ev)
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q", ph)
		}
		if _, ok := ev["name"].(string); !ok {
			t.Errorf("event missing name: %v", ev)
		}
		if ts, ok := ev["ts"].(float64); ok && ts < 0 {
			t.Errorf("negative ts: %v", ev)
		}
	}
	if complete != 5 { // root, filter, scan, 2 morsels
		t.Errorf("complete events = %d, want 5", complete)
	}
	if instant != 1 {
		t.Errorf("instant events = %d, want 1", instant)
	}
	if meta == 0 {
		t.Error("no metadata events (process/thread names)")
	}
	// Morsel spans land on per-worker threads (tid = worker+1), operator
	// spans on tid 0.
	if !threads[0] || !threads[1] || !threads[2] {
		t.Errorf("thread ids = %v, want {0,1,2}", threads)
	}
}

func TestTreeJSON(t *testing.T) {
	tree := buildSample(LevelMorsels).Tree()
	if tree == nil || tree.Name != "query" || tree.Kind != "query" {
		t.Fatalf("tree root = %+v", tree)
	}
	if len(tree.Children) != 2 { // filter + event
		t.Fatalf("root children = %d, want 2", len(tree.Children))
	}
	var filter *SpanJSON
	for _, c := range tree.Children {
		if c.Name == "filter" {
			filter = c
		}
	}
	if filter == nil {
		t.Fatal("no filter child")
	}
	if filter.SelfNs != int64(2*time.Millisecond) {
		t.Errorf("filter self = %d", filter.SelfNs)
	}
	var morsels int
	for _, c := range filter.Children {
		if c.Kind == "morsel" {
			morsels++
			if c.Worker == nil {
				t.Error("morsel leaf missing worker")
			}
		}
	}
	if morsels != 2 {
		t.Errorf("morsel leaves = %d, want 2", morsels)
	}
	raw, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"self_ns"`)) || !bytes.Contains(raw, []byte(`"busy_ns"`)) {
		t.Errorf("tree JSON missing expected fields: %s", raw)
	}
}

func TestFinishEndsOpenSpans(t *testing.T) {
	tr := New(LevelOps)
	root := tr.Root("q")
	op := root.Child(KindOp, "x")
	tr.Finish()
	if op.EndNs() < op.StartNs() || root.EndNs() < root.StartNs() {
		t.Fatal("Finish must end open spans")
	}
}

func TestOpsLevelRecordsNoMorsels(t *testing.T) {
	tr := New(LevelOps)
	if tr.Morsels() {
		t.Fatal("ops level must not record morsels")
	}
}

func TestHistogram(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(time.Second) // must not panic
	snap := nilH.Snapshot()
	if snap.Count != 0 || len(snap.Counts) != len(DurationBounds)+1 {
		t.Fatalf("nil snapshot = %+v", snap)
	}

	h := NewHistogram()
	h.Observe(50 * time.Microsecond)  // ≤ 0.0001
	h.Observe(300 * time.Microsecond) // ≤ 0.0005
	h.Observe(2 * time.Second)        // ≤ 2.5
	h.Observe(time.Hour)              // +Inf
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Counts[0] != 1 {
		t.Errorf("bucket 0 = %d, want 1", s.Counts[0])
	}
	if s.Counts[2] != 1 {
		t.Errorf("bucket ≤0.0005 = %d, want 1", s.Counts[2])
	}
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Errorf("+Inf bucket = %d, want 1", s.Counts[len(s.Counts)-1])
	}
	wantSum := (50*time.Microsecond + 300*time.Microsecond + 2*time.Second + time.Hour).Seconds()
	if diff := s.Sum - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
	var cum int64
	for _, c := range s.Counts {
		cum += c
	}
	if cum != s.Count {
		t.Errorf("bucket counts %v don't sum to %d", s.Counts, s.Count)
	}
}
