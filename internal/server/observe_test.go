package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/qtrace"
)

func TestMetricNameValidation(t *testing.T) {
	valid := []string{"advm_pool_capacity", "a", "_hidden", "ns:sub:name", "x2", "A_B"}
	for _, s := range valid {
		if !validMetricName(s) {
			t.Errorf("validMetricName(%q) = false, want true", s)
		}
		if got := sanitizeMetricName(s); got != s {
			t.Errorf("sanitizeMetricName(%q) = %q, want unchanged", s, got)
		}
	}
	invalid := map[string]string{
		"":           "_",
		"2fast":      "_2fast",
		"has space":  "has_space",
		"dash-name":  "dash_name",
		"dot.metric": "dot_metric",
		"utf8✓":      "utf8___", // three UTF-8 bytes, each sanitized
	}
	for s, want := range invalid {
		if validMetricName(s) {
			t.Errorf("validMetricName(%q) = true, want false", s)
		}
		got := sanitizeMetricName(s)
		if got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", s, got, want)
		}
		if !validMetricName(got) {
			t.Errorf("sanitizeMetricName(%q) = %q, still invalid", s, got)
		}
	}
}

func TestLabelValueEscaping(t *testing.T) {
	cases := map[string]string{
		"plain":        "plain",
		`back\slash`:   `back\\slash`,
		`quo"te`:       `quo\"te`,
		"new\nline":    `new\nline`,
		"\\\"\n":       `\\\"\n`,
		"unicode ✓ ok": "unicode ✓ ok",
	}
	for in, want := range cases {
		if got := escapeLabelValue(in); got != want {
			t.Errorf("escapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
}

// parseExposition is a strict parser for the Prometheus text format subset
// the server emits. It fails the test on any line a real scraper would
// reject: samples without a preceding # TYPE, illegal metric or label
// names, unterminated or improperly escaped label values, non-numeric
// sample values. It returns the set of series names with samples and the
// declared type per metric family.
func parseExposition(t *testing.T, body string) (samples map[string]int, types map[string]string) {
	t.Helper()
	samples = make(map[string]int)
	types = make(map[string]string)
	helps := make(map[string]bool)
	for ln, line := range strings.Split(body, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !validMetricName(name) {
				t.Fatalf("line %d: malformed HELP line %q", lineNo, line)
			}
			if helps[name] {
				t.Fatalf("line %d: duplicate HELP for %q", lineNo, name)
			}
			helps[name] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || !validMetricName(fields[0]) {
				t.Fatalf("line %d: malformed TYPE line %q", lineNo, line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", lineNo, fields[1])
			}
			if _, dup := types[fields[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", lineNo, fields[0])
			}
			types[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment line %q", lineNo, line)
		}

		// Sample line: name[{labels}] value
		name := line
		rest := ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if !validMetricName(name) {
			t.Fatalf("line %d: illegal metric name %q", lineNo, name)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && types[base] == "histogram" {
				family = base
				break
			}
		}
		typ, ok := types[family]
		if !ok {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", lineNo, name)
		}
		if !helps[family] {
			t.Fatalf("line %d: sample %q has no preceding # HELP", lineNo, name)
		}
		if typ == "histogram" && family == name {
			t.Fatalf("line %d: histogram %q sampled without _bucket/_sum/_count suffix", lineNo, name)
		}

		if strings.HasPrefix(rest, "{") {
			end := -1
			inQuote, escaped := false, false
			for i := 1; i < len(rest); i++ {
				c := rest[i]
				switch {
				case escaped:
					if c != '\\' && c != '"' && c != 'n' {
						t.Fatalf("line %d: bad escape \\%c in %q", lineNo, c, line)
					}
					escaped = false
				case inQuote && c == '\\':
					escaped = true
				case c == '"':
					inQuote = !inQuote
				case !inQuote && c == '}':
					end = i
				}
				if end >= 0 {
					break
				}
			}
			if end < 0 {
				t.Fatalf("line %d: unterminated label set in %q", lineNo, line)
			}
			for _, pair := range splitLabels(t, rest[1:end]) {
				key, val, ok := strings.Cut(pair, "=")
				if !ok || !validMetricName(key) {
					t.Fatalf("line %d: malformed label pair %q", lineNo, pair)
				}
				if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
					t.Fatalf("line %d: unquoted label value %q", lineNo, pair)
				}
			}
			rest = rest[end+1:]
		}
		value := strings.TrimSpace(rest)
		if value == "" {
			t.Fatalf("line %d: sample %q has no value", lineNo, line)
		}
		if value != "+Inf" && value != "-Inf" && value != "NaN" {
			var f float64
			if _, err := fmt.Sscanf(value, "%g", &f); err != nil {
				t.Fatalf("line %d: non-numeric value %q in %q", lineNo, value, line)
			}
		}
		samples[name]++
	}
	return samples, types
}

// splitLabels splits "a=\"x\",b=\"y\"" on commas outside quotes.
func splitLabels(t *testing.T, s string) []string {
	t.Helper()
	var out []string
	start, inQuote, escaped := 0, false, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case escaped:
			escaped = false
		case inQuote && c == '\\':
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == ',':
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// TestMetricsExposition runs real queries and validates the full /metrics
// body with a strict parser: TYPE/HELP before every series, legal names,
// escaped labels, histogram suffix discipline.
func TestMetricsExposition(t *testing.T) {
	s, _ := newTestServer(t, Config{SlowQueryThreshold: time.Nanosecond}, 4096, false)
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := `{"table":"t","pipeline":[{"op":"aggregate","aggs":[{"func":"sum","col":"v","as":"total"}]}]}`
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/query", body)
		if got := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("query: status %d body %s", resp.StatusCode, got)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	samples, types := parseExposition(t, text)

	wantTypes := map[string]string{
		"advm_pool_capacity":             "gauge",
		"advm_server_queries_total":      "counter",
		"advm_server_slow_queries_total": "counter",
		"advm_query_duration_seconds":    "histogram",
		"advm_admission_wait_seconds":    "histogram",
		"advm_operator_self_seconds":     "histogram",

		"advm_jit_templates":                    "gauge",
		"advm_jit_template_hits_total":          "counter",
		"advm_jit_template_misses_total":        "counter",
		"advm_jit_template_build_seconds_total": "counter",
		"advm_jit_bind_seconds_total":           "counter",
	}
	for name, typ := range wantTypes {
		if types[name] != typ {
			t.Errorf("metric %s: type %q, want %q", name, types[name], typ)
		}
	}
	wantSamples := []string{
		"advm_server_queries_total",
		"advm_query_duration_seconds_bucket",
		"advm_query_duration_seconds_sum",
		"advm_query_duration_seconds_count",
		"advm_admission_wait_seconds_bucket",
		"advm_operator_self_seconds_bucket",
	}
	for _, name := range wantSamples {
		if samples[name] == 0 {
			t.Errorf("metric sample %s missing from exposition", name)
		}
	}
	// Per-query histogram: two runs of the ad-hoc plan under the "adhoc"
	// label, with cumulative buckets ending in +Inf.
	if !strings.Contains(text, `advm_query_duration_seconds_count{query="adhoc"} 2`) {
		t.Errorf("exposition lacks adhoc duration count of 2:\n%s", text)
	}
	if !strings.Contains(text, `advm_query_duration_seconds_bucket{query="adhoc",le="+Inf"} 2`) {
		t.Errorf("exposition lacks +Inf bucket for adhoc durations")
	}
	// Ops-level tracing (slow-query threshold active) feeds operator
	// self-time histograms; the plan has scan + aggregate.
	if !strings.Contains(text, `advm_operator_self_seconds_count{op="aggregate"}`) {
		t.Errorf("exposition lacks aggregate operator self-time histogram")
	}
}

func TestSlowLogRing(t *testing.T) {
	l := newSlowLog(2)
	for i := 1; i <= 3; i++ {
		l.add(slowEntry{Query: fmt.Sprintf("q%d", i)})
	}
	entries, total := l.snapshot()
	if total != 3 {
		t.Fatalf("total = %d, want 3", total)
	}
	if len(entries) != 2 || entries[0].Query != "q3" || entries[1].Query != "q2" {
		t.Fatalf("entries = %+v, want [q3 q2]", entries)
	}
	// Nil and zero-capacity logs swallow writes without panicking.
	var nilLog *slowLog
	nilLog.add(slowEntry{})
	if e, n := nilLog.snapshot(); e != nil || n != 0 {
		t.Fatalf("nil slowLog snapshot = %v, %d", e, n)
	}
	newSlowLog(0).add(slowEntry{})
}

// TestSlowQueryEndpoint sets a 1ns threshold so every query is slow, then
// checks GET /v1/slow returns the query with its execution trace attached.
func TestSlowQueryEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{SlowQueryThreshold: time.Nanosecond, SlowLogSize: 4}, 4096, false)
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := `{"table":"t","pipeline":[
		{"op":"filter","lambda":"(\\k -> k < 1000)","col":"k"},
		{"op":"aggregate","aggs":[{"func":"sum","col":"v","as":"total"}]}]}`
	resp := postJSON(t, ts.URL+"/v1/query", body)
	if got := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d body %s", resp.StatusCode, got)
	}

	slowResp, err := http.Get(ts.URL + "/v1/slow")
	if err != nil {
		t.Fatal(err)
	}
	var slow slowResponse
	if err := json.Unmarshal([]byte(readAll(t, slowResp)), &slow); err != nil {
		t.Fatal(err)
	}
	if slow.Total < 1 || len(slow.Entries) < 1 {
		t.Fatalf("slow log empty: %+v", slow)
	}
	e := slow.Entries[0]
	if e.Query != "adhoc" || e.Rows != 1 || e.DurationMS <= 0 || e.UnixMS == 0 {
		t.Fatalf("slow entry = %+v", e)
	}
	if e.Trace == nil || e.Trace.Name != "query" || e.Trace.Kind != "query" {
		t.Fatalf("slow entry trace = %+v, want query root span", e.Trace)
	}
	// Background tracing runs at ops level: operator spans present, no
	// per-morsel leaves.
	ops := collectSpans(e.Trace, "op")
	if len(ops) < 2 {
		t.Fatalf("slow trace has %d op spans, want filter+aggregate+scan chain", len(ops))
	}
	if leaves := collectSpans(e.Trace, "morsel"); len(leaves) != 0 {
		t.Fatalf("ops-level slow trace has %d morsel leaves, want 0", len(leaves))
	}
}

// TestNegativeThresholdDisablesSlowLog checks the off switch: a negative
// threshold means no background tracing and an empty slow log.
func TestNegativeThresholdDisablesSlowLog(t *testing.T) {
	s, _ := newTestServer(t, Config{SlowQueryThreshold: -1}, 1024, false)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/query", `{"table":"t"}`)
	if got := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d body %s", resp.StatusCode, got)
	}
	var slow slowResponse
	if err := json.Unmarshal([]byte(readAll(t, mustGet(t, ts.URL+"/v1/slow"))), &slow); err != nil {
		t.Fatal(err)
	}
	if slow.Total != 0 || len(slow.Entries) != 0 {
		t.Fatalf("slow log not empty with negative threshold: %+v", slow)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func collectSpans(root *qtrace.SpanJSON, kind string) []*qtrace.SpanJSON {
	var out []*qtrace.SpanJSON
	var walk func(*qtrace.SpanJSON)
	walk = func(n *qtrace.SpanJSON) {
		if n.Kind == kind {
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}

// TestTraceTrailer asks for the trace back over the wire: "trace": true must
// put the full span tree — morsel leaves included — on the trailing NDJSON
// record.
func TestTraceTrailer(t *testing.T) {
	s, _ := newTestServer(t, Config{}, 4096, true)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/query", `{"query":"q6","trace":true,"opts":{"parallelism":2}}`)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d body %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	var trailer streamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("trailer parse: %v (line %q)", err, lines[len(lines)-1])
	}
	if trailer.Error != "" {
		t.Fatalf("trailer error: %s", trailer.Error)
	}
	if trailer.Trace == nil || trailer.Trace.Name != "query" {
		t.Fatalf("trailer trace = %+v, want query root", trailer.Trace)
	}
	if trailer.Trace.DurNs <= 0 {
		t.Fatalf("trace root duration = %d, want > 0", trailer.Trace.DurNs)
	}
	if ops := collectSpans(trailer.Trace, "op"); len(ops) == 0 {
		t.Fatalf("trailer trace has no operator spans")
	}
	leaves := collectSpans(trailer.Trace, "morsel")
	if len(leaves) == 0 {
		t.Fatalf("morsels-level trailer trace has no morsel leaves")
	}
	for _, m := range leaves {
		if m.Worker == nil {
			t.Fatalf("morsel leaf %+v has no worker attribution", m)
		}
	}

	// Untraced request: no trace on the trailer.
	resp = postJSON(t, ts.URL+"/v1/query", `{"query":"q6"}`)
	body = readAll(t, resp)
	lines = strings.Split(strings.TrimSpace(body), "\n")
	trailer = streamTrailer{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatal(err)
	}
	if trailer.Trace != nil {
		t.Fatalf("untraced request got a trace on the trailer")
	}
}
