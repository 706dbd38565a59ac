package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/advm"
	"repro/internal/colstore"
	"repro/internal/tpch"
)

// newTestServer builds a server over a fresh engine with a small synthetic
// table ("t": k i64 ascending 0..rows-1, v i64 = 3k) plus, when withTPCH is
// set, an SF-0.005 lineitem/orders/customer trio for the named plans.
func newTestServer(t *testing.T, cfg Config, rows int, withTPCH bool, engOpts ...advm.Option) (*Server, *advm.Engine) {
	t.Helper()
	eng, err := advm.NewEngine(engOpts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	s := New(eng, cfg)
	s.RegisterTable("t", syntheticTable(rows))
	if withTPCH {
		const sf = 0.005
		s.RegisterTable("lineitem", tpch.GenLineitem(sf, 42))
		s.RegisterTable("orders", tpch.GenOrders(sf, 42))
		s.RegisterTable("customer", tpch.GenCustomer(sf, 42))
	}
	return s, eng
}

func syntheticTable(rows int) *advm.Table {
	ks := make([]int64, rows)
	vs := make([]int64, rows)
	for i := range ks {
		ks[i] = int64(i)
		vs[i] = int64(3 * i)
	}
	table := advm.NewTable(advm.NewSchema("k", advm.I64, "v", advm.I64))
	c := &advm.Chunk{}
	c.Add("k", advm.FromI64(ks))
	c.Add("v", advm.FromI64(vs))
	table.AppendChunk(c)
	return table
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHandlerErrorMapping is the table test over the error taxonomy: client
// mistakes map to 400, an expired per-request deadline to 504 (the work
// happens before the first byte, so the status is still writable).
func TestHandlerErrorMapping(t *testing.T) {
	s, _ := newTestServer(t, Config{}, 1<<21, false)
	ts := httptest.NewServer(s)
	defer ts.Close()

	heavy := `{"table":"t","pipeline":[
		{"op":"filter","lambda":"(\\k -> k >= 0)","col":"k"},
		{"op":"compute","out":"w","lambda":"(\\v -> (v * 3 + 7) * (v - 1))","kind":"i64","cols":["v"]},
		{"op":"aggregate","aggs":[{"func":"sum","col":"w","as":"total"}]}],
		"timeout_ms":1}`

	cases := []struct {
		name, body string
		status     int
		errSubstr  string
	}{
		{"malformed body", `{"table":`, http.StatusBadRequest, "malformed"},
		{"unknown table", `{"table":"nope"}`, http.StatusBadRequest, "unknown table"},
		{"unknown named query", `{"query":"q9"}`, http.StatusBadRequest, "unknown named query"},
		{"named query missing table", `{"query":"q6"}`, http.StatusBadRequest, "not registered"},
		{"mixed query and pipeline", `{"query":"q6","table":"t"}`, http.StatusBadRequest, "mixes"},
		{"bad DSL lambda", `{"table":"t","pipeline":[{"op":"filter","lambda":"(\\k -> k <","col":"k"}]}`,
			http.StatusBadRequest, "compile failed"},
		{"unknown column", `{"table":"t","pipeline":[{"op":"filter","lambda":"(\\x -> x < 5)","col":"missing"}]}`,
			http.StatusBadRequest, "bind failed"},
		{"unknown op", `{"table":"t","pipeline":[{"op":"sort"}]}`, http.StatusBadRequest, "unknown op"},
		{"bad agg func", `{"table":"t","pipeline":[{"op":"aggregate","aggs":[{"func":"median","col":"v","as":"m"}]}]}`,
			http.StatusBadRequest, "unknown aggregate"},
		{"bad compute kind", `{"table":"t","pipeline":[{"op":"compute","out":"w","lambda":"(\\v -> v)","kind":"i65","cols":["v"]}]}`,
			http.StatusBadRequest, "unknown type"},
		{"negative parallelism", `{"table":"t","opts":{"parallelism":-1}}`, http.StatusBadRequest, "non-negative"},
		{"deadline exceeded", heavy, http.StatusGatewayTimeout, "cancelled"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/query", tc.body)
			body := readAll(t, resp)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			if !strings.Contains(body, tc.errSubstr) {
				t.Fatalf("body %q does not mention %q", body, tc.errSubstr)
			}
		})
	}
}

// TestOverloadReturns429 saturates a MaxConcurrent=1, MaxQueue=1 server:
// with the slot held and the queue full, the next request must bounce
// immediately with 429 and a Retry-After hint rather than queue unboundedly;
// the queued request must still complete once the slot frees.
func TestOverloadReturns429(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1, QueueWait: 5 * time.Second}, 8, false)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Hold the only slot.
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Fill the queue with a real request.
	queued := make(chan string, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json",
			strings.NewReader(`{"table":"t","pipeline":[{"op":"aggregate","aggs":[{"func":"count","as":"n"}]}]}`))
		if err != nil {
			queued <- "err: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		queued <- fmt.Sprintf("%d %s", resp.StatusCode, b)
	}()
	waitFor(t, time.Second, func() bool { return s.adm.snapshot().Queued == 1 })

	// Queue is full: overload must bounce fast and carry Retry-After.
	resp := postJSON(t, ts.URL+"/v1/query", `{"table":"t"}`)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	// Free the slot: the queued request must now run to completion.
	s.adm.release()
	select {
	case got := <-queued:
		if !strings.HasPrefix(got, "200 ") || !strings.Contains(got, `[8]`) {
			t.Fatalf("queued request finished as %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never completed after release")
	}
	if snap := s.adm.snapshot(); snap.Rejected != 1 || snap.Running != 0 {
		t.Fatalf("admission snapshot %+v, want rejected=1 running=0", snap)
	}
}

// TestQueryStreamsNDJSON checks the wire format end to end: meta record,
// row records in table order, trailer with the row count.
func TestQueryStreamsNDJSON(t *testing.T) {
	s, _ := newTestServer(t, Config{}, 100, false)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/query", `{"table":"t","columns":["k","v"],"pipeline":[
		{"op":"filter","lambda":"(\\k -> k < 3)","col":"k"},
		{"op":"compute","out":"w","lambda":"(\\v -> v + 1)","kind":"i64","cols":["v"]}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(readAll(t, resp)), "\n")
	want := []string{
		`{"columns":["k","v","w"],"kinds":["i64","i64","i64"]}`,
		`[0,0,1]`,
		`[1,3,4]`,
		`[2,6,7]`,
		`{"rows":3}`,
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d: %v", len(lines), len(want), lines)
	}
	for i, w := range want {
		if lines[i] != w {
			t.Fatalf("line %d = %q, want %q", i, lines[i], w)
		}
	}
}

// TestPrepareExecSharesCache drives the prepared-program path over HTTP:
// clients preparing the same program (in different spellings) share one
// fingerprint and one VM, /v1/exec addresses it by fingerprint alone, and
// the engine cache records the hits.
func TestPrepareExecSharesCache(t *testing.T) {
	s, eng := newTestServer(t, Config{}, 8, false)
	ts := httptest.NewServer(s)
	defer ts.Close()

	prepare := func(src string) prepareResponse {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/prepare",
			fmt.Sprintf(`{"src":%q,"externals":{"data":"i64","out":"i64"}}`, src))
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("prepare: %d %s", resp.StatusCode, body)
		}
		var pr prepareResponse
		if err := json.Unmarshal([]byte(body), &pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}

	src := "let xs = read 0 data\nwrite out 0 (map (\\x -> x * x) xs)"
	// A different spelling of the same program normalizes identically.
	alt := "let ys = read 0 data\nwrite out 0 (map (\\q -> q * q) ys)"
	p1 := prepare(src)
	if p1.Cached {
		t.Fatal("first prepare reported cached")
	}
	p2 := prepare(alt)
	if !p2.Cached || p2.Fingerprint != p1.Fingerprint {
		t.Fatalf("respelled program got %+v, want cached handle onto %s", p2, p1.Fingerprint)
	}
	if hits := eng.Stats().CacheHits; hits < 1 {
		t.Fatalf("engine cache hits = %d after re-prepare", hits)
	}

	resp := postJSON(t, ts.URL+"/v1/exec", fmt.Sprintf(
		`{"fingerprint":%q,"bindings":{"data":{"kind":"i64","values":[1,2,3,4]},"out":{"kind":"i64","cap":16}}}`,
		p1.Fingerprint))
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exec: %d %s", resp.StatusCode, body)
	}
	var er execResponse
	if err := json.Unmarshal([]byte(body), &er); err != nil {
		t.Fatal(err)
	}
	wantOut := []any{1.0, 4.0, 9.0, 16.0} // JSON numbers decode as float64
	got := er.Outputs["out"]
	if len(got) != len(wantOut) {
		t.Fatalf("outputs %v, want %v", got, wantOut)
	}
	for i := range wantOut {
		if got[i] != wantOut[i] {
			t.Fatalf("outputs %v, want %v", got, wantOut)
		}
	}
	if er.Runs != 1 {
		t.Fatalf("runs = %d, want 1", er.Runs)
	}

	// Unknown fingerprints are 404, not 500.
	resp = postJSON(t, ts.URL+"/v1/exec", `{"fingerprint":"feedface","bindings":{}}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fingerprint: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestEightConcurrentClients is the acceptance scenario: eight simultaneous
// clients against one engine must each receive byte-identical results to a
// serial reference execution, share the prepared cache, and leave the pool
// fully released.
func TestEightConcurrentClients(t *testing.T) {
	s, eng := newTestServer(t, Config{MaxConcurrent: 8}, 0, true, advm.WithParallelism(4))
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Serial reference: the same query at parallelism 1.
	ref := postJSON(t, ts.URL+"/v1/query", `{"query":"q1","opts":{"parallelism":1}}`)
	refBody := readAll(t, ref)
	if ref.StatusCode != http.StatusOK {
		t.Fatalf("reference query: %d %s", ref.StatusCode, refBody)
	}
	if strings.Count(refBody, "\n") < 3 {
		t.Fatalf("reference result suspiciously small: %q", refBody)
	}

	src := "let xs = read 0 data\nwrite out 0 (map (\\x -> x * 2 + 1) xs)"
	const clients = 8
	bodies := make([]string, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Every client prepares the same program: one VM for all.
			resp, err := http.Post(ts.URL+"/v1/prepare", "application/json",
				strings.NewReader(fmt.Sprintf(`{"src":%q,"externals":{"data":"i64","out":"i64"}}`, src)))
			if err != nil {
				errs[c] = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()

			resp, err = http.Post(ts.URL+"/v1/query", "application/json",
				strings.NewReader(`{"query":"q1","opts":{"parallelism":4}}`))
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[c] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[c] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			bodies[c] = string(b)
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	for c, b := range bodies {
		if b != refBody {
			t.Fatalf("client %d diverged from the serial reference:\nclient: %q\nserial: %q", c, b, refBody)
		}
	}

	est := eng.Stats()
	if est.CacheHits < clients-1 {
		t.Fatalf("prepared cache hits = %d, want ≥ %d (all clients share one program)", est.CacheHits, clients-1)
	}
	if est.PoolInUse != 0 {
		t.Fatalf("pool still has %d workers granted after all streams closed", est.PoolInUse)
	}

	stats := getStats(t, ts.URL)
	if stats.Engine.CacheHits < clients-1 {
		t.Fatalf("/v1/stats cache_hits = %d, want ≥ %d", stats.Engine.CacheHits, clients-1)
	}
	if stats.Server.QueriesOK < clients+1 {
		t.Fatalf("/v1/stats queries_ok = %d, want ≥ %d", stats.Server.QueriesOK, clients+1)
	}
}

// TestStatsAndMetricsEndpoints sanity-checks both telemetry surfaces after
// some traffic. The second query still sends the retired "device" option,
// which the decoder ignores: it runs on the CPU like any other.
func TestStatsAndMetricsEndpoints(t *testing.T) {
	s, _ := newTestServer(t, Config{}, 1<<17, false, advm.WithParallelism(4))
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, body := range []string{
		`{"table":"t","pipeline":[{"op":"aggregate","aggs":[{"func":"sum","col":"v","as":"s"}]}]}`,
		`{"table":"t","opts":{"device":"auto","parallelism":4},"pipeline":[
			{"op":"filter","lambda":"(\\k -> k >= 0)","col":"k"},
			{"op":"aggregate","aggs":[{"func":"count","as":"n"}]}]}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/query", body)
		got := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %d %s", resp.StatusCode, got)
		}
		if strings.Contains(got, "placements") {
			t.Fatalf("response reports placements: %s", got)
		}
	}

	stats := getStats(t, ts.URL)
	if stats.Server.QueriesOK != 2 || stats.Server.RowsStreamed != 2 {
		t.Fatalf("server counters %+v, want 2 ok queries / 2 rows", stats.Server)
	}
	if stats.Admission.Admitted != 2 || stats.Admission.Running != 0 {
		t.Fatalf("admission %+v, want admitted=2 running=0", stats.Admission)
	}

	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, metrics)
	for _, want := range []string{
		"advm_pool_capacity ",
		"advm_server_queries_total{status=\"ok\"} 2",
		"advm_server_admitted_total 2",
		"advm_prepares_total ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestStoredTableServed: a colstore-backed table registered under a name is
// queryable like an in-RAM one, its scans prune segments through zone maps,
// and the segment counters surface on both telemetry endpoints.
func TestStoredTableServed(t *testing.T) {
	dir := t.TempDir()
	if err := colstore.Write(dir, syntheticTable(1<<14), colstore.WriteOptions{SegmentRows: 1024}); err != nil {
		t.Fatal(err)
	}
	s, eng := newTestServer(t, Config{}, 8, false)
	st, err := eng.OpenTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterTable("disk", st)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/query", `{"table":"disk","pipeline":[
		{"op":"filter","lambda":"(\\k -> (k >= 2000) && (k < 2004))","col":"k"},
		{"op":"aggregate","aggs":[{"func":"sum","col":"v","as":"s"},{"func":"count","as":"n"}]}]}`)
	body := readAll(t, resp)
	// k 2000..2003, v = 3k: sum 24018, count 4.
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "[24018,4]") {
		t.Fatalf("stored-table query: %d %s", resp.StatusCode, body)
	}

	stats := getStats(t, ts.URL)
	if stats.SegmentsSkipped == 0 || stats.SegmentsScanned == 0 {
		t.Fatalf("segment counters not surfaced: scanned=%d skipped=%d",
			stats.SegmentsScanned, stats.SegmentsSkipped)
	}
	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, metrics)
	for _, want := range []string{"advm_segments_scanned_total ", "advm_segments_skipped_total "} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestDrainRejectsNewQueries: after Drain, query and exec paths 503 while
// stats stay reachable.
func TestDrainRejectsNewQueries(t *testing.T) {
	s, _ := newTestServer(t, Config{}, 8, false)
	ts := httptest.NewServer(s)
	defer ts.Close()

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/query", `{"table":"t"}`)
	if body := readAll(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: %d %s", resp.StatusCode, body)
	}
	// Compiles are admission-gated work too.
	resp = postJSON(t, ts.URL+"/v1/prepare", `{"src":"let x = 1","externals":{}}`)
	if body := readAll(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("prepare during drain: %d %s", resp.StatusCode, body)
	}
	getStats(t, ts.URL) // stats stay reachable while draining
}

// TestResourceLimitsClamped: per-request lengths and exec output capacities
// are hints bounded by the server, never allocation commands — a tiny
// request body must not be able to demand gigabytes upfront.
func TestResourceLimitsClamped(t *testing.T) {
	s, _ := newTestServer(t, Config{}, 8, false)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// chunk_len/morsel_len far beyond the clamp: the query must succeed
	// with a bounded allocation rather than attempt ~16 GB of buffers.
	resp := postJSON(t, ts.URL+"/v1/query", `{"table":"t",
		"opts":{"chunk_len":2000000000,"morsel_len":2000000000},
		"pipeline":[{"op":"aggregate","aggs":[{"func":"count","as":"n"}]}]}`)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "[8]") {
		t.Fatalf("oversized lengths: %d %s", resp.StatusCode, body)
	}

	// Oversized exec output cap: clamped pre-allocation, correct result
	// (vectors grow on demand, so the clamp is invisible to the program).
	resp = postJSON(t, ts.URL+"/v1/exec",
		`{"src":"let xs = read 0 data\nwrite out 0 (map (\\x -> x + 1) xs)",
		  "externals":{"data":"i64","out":"i64"},
		  "bindings":{"data":{"kind":"i64","values":[41]},"out":{"kind":"i64","cap":2000000000}}}`)
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "[42]") {
		t.Fatalf("oversized cap: %d %s", resp.StatusCode, body)
	}
}

// getStats fetches and decodes /v1/stats.
func getStats(t *testing.T, url string) statsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	var stats statsResponse
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

// readLines reads up to n NDJSON lines from a streaming response body.
func readLines(r io.Reader, n int) ([]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	for len(lines) < n && sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines, sc.Err()
}

// TestTieredExecutionOverHTTP: repetition observed through the telemetry
// endpoints drives tier-ups on both serving paths. A prepared program run
// repeatedly via /v1/exec climbs cold → warm → hot in its /v1/stats entry,
// and a repeated /v1/query plan climbs the engine's per-fingerprint tier
// ladder until its hot executions mount fused loops — visible in the
// engine's fused counters and /metrics.
func TestTieredExecutionOverHTTP(t *testing.T) {
	s, _ := newTestServer(t, Config{}, 1<<14, false, advm.WithTierThresholds(2, 3))
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Prepared-program path: each /v1/exec of one fingerprint bumps its run
	// count, reclassifying its tier.
	resp := postJSON(t, ts.URL+"/v1/prepare",
		`{"src":"let xs = read 0 data\nwrite out 0 (map (\\x -> x * 3) xs)",
		  "externals":{"data":"i64","out":"i64"}}`)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare: %d %s", resp.StatusCode, body)
	}
	var pr prepareResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"cold", "warm", "hot"} {
		resp := postJSON(t, ts.URL+"/v1/exec", fmt.Sprintf(
			`{"fingerprint":%q,"bindings":{"data":{"kind":"i64","values":[1,2]},"out":{"kind":"i64","cap":8}}}`,
			pr.Fingerprint))
		if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("exec %d: %d %s", i+1, resp.StatusCode, body)
		}
		stats := getStats(t, ts.URL)
		var tier string
		for _, p := range stats.Prepared {
			if p.Fingerprint == pr.Fingerprint {
				tier = p.Tier
			}
		}
		if tier != want {
			t.Fatalf("after %d execs: prepared tier %q, want %q", i+1, tier, want)
		}
	}

	// Plan path: the same pipeline re-submitted tiers up engine-wide, and the
	// hot execution runs its scan→filter→compute segment as a fused loop.
	query := `{"table":"t","pipeline":[
		{"op":"filter","lambda":"(\\k -> k < 5000)","col":"k"},
		{"op":"compute","out":"w","lambda":"(\\v -> v * 2 + 1)","kind":"i64","cols":["v"]},
		{"op":"aggregate","aggs":[{"func":"sum","col":"w","as":"s"},{"func":"count","as":"n"}]}]}`
	for i, want := range []string{"cold", "warm", "hot"} {
		resp := postJSON(t, ts.URL+"/v1/query", query)
		body := readAll(t, resp)
		// k 0..4999, v = 3k, w = 6k+1: sum 74990000, count 5000 — identical
		// at every tier.
		if resp.StatusCode != http.StatusOK || !strings.Contains(body, "[74990000,5000]") {
			t.Fatalf("query %d: %d %s", i+1, resp.StatusCode, body)
		}
		stats := getStats(t, ts.URL)
		if len(stats.Tiers) != 1 {
			t.Fatalf("after %d queries: tiers %+v, want one fingerprint", i+1, stats.Tiers)
		}
		if got := stats.Tiers[0].Tier; got != want {
			t.Fatalf("after %d queries: plan tier %q, want %q", i+1, got, want)
		}
	}

	stats := getStats(t, ts.URL)
	if stats.Engine.TierUps != 2 {
		t.Fatalf("tier_ups = %d, want 2 (cold→warm, warm→hot)", stats.Engine.TierUps)
	}
	if stats.Engine.FusedCompiles < 1 || stats.Engine.FusedPrograms < 1 {
		t.Fatalf("fused compiles/programs = %d/%d, want ≥ 1",
			stats.Engine.FusedCompiles, stats.Engine.FusedPrograms)
	}
	if stats.Engine.FusedQueries < 1 {
		t.Fatalf("fused_queries = %d, want ≥ 1 (the hot execution)", stats.Engine.FusedQueries)
	}
	if ti := stats.Tiers[0]; ti.FusedRuns < 1 || ti.Execs != 3 {
		t.Fatalf("tier info %+v, want 3 execs with ≥ 1 fused run", ti)
	}

	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, metrics)
	for _, want := range []string{
		"advm_tier_ups_total 2",
		"advm_fused_compiles_total ",
		"advm_fused_cache_hits_total ",
		"advm_fused_queries_total ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, "deopt") {
		t.Fatalf("/metrics still exports a deopt series:\n%s", text)
	}
}

// TestQ6WholeNumberBoundFuses: a client that sends a whole-number discount
// bound gets the same Q6 plan shape as any other, so the hot execution runs
// fused, and its rows match an untiered engine's.
func TestQ6WholeNumberBoundFuses(t *testing.T) {
	const query = `{"query":"q6","params":{"disc_lo":0,"disc_hi":0.07}}`
	rows := func(body string) string {
		lines := strings.Split(strings.TrimSpace(body), "\n")
		return strings.Join(lines[:len(lines)-1], "\n") // drop the trailer
	}
	s, _ := newTestServer(t, Config{}, 16, true, advm.WithTierThresholds(1, 1))
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/query", query)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("q6: %d %s", resp.StatusCode, body)
	}
	if stats := getStats(t, ts.URL); stats.Engine.FusedQueries < 1 {
		t.Fatalf("fused_queries = %d: the hot q6 with disc_lo 0 did not run fused", stats.Engine.FusedQueries)
	}

	refSrv, _ := newTestServer(t, Config{}, 16, true, advm.WithTieredExecution(false))
	rs := httptest.NewServer(refSrv)
	defer rs.Close()
	refResp := postJSON(t, rs.URL+"/v1/query", query)
	refBody := readAll(t, refResp)
	if got, want := rows(body), rows(refBody); got != want || got == "" {
		t.Fatalf("hot q6 rows %q, untiered %q", got, want)
	}
}
