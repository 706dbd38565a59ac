package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/advm"
	"repro/internal/server"
	"repro/internal/tpch"
)

// Frozen shape of serve_mix. The measured window is a closed loop of one
// client on one keep-alive connection, as on the embedded workloads: on this
// two-core host an open loop at a light load, or a second client, measures
// how the host wakes idle cores and shares busy ones — the same code then
// spreads by a fifth from run to run (README.md, "Why serve_mix is a closed
// loop"). The traced run keeps the open loop as a probe.
const (
	// serveRate is the offered load of the open-loop probe in requests per
	// second, at most 40 % of the two-client capacity measured when the
	// benchmark was defined (server.capacity_ops_per_s), over serveConns
	// connections, which is also the client count of the capacity probe.
	serveRate  = 40.0
	serveConns = 2
	serveArray = 4096
)

// serveWorkload runs internal/server behind a real loopback listener and
// drives it over keep-alive connections.
type serveWorkload struct {
	cfg           *runConfig
	li, ord, cust *advm.Table
	eng           *advm.Engine
	http          *http.Server
	client        *http.Client
	url           string
	served        chan error

	execArr []int64    // the inline array every /v1/exec request carries
	progs   []*program // the 8 programs /v1/exec runs
	fps     []string   // their fingerprints, from /v1/prepare
}

func newServeWorkload(cfg *runConfig) *serveWorkload { return &serveWorkload{cfg: cfg} }

func (w *serveWorkload) engine() *advm.Engine { return w.eng }

// execProgram is one /v1/exec program over an inline array: a map, or a
// map followed by a condensing filter.
func execProgram(i int, d []int64) *program {
	a, b := int64(i+2), int64(10*i+1)
	src := fmt.Sprintf("let xs = read 0 d %d\nwrite o 0 (map (\\x -> x * %d + %d) xs)\n", len(d), a, b)
	keep := func(int64) bool { return true }
	if i%2 == 1 {
		src = fmt.Sprintf("let xs = read 0 d %d\nlet m = map (\\x -> x * %d + %d) xs\n"+
			"write o 0 (condense (filter (\\x -> x > %d) m))\n", len(d), a, b, b)
		keep = func(m int64) bool { return m > b }
	}
	return &program{
		name:  fmt.Sprintf("exec%d", i),
		src:   src,
		kinds: map[string]advm.Kind{"d": advm.I64, "o": advm.I64},
		want: func() map[string]any {
			out := make([]int64, 0, len(d))
			for _, x := range d {
				if m := x*a + b; keep(m) {
					out = append(out, m)
				}
			}
			return map[string]any{"o": out}
		},
	}
}

func (w *serveWorkload) setup() error {
	cfg := w.cfg
	sf := sfServe
	n := serveArray
	if cfg.smoke {
		sf, n = sfSmoke, 256
	}
	w.li, w.ord, w.cust = genTables(cfg, sf, true)
	rng := rand.New(rand.NewSource(cfg.seed))
	w.execArr = make([]int64, n)
	for i := range w.execArr {
		w.execArr[i] = rng.Int63n(1000) - 500
	}
	for i := 0; i < 8; i++ {
		w.progs = append(w.progs, execProgram(i, w.execArr))
	}

	var err error
	if w.eng, err = advm.NewEngine(cfg.engineOptions()...); err != nil {
		return err
	}
	srv := server.New(w.eng, server.Config{})
	srv.RegisterTable("lineitem", w.li)
	srv.RegisterTable("orders", w.ord)
	srv.RegisterTable("customer", w.cust)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.http = &http.Server{Handler: srv}
	w.served = make(chan error, 1)
	go func() { w.served <- w.http.Serve(ln) }()
	w.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns},
	}
	for _, p := range w.progs {
		body, err := json.Marshal(map[string]any{"src": p.src, "externals": map[string]string{"d": "i64", "o": "i64"}})
		if err != nil {
			return err
		}
		status, resp, err := w.post(context.Background(), "/v1/prepare", body)
		if err != nil {
			return err
		}
		var pr struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(resp, &pr); err != nil || status != http.StatusOK {
			return fmt.Errorf("prepare %s: status %d: %s", p.name, status, resp)
		}
		w.fps = append(w.fps, pr.Fingerprint)
	}
	return nil
}

func (w *serveWorkload) close() {
	if w.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = w.http.Shutdown(ctx) // a hung connection is cut by Close below
		cancel()
		w.http.Close()
		<-w.served
		w.client.CloseIdleConnections()
	}
	if w.eng != nil {
		w.eng.Close()
	}
}

func (w *serveWorkload) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// refAdhoc answers the ad-hoc pipeline with plain loops: revenue of the
// lineitems shipped in [lo, hi), summed per quantity, the five largest.
func refAdhoc(li *advm.Table, lo, hi int64) []keySum {
	qty := li.Col(tpch.ColQuantity).I64()
	price := li.Col(tpch.ColExtendedprice).F64()
	disc := li.Col(tpch.ColDiscount).F64()
	ship := li.Col(tpch.ColShipdate).I64()
	sums := map[int64]float64{}
	for i := range ship {
		if ship[i] >= lo && ship[i] < hi {
			sums[qty[i]] += price[i] * (1 - disc[i])
		}
	}
	rows := make([]keySum, 0, len(sums))
	for k, s := range sums {
		rows = append(rows, keySum{key: k, sum: s})
	}
	return topKeySums(rows, 5)
}

// adhocBody is the POST /v1/query body of the ad-hoc DSL pipeline
// filter → compute → aggregate → topk.
func adhocBody(lo, hi int64) []byte {
	body, err := json.Marshal(map[string]any{
		"table":   "lineitem",
		"columns": []string{"l_quantity", "l_extendedprice", "l_discount", "l_shipdate"},
		"pipeline": []map[string]any{
			{"op": "filter", "lambda": fmt.Sprintf(`(\d -> (d >= %d) && (d < %d))`, lo, hi), "col": "l_shipdate"},
			{"op": "compute", "out": "revenue", "kind": "f64", "lambda": `(\p d -> p * (1.0 - d))`,
				"cols": []string{"l_extendedprice", "l_discount"}},
			{"op": "aggregate", "keys": []string{"l_quantity"},
				"aggs": []map[string]string{{"func": "sum", "col": "revenue", "as": "revenue"}}},
			{"op": "topk", "k": 5, "by": []map[string]any{{"col": "revenue", "desc": true}, {"col": "l_quantity"}}},
		},
	})
	if err != nil {
		panic(err) // a literal of marshalable values
	}
	return body
}

func namedBody(query string, params map[string]float64) []byte {
	body, err := json.Marshal(map[string]any{"query": query, "params": params})
	if err != nil {
		panic(err) // a literal of marshalable values
	}
	return body
}

func q6Body(p tpch.Q6Params) []byte {
	return namedBody("q6", map[string]float64{"ship_lo": float64(p.ShipLo), "ship_hi": float64(p.ShipHi),
		"disc_lo": p.DiscLo, "disc_hi": p.DiscHi, "qty_max": float64(p.QtyMax)})
}

// The traffic mix, dealt exactly per block of 40 requests: q6 25 (a hot set
// of 8 shapes 24, a never-repeated shape 1), prepared exec 8, named q1 4,
// named q3 over a hot set of 4 shapes 2, a never-repeated ad-hoc pipeline 1 —
// 60 / 2.5 / 20 / 10 / 5 / 2.5 %. Like the embedded mixes the repeated shapes
// are hot from the window's first request and the never-repeated ones stay
// cold, so the tier state does not drift; the never-repeated shapes are also
// the ones that churn the engine's 256-entry tier and fused caches. The fast
// group (hot q6 and exec) is 80 % of the requests, so p50_ms is about hot
// q6's median, below the tail that requests overlapping a GC cycle form. q1,
// the slowest class, holds the top 10 %, so p95_ms is about q1's median,
// above most of q3 and the ad-hoc pipelines.
func (w *serveWorkload) buildPool(rng *rand.Rand) *pool {
	cfg := w.cfg
	q6 := q6Source(rng)
	newQ6 := func() *entry {
		p := q6()
		return &entry{class: "q6", params: p, path: "/v1/query", body: q6Body(p), check: lazyCheck(func() checker {
			return checkQ6(tpch.Q6HyPer(cfg.tables.li, p.ShipLo, p.ShipHi, p.DiscLo, p.DiscHi, p.QtyMax))
		})}
	}
	seenAdhoc := map[int64]bool{}
	newAdhoc := func() *entry {
		lo := rng.Int63n(tpch.ShipdateMax - 400)
		for seenAdhoc[lo] {
			lo = rng.Int63n(tpch.ShipdateMax - 400)
		}
		seenAdhoc[lo] = true
		return &entry{class: "adhoc", path: "/v1/query", body: adhocBody(lo, lo+400),
			check: lazyCheck(func() checker { return checkKeySums("adhoc", refAdhoc(cfg.tables.li, lo, lo+400), 0, 1) })}
	}

	var q6Hot, exec, q3 []*entry
	for i := 0; i < hotSetSize; i++ {
		q6Hot = append(q6Hot, newQ6())
	}
	for i, p := range w.progs {
		body, err := json.Marshal(map[string]any{
			"fingerprint": w.fps[i],
			"bindings": map[string]any{
				"d": map[string]any{"kind": "i64", "values": w.execArr},
				"o": map[string]any{"kind": "i64", "cap": len(w.execArr)},
			},
		})
		if err != nil {
			panic(err) // a literal of marshalable values
		}
		exec = append(exec, &entry{class: "exec", params: p, path: "/v1/exec", body: body})
	}
	q1 := &entry{class: "q1", path: "/v1/query", body: namedBody("q1", nil),
		check: lazyCheck(func() checker { return checkQ1(tpch.Q1HyPer(cfg.tables.li, tpch.Q1Cutoff)) })}
	q3Params := q3Source(rng)
	for i := 0; i < heavySetSize; i++ {
		p := q3Params()
		q3 = append(q3, &entry{class: "q3", path: "/v1/query",
			body: namedBody("q3", map[string]float64{"segment": float64(p.Segment), "date": float64(p.Date), "topk": float64(p.TopK)}),
			check: lazyCheck(func() checker {
				return checkQ3(tpch.Q3HyPer(cfg.tables.li, cfg.tables.ord, cfg.tables.cust, p))
			})})
	}

	p := &pool{}
	p.warm = append(append(append(append(p.warm, q6Hot...), exec...), q1), q3...)
	p.cold = append(p.cold, p.warm...)
	for i := 0; i < coldTail; i++ {
		p.cold = append(p.cold, newQ6())
	}
	for i := 0; i < 8; i++ {
		p.cold = append(p.cold, newAdhoc())
	}
	p.next = dealSchedule(rng,
		lane{24, uniformOver(rng, q6Hot)},
		lane{1, newQ6},
		lane{8, uniformOver(rng, exec)},
		lane{4, func() *entry { return q1 }},
		lane{2, uniformOver(rng, q3)},
		lane{1, newAdhoc})
	return p
}

// checkExec compares the output array of a /v1/exec response with the
// program's reference.
func checkExec(p *program, body []byte) error {
	var resp struct {
		Outputs map[string][]int64 `json:"outputs"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: malformed response: %w", p.name, err)
	}
	return compareInts(p.name, "o", resp.Outputs["o"], p.reference()["o"].([]int64))
}

// ndjsonRows splits a /v1/query response into its rows; a trailer carrying
// an error fails the op.
func ndjsonRows(body []byte) ([][]any, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var rows [][]any
	var trailer map[string]any
	for {
		var v any
		if err := dec.Decode(&v); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("malformed NDJSON: %w", err)
		}
		switch x := v.(type) {
		case []any:
			rows = append(rows, x)
		case map[string]any:
			trailer = x // the meta record first, the trailer last
		}
	}
	if trailer == nil {
		return nil, fmt.Errorf("response without trailer")
	}
	if msg, ok := trailer["error"]; ok {
		return nil, fmt.Errorf("trailer error: %v", msg)
	}
	return rows, nil
}

func (w *serveWorkload) exec(ctx context.Context, oc *opCtx, e *entry) error {
	o := oc.obs
	sp := oc.begin("http.request")
	status, body, err := w.post(ctx, e.path, e.body)
	o.end = time.Now()
	oc.end(sp)
	o.status, o.bytesOut = status, len(body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	o.deferred = func() error { // decoded and checked after the phase's clock stops
		if e.class == "exec" {
			return checkExec(e.params.(*program), body)
		}
		rows, err := ndjsonRows(body)
		if err != nil {
			return err
		}
		return e.check(rows)
	}
	return nil
}

// openLoop is the open-loop probe: it offers requests at serveRate for d,
// whatever the server does with them, and returns one checked observation
// per scheduled request, its latency taken from the due time.
func (w *serveWorkload) openLoop(ctx context.Context, r *runner, d time.Duration) []*opObs {
	due := poissonSchedule(w.cfg.seed, serveRate, d)
	entries := make([]*entry, len(due))
	for i := range entries {
		entries[i] = r.pool.next()
	}
	obs := make([]*opObs, len(due))
	start := time.Now()
	arrivals := runOpenLoop(start, due, serveConns, func(conn, i int) {
		obs[i] = r.execOp(ctx, entries[i], conn+1)
	})
	for i, o := range obs {
		a := arrivals[i]
		o.arr = &a
		o.start, o.end = start.Add(a.Due), start.Add(a.Done)
	}
	settle(obs)
	return obs
}

// closedLoop2 is the capacity probe: serveConns clients back to back. It
// returns how many requests completed with a correct result.
func (w *serveWorkload) closedLoop2(ctx context.Context, r *runner, d time.Duration) int {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var ops []*opObs
	deadline := time.Now().Add(d)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				e := r.pool.next()
				mu.Unlock()
				o := r.execOp(ctx, e, conn+1)
				mu.Lock()
				ops = append(ops, o)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	settle(ops)
	return len(latencies(ops, ""))
}

// scrapeMetrics reads GET /metrics into name{labels} → value.
func (w *serveWorkload) scrapeMetrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}
