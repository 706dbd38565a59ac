// Example: serving the adaptive VM — one advm.Engine behind the HTTP
// service, hammered by concurrent clients with mixed parallelism. The point
// of serving is amortization: every client that prepares the same program
// drives the same VM (one profile, one set of JIT traces), and every repeat
// of the same query plan climbs the same tier entry, so the /v1/stats dump
// at the end shows cache hits ≈ clients-1 and one shared VM.
//
//	go run ./examples/server
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"

	"repro/advm"
	"repro/internal/server"
	"repro/internal/tpch"
)

func main() {
	eng, err := advm.NewEngine(advm.WithParallelism(4))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// The server is just an http.Handler over the engine: here it runs
	// in-process on a loopback listener; cmd/advm-serve is the same thing
	// behind a real socket.
	srv := server.New(eng, server.Config{MaxConcurrent: 8})
	srv.RegisterTable("lineitem", tpch.GenLineitem(0.01, 42))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Every client prepares the same program — the engine's fingerprint
	// cache unifies them onto one VM — then runs TPC-H Q6 at its own
	// parallelism.
	src := "let xs = read 0 data\nwrite out 0 (map (\\x -> (x * 3 + 7) * (x - 1)) xs)"
	parallelism := []int{1, 4, 4, 1, 4, 2}
	var wg sync.WaitGroup
	for c, par := range parallelism {
		wg.Add(1)
		go func(c, par int) {
			defer wg.Done()
			post := func(path, body string) string {
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					log.Fatal(err)
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != http.StatusOK {
					log.Fatalf("client %d: %s → %d %s", c, path, resp.StatusCode, b)
				}
				return string(b)
			}
			post("/v1/prepare", fmt.Sprintf(`{"src":%q,"externals":{"data":"i64","out":"i64"}}`, src))
			post("/v1/exec", fmt.Sprintf(
				`{"src":%q,"externals":{"data":"i64","out":"i64"},
				  "bindings":{"data":{"kind":"i64","values":[1,2,3,4,5,6,7,8]},"out":{"kind":"i64","cap":64}}}`, src))
			for r := 0; r < 3; r++ {
				body := post("/v1/query", fmt.Sprintf(
					`{"query":"q6","opts":{"parallelism":%d}}`, par))
				lines := strings.Split(strings.TrimSpace(body), "\n")
				if r == 2 {
					fmt.Printf("client %d (parallelism %d): q6 → %s\n", c, par, lines[1])
				}
			}
		}(c, par)
	}
	wg.Wait()

	// The adaptive telemetry, as any monitoring system would scrape it.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Engine struct {
			Prepares        int64 `json:"prepares"`
			CacheHits       int64 `json:"cache_hits"`
			Programs        int   `json:"prepared_programs"`
			ParallelQueries int64 `json:"parallel_queries"`
		} `json:"engine"`
		Admission struct {
			Admitted int64 `json:"admitted"`
			Rejected int64 `json:"rejected"`
		} `json:"admission"`
		Prepared []struct {
			Fingerprint string `json:"fingerprint"`
			Runs        int64  `json:"runs"`
		} `json:"prepared"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nprepared-cache sharing: %d prepares, %d cache hits, %d distinct program(s)\n",
		stats.Engine.Prepares, stats.Engine.CacheHits, stats.Engine.Programs)
	for _, p := range stats.Prepared {
		fmt.Printf("  program %s…: %d runs across all clients (one shared VM)\n",
			p.Fingerprint[:12], p.Runs)
	}
	fmt.Printf("admission: %d admitted, %d rejected; parallel queries: %d\n",
		stats.Admission.Admitted, stats.Admission.Rejected, stats.Engine.ParallelQueries)
}
