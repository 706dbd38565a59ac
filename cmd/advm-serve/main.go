// Command advm-serve puts the adaptive VM behind a socket: one process-wide
// advm.Engine — worker pool, fingerprint-keyed prepared cache, JIT compile
// service — served over HTTP to many concurrent clients, with admission
// control, streaming NDJSON results and adaptive-telemetry endpoints.
//
//	advm-serve -addr :8080 -sf 0.01 -parallelism 8
//
//	curl -s localhost:8080/v1/query -d '{"query":"q6"}'
//	curl -s localhost:8080/v1/query -d '{"query":"q3","opts":{"parallelism":4}}'
//	curl -s localhost:8080/v1/query -d '{"query":"q3","trace":true}'
//	curl -s localhost:8080/v1/prepare -d '{"src":"...","externals":{"data":"i64"}}'
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/v1/slow
//	curl -s localhost:8080/metrics
//
// With -pprof localhost:6060 the standard net/http/pprof endpoints serve on
// a separate loopback listener (kept off the query port: profiles expose
// process internals). See docs/OBSERVABILITY.md for the trace and
// histogram surfaces.
//
// The TPC-H tables (lineitem, orders, customer) are registered at startup —
// loaded from -data / $TPCH_DATA_DIR when pre-generated, generated at the
// given scale factor otherwise. With -colstore the tables are served from
// compressed on-disk colstore directories instead of RAM: scans decode
// per-segment and range predicates skip segments via zone maps (watch
// segments_skipped in /v1/stats). SIGTERM/SIGINT drains gracefully: new
// queries get 503 while in-flight streams finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/advm"
	"repro/internal/server"
	"repro/internal/tpch"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor for the registered tables")
	data := flag.String("data", os.Getenv("TPCH_DATA_DIR"),
		"directory of pre-generated TPC-H tables (tpch-gen -binary); generated on the fly when empty or missing")
	useColstore := flag.Bool("colstore", false,
		"serve the tables from compressed colstore directories under -data (created there when missing) instead of RAM")
	parallelism := flag.Int("parallelism", 4, "default per-query worker fan-out (engine pool sizes to max(this, GOMAXPROCS))")
	maxConcurrent := flag.Int("max-concurrent", 0, "queries executing simultaneously (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "admission queue bound (0 = 4× max-concurrent)")
	queueWait := flag.Duration("queue-wait", 2*time.Second, "max admission wait before 429")
	defaultTimeout := flag.Duration("default-timeout", 30*time.Second, "deadline for requests that carry none")
	drainTimeout := flag.Duration("drain-timeout", 20*time.Second, "graceful shutdown budget")
	slowThreshold := flag.Duration("slow-threshold", time.Second,
		"queries at or above this duration land in the slow-query log with their trace (negative disables)")
	slowLogSize := flag.Int("slow-log", 32, "slow queries retained for GET /v1/slow")
	pprofAddr := flag.String("pprof", "",
		"serve net/http/pprof profiling endpoints on this separate address (e.g. localhost:6060); off when empty")
	flag.Parse()

	eng, err := advm.NewEngine(advm.WithParallelism(*parallelism))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	srv := server.New(eng, server.Config{
		MaxConcurrent:      *maxConcurrent,
		MaxQueue:           *maxQueue,
		QueueWait:          *queueWait,
		DefaultTimeout:     *defaultTimeout,
		SlowQueryThreshold: *slowThreshold,
		SlowLogSize:        *slowLogSize,
	})
	if *useColstore && *data == "" {
		log.Fatal("-colstore needs -data (or $TPCH_DATA_DIR) to hold the table directories")
	}
	for _, table := range []string{"lineitem", "orders", "customer"} {
		if *useColstore {
			dir, err := tpch.LoadOrGenColstore(*data, table, *sf, 42)
			if err != nil {
				log.Fatalf("loading %s: %v", table, err)
			}
			st, err := eng.OpenTable(dir) // engine-owned; released by eng.Close
			if err != nil {
				log.Fatalf("opening %s: %v", dir, err)
			}
			srv.RegisterTable(table, st)
			log.Printf("registered stored table %s (%d rows, %s)", table, st.Rows(), dir)
			continue
		}
		st, err := tpch.LoadOrGen(*data, table, *sf, 42)
		if err != nil {
			log.Fatalf("loading %s: %v", table, err)
		}
		srv.RegisterTable(table, st)
		log.Printf("registered table %s (%d rows)", table, st.Rows())
	}

	// Profiling stays off the query port: pprof exposes goroutine stacks and
	// heap contents, so it binds its own (typically loopback-only) address
	// and an explicit mux — never the query mux or http.DefaultServeMux.
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("advm-serve listening on %s (parallelism %d, sf %.3f)", *addr, *parallelism, *sf)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case got := <-sig:
		log.Printf("%v: draining (budget %v)", got, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain: %v (in-flight queries abandoned)", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	st := eng.Stats()
	fmt.Printf("served: sessions=%d prepares=%d cache_hits=%d parallel_queries=%d\n",
		st.Sessions, st.Prepares, st.CacheHits, st.ParallelQueries)
}
