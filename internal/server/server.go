// Package server puts the adaptive VM behind a socket: a multi-tenant HTTP
// query service over one shared advm.Engine. The paper's adaptivity —
// profiling → fragment JIT → trace injection, tiered fused loops — pays
// off when a long-lived VM amortizes learning across repeated work, which
// is exactly the shape of a server process: every client that prepares the
// same program (by normalized-IR fingerprint) drives the same VM, and every
// repeat of a query plan climbs the same tier entry.
//
// Endpoints:
//
//	POST /v1/query    named TPC-H plan or ad-hoc DSL pipeline; streams
//	                  chunked NDJSON straight off the Rows cursor
//	POST /v1/prepare  compile a DSL program into the engine-wide
//	                  fingerprint-keyed prepared cache
//	POST /v1/exec     run a prepared program (by fingerprint or source)
//	GET  /v1/stats    JSON snapshot: engine, admission, per-program VM stats
//	GET  /metrics     Prometheus text format
//
// The serving machinery is the point: admission control bounds concurrent
// queries (bounded FIFO queue, deadline-aware waits, 429 + Retry-After on
// overload) above the engine's worker pool (which degrades each query
// toward serial under contention), client disconnects cancel queries at the
// next chunk boundary and return pooled workers, and Drain supports
// graceful SIGTERM shutdown.
package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/advm"
	"repro/internal/qtrace"
)

// Server serves one advm.Engine over HTTP. Create it with New, register
// tables, and mount it (it implements http.Handler).
type Server struct {
	eng *advm.Engine
	cfg Config
	adm *admission
	mux *http.ServeMux

	start time.Time

	mu       sync.Mutex
	tables   map[string]advm.TableSource
	sessions map[sessKey]*sessEntry
	prepared map[string]*prepEntry
	lruClock int64 // shared last-use stamp for both LRU caches

	// Response counters (atomics; read by /v1/stats and /metrics).
	queriesOK    atomic.Int64
	queriesErr   atomic.Int64
	execsOK      atomic.Int64
	execsErr     atomic.Int64
	rowsStreamed atomic.Int64
	disconnects  atomic.Int64
	slowQueries  atomic.Int64

	// Observability state (see observe.go).
	slow     *slowLog
	histMu   sync.Mutex
	durHists map[string]*qtrace.Histogram // query duration per plan name
	opHists  map[string]*qtrace.Histogram // operator self time per op name
	admWait  *qtrace.Histogram            // admission wait of admitted requests
}

// sessKey identifies one per-tenant session-option combination; concurrent
// requests with the same options share one engine session (sessions are
// concurrency-safe), so their segment counters accumulate in one place.
type sessKey struct {
	parallelism int
	morselLen   int
	chunkLen    int
}

// sessEntry is one cached tenant session with its last-use stamp.
type sessEntry struct {
	sess *advm.Session
	use  int64
}

// prepEntry is one fingerprint-indexed prepared program with its last-use
// stamp.
type prepEntry struct {
	p   *advm.Prepared
	use int64
}

// maxCachedSessions and maxPreparedIndex bound the per-option session cache
// and the fingerprint → Prepared index. Both evict least-recently-used on
// overflow: a tenant cycling through junk option combos or distinct
// programs recycles slots instead of growing the server (each retained
// Prepared pins a whole VM — unbounded retention would defeat the engine's
// own LRU, whose point is bounding VM memory).
const (
	maxCachedSessions = 64
	maxPreparedIndex  = 256
)

// New creates a server over eng. The engine stays owned by the caller
// (closing it is the caller's job, after Drain).
func New(eng *advm.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults(eng.Stats().PoolCapacity)
	s := &Server{
		eng:      eng,
		cfg:      cfg,
		adm:      newAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		tables:   make(map[string]advm.TableSource),
		sessions: make(map[sessKey]*sessEntry),
		prepared: make(map[string]*prepEntry),
		slow:     newSlowLog(cfg.SlowLogSize),
		durHists: make(map[string]*qtrace.Histogram),
		opHists:  make(map[string]*qtrace.Histogram),
		admWait:  qtrace.NewHistogram(),
	}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/prepare", s.handlePrepare)
	s.mux.HandleFunc("POST /v1/exec", s.handleExec)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/slow", s.handleSlow)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Engine returns the engine the server fronts.
func (s *Server) Engine() *advm.Engine { return s.eng }

// Config returns the resolved configuration.
func (s *Server) Config() Config { return s.cfg }

// RegisterTable makes a table source queryable under the given name — an
// in-RAM *advm.Table or a disk-backed *advm.StoredTable opened from a
// colstore directory (whose scans then prune segments via zone maps; the
// skip counters show up in /v1/stats and /metrics). Sources are read-only
// once registered (queries scan them concurrently). A registered stored
// table stays owned by the caller: close it only after the server drains.
func (s *Server) RegisterTable(name string, t advm.TableSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[name] = t
}

func (s *Server) lookupTable(name string) (advm.TableSource, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	return t, ok
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain gracefully shuts the query paths down: new queries and executions
// get 503 immediately, queued requests are bounced, and Drain returns when
// the in-flight ones have finished streaming (or ctx expires, leaving them
// to the caller's http.Server shutdown). Stats and metrics keep serving.
func (s *Server) Drain(ctx context.Context) error {
	return s.adm.drain(ctx)
}

// session returns the shared session for one option combination, creating
// and caching it on first use. A full cache evicts the least-recently-used
// combination — without closing it: concurrent requests may still be
// executing on the evicted session, which is a flyweight handle whose only
// cost is the segment counters that stop being aggregated.
func (s *Server) session(key sessKey, opts []advm.Option) (*advm.Session, error) {
	s.mu.Lock()
	if e, ok := s.sessions[key]; ok {
		s.lruClock++
		e.use = s.lruClock
		s.mu.Unlock()
		return e.sess, nil
	}
	s.mu.Unlock()
	sess, err := s.eng.Session(opts...)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.sessions[key]; ok {
		// Lost the race: use the winner, drop ours (engine sessions hold no
		// resources, but keep the cache single-entry-per-key).
		sess.Close()
		s.lruClock++
		e.use = s.lruClock
		return e.sess, nil
	}
	if len(s.sessions) >= maxCachedSessions {
		var victim sessKey
		var oldest *sessEntry
		for k, e := range s.sessions {
			if oldest == nil || e.use < oldest.use {
				victim, oldest = k, e
			}
		}
		delete(s.sessions, victim)
	}
	s.lruClock++
	s.sessions[key] = &sessEntry{sess: sess, use: s.lruClock}
	return sess, nil
}

// preparedByFingerprint returns a previously prepared program.
func (s *Server) preparedByFingerprint(fp string) (*advm.Prepared, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.prepared[fp]
	if !ok {
		return nil, false
	}
	s.lruClock++
	e.use = s.lruClock
	return e.p, true
}

// rememberPrepared indexes a prepared handle under its fingerprint; it
// reports whether the server already knew the program (the engine-level
// cache dedupes VMs either way — this is the serving-layer index that lets
// /v1/exec address programs by fingerprint alone). A full index evicts the
// least-recently-used program: dropping the handle lets the engine's own
// LRU actually free the VM once no client holds it.
func (s *Server) rememberPrepared(p *advm.Prepared) (known bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fp := p.Fingerprint()
	if e, ok := s.prepared[fp]; ok {
		s.lruClock++
		e.use = s.lruClock
		return true
	}
	if len(s.prepared) >= maxPreparedIndex {
		var victim string
		var oldest *prepEntry
		for k, e := range s.prepared {
			if oldest == nil || e.use < oldest.use {
				victim, oldest = k, e
			}
		}
		delete(s.prepared, victim)
	}
	s.lruClock++
	s.prepared[fp] = &prepEntry{p: p, use: s.lruClock}
	return false
}
