package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/advm"
	"repro/internal/qtrace"
)

// statsResponse is the body of GET /v1/stats: the adaptive telemetry that
// makes the shared-VM amortization observable from outside — the engine's
// cache and pool counters, the admission controller, per-program VM stats
// (one profile and trace set per distinct program, however many clients),
// and where morsels actually ran.
type statsResponse struct {
	UptimeMS  int64           `json:"uptime_ms"`
	Engine    engineStatsJSON `json:"engine"`
	Admission admissionStats  `json:"admission"`
	Server    serverCounters  `json:"server"`
	Prepared  []preparedInfo  `json:"prepared"`
	// SegmentsScanned/SegmentsSkipped count colstore segments decoded vs
	// pruned by zone maps across every cached tenant session — nonzero only
	// when registered tables are disk-backed.
	SegmentsScanned int64 `json:"segments_scanned"`
	SegmentsSkipped int64 `json:"segments_skipped"`
	// Tiers is the hotness state of tiered execution per plan shape (numeric
	// literals elided): watching a repeated query climb cold → warm → hot
	// here is watching the engine decide to fuse its hot segment into a
	// specialized loop.
	Tiers []tierInfoJSON `json:"tiers,omitempty"`
}

type engineStatsJSON struct {
	Sessions         int64 `json:"sessions"`
	Prepares         int64 `json:"prepares"`
	CacheHits        int64 `json:"cache_hits"`
	CacheEvictions   int64 `json:"cache_evictions"`
	PreparedPrograms int   `json:"prepared_programs"`
	PoolCapacity     int   `json:"pool_capacity"`
	PoolInUse        int   `json:"pool_in_use"`
	ParallelQueries  int64 `json:"parallel_queries"`
	TierUps          int64 `json:"tier_ups"`
	FusedCompiles    int64 `json:"fused_compiles"`
	FusedCacheHits   int64 `json:"fused_cache_hits"`
	FusedPrograms    int   `json:"fused_programs"`
	FusedQueries     int64 `json:"fused_queries"`
	// The JIT template cache: trace code is generated once per fragment
	// shape and cached; see advm.EngineStats.
	JITTemplates      int   `json:"jit_templates"`
	JITTemplateHits   int64 `json:"jit_template_hits"`
	JITTemplateMisses int64 `json:"jit_template_misses"`
	JITBuildNanos     int64 `json:"jit_template_build_ns"`
	JITBindNanos      int64 `json:"jit_bind_ns"`
}

// tierInfoJSON is one plan shape's tiered-execution state.
type tierInfoJSON struct {
	Fingerprint string `json:"fingerprint"`
	Tier        string `json:"tier"`
	Execs       int64  `json:"execs"`
	FusedRuns   int64  `json:"fused_runs"`
}

type serverCounters struct {
	QueriesOK    int64 `json:"queries_ok"`
	QueriesErr   int64 `json:"queries_err"`
	ExecsOK      int64 `json:"execs_ok"`
	ExecsErr     int64 `json:"execs_err"`
	RowsStreamed int64 `json:"rows_streamed"`
	Disconnects  int64 `json:"disconnects"`
}

type preparedInfo struct {
	Fingerprint    string `json:"fingerprint"`
	Runs           int64  `json:"runs"`
	InjectedTraces int    `json:"injected_traces"`
	// TemplateHits counts the injected traces whose code the engine's
	// template cache already held (generated for an earlier program of the
	// same shape); TemplateMisses those generated for this program.
	TemplateHits   int    `json:"template_hits"`
	TemplateMisses int    `json:"template_misses"`
	State          string `json:"state"`
	// Tier classifies the program's cumulative run count against the
	// engine's tiered-execution thresholds: repeated /v1/exec of one
	// fingerprint walks it cold → warm → hot.
	Tier string `json:"tier"`
}

func engineJSON(st advm.EngineStats) engineStatsJSON {
	return engineStatsJSON{
		Sessions:         st.Sessions,
		Prepares:         st.Prepares,
		CacheHits:        st.CacheHits,
		CacheEvictions:   st.CacheEvictions,
		PreparedPrograms: st.PreparedPrograms,
		PoolCapacity:     st.PoolCapacity,
		PoolInUse:        st.PoolInUse,
		ParallelQueries:  st.ParallelQueries,
		TierUps:          st.TierUps,
		FusedCompiles:    st.FusedCompiles,
		FusedCacheHits:   st.FusedCacheHits,
		FusedPrograms:    st.FusedPrograms,
		FusedQueries:     st.FusedQueries,

		JITTemplates:      st.JITTemplates,
		JITTemplateHits:   st.JITTemplateHits,
		JITTemplateMisses: st.JITTemplateMisses,
		JITBuildNanos:     st.JITBuildNanos,
		JITBindNanos:      st.JITBindNanos,
	}
}

// snapshotStats assembles the full stats response.
func (s *Server) snapshotStats() statsResponse {
	engStats := s.eng.Stats()
	resp := statsResponse{
		UptimeMS:  time.Since(s.start).Milliseconds(),
		Engine:    engineJSON(engStats),
		Admission: s.adm.snapshot(),
		Server: serverCounters{
			QueriesOK:    s.queriesOK.Load(),
			QueriesErr:   s.queriesErr.Load(),
			ExecsOK:      s.execsOK.Load(),
			ExecsErr:     s.execsErr.Load(),
			RowsStreamed: s.rowsStreamed.Load(),
			Disconnects:  s.disconnects.Load(),
		},
	}
	for _, ti := range engStats.Tiers {
		resp.Tiers = append(resp.Tiers, tierInfoJSON{
			Fingerprint: ti.Fingerprint,
			Tier:        ti.Tier,
			Execs:       ti.Execs,
			FusedRuns:   ti.FusedRuns,
		})
	}

	s.mu.Lock()
	prepared := make([]*advm.Prepared, 0, len(s.prepared))
	for _, e := range s.prepared {
		prepared = append(prepared, e.p)
	}
	sessions := make([]*advm.Session, 0, len(s.sessions))
	for _, e := range s.sessions {
		sessions = append(sessions, e.sess)
	}
	s.mu.Unlock()

	for _, p := range prepared {
		st := p.Stats()
		resp.Prepared = append(resp.Prepared, preparedInfo{
			Fingerprint:    p.Fingerprint(),
			Runs:           st.Runs,
			InjectedTraces: st.InjectedTraces,
			TemplateHits:   st.TemplateHits,
			TemplateMisses: st.TemplateMisses,
			State:          st.State,
			Tier:           p.Tier(),
		})
	}
	sort.Slice(resp.Prepared, func(i, j int) bool {
		return resp.Prepared[i].Fingerprint < resp.Prepared[j].Fingerprint
	})

	for _, sess := range sessions {
		st := sess.Stats()
		resp.SegmentsScanned += st.SegmentsScanned
		resp.SegmentsSkipped += st.SegmentsSkipped
	}
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.snapshotStats())
}

// promSample is one sample line of a Prometheus series: an optional single
// label pair and a value.
type promSample struct {
	labelKey   string
	labelValue string
	value      float64
}

// promWriter renders Prometheus text exposition format (version 0.0.4) with
// the invariants a scraper's parser enforces: every series is announced by
// one # HELP and one # TYPE line before its samples, metric and label names
// match [a-zA-Z_:][a-zA-Z0-9_:]* (invalid characters are sanitized to '_'),
// and label values escape backslash, double-quote and newline. Hand-rolled
// so the repo needs no client library.
type promWriter struct {
	w io.Writer
}

// validMetricName reports whether s is a legal metric/label name.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// sanitizeMetricName replaces every illegal character with '_' (prefixing
// when the first character is an illegal digit), so dynamic name components
// can never corrupt the exposition.
func sanitizeMetricName(s string) string {
	if validMetricName(s) {
		return s
	}
	var b strings.Builder
	if s == "" {
		return "_"
	}
	if c := s[0]; c >= '0' && c <= '9' {
		b.WriteByte('_')
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9') {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double-quote and line feed.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP text: backslash and line feed (quotes are legal
// there).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// fmtValue renders a sample value the way Prometheus expects.
func fmtValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// series writes one complete series: HELP, TYPE, then every sample.
func (p *promWriter) series(name, typ, help string, samples ...promSample) {
	name = sanitizeMetricName(name)
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
	for _, sm := range samples {
		if sm.labelKey == "" {
			fmt.Fprintf(p.w, "%s %s\n", name, fmtValue(sm.value))
			continue
		}
		fmt.Fprintf(p.w, "%s{%s=%q} %s\n",
			name, sanitizeMetricName(sm.labelKey), escapeLabelValue(sm.labelValue), fmtValue(sm.value))
	}
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.series(name, "gauge", help, promSample{value: v})
}
func (p *promWriter) counter(name, help string, v float64) {
	p.series(name, "counter", help, promSample{value: v})
}

// histogram writes one labeled histogram: cumulative buckets, sum and count
// per label value, HELP/TYPE announced once. labelKey "" emits a single
// unlabeled histogram under the name.
func (p *promWriter) histogram(name, help, labelKey string, snaps map[string]qtrace.HistSnapshot) {
	name = sanitizeMetricName(name)
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s histogram\n", name, escapeHelp(help), name)
	labels := make([]string, 0, len(snaps))
	for lv := range snaps {
		labels = append(labels, lv)
	}
	sort.Strings(labels)
	for _, lv := range labels {
		snap := snaps[lv]
		prefix := ""
		if labelKey != "" {
			prefix = fmt.Sprintf("%s=%q,", sanitizeMetricName(labelKey), escapeLabelValue(lv))
		}
		var cum int64
		for i, bound := range snap.Bounds {
			cum += snap.Counts[i]
			fmt.Fprintf(p.w, "%s_bucket{%sle=%q} %d\n", name, prefix, fmtValue(bound), cum)
		}
		cum += snap.Counts[len(snap.Counts)-1]
		fmt.Fprintf(p.w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, cum)
		if labelKey == "" {
			fmt.Fprintf(p.w, "%s_sum %s\n%s_count %d\n", name, fmtValue(snap.Sum), name, snap.Count)
		} else {
			lp := fmt.Sprintf("{%s=%q}", sanitizeMetricName(labelKey), escapeLabelValue(lv))
			fmt.Fprintf(p.w, "%s_sum%s %s\n%s_count%s %d\n", name, lp, fmtValue(snap.Sum), name, lp, snap.Count)
		}
	}
}

// handleMetrics serves the same telemetry in Prometheus text exposition
// format (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.snapshotStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := &promWriter{w: w}

	p.gauge("advm_pool_capacity", "Morsel worker pool capacity.", float64(st.Engine.PoolCapacity))
	p.gauge("advm_pool_in_use", "Morsel workers currently granted to queries.", float64(st.Engine.PoolInUse))
	p.gauge("advm_prepared_programs", "Programs in the prepared-statement cache.", float64(st.Engine.PreparedPrograms))
	p.counter("advm_prepares_total", "Prepare calls.", float64(st.Engine.Prepares))
	p.counter("advm_prepare_cache_hits_total", "Prepare calls answered from the cache.", float64(st.Engine.CacheHits))
	p.counter("advm_prepare_cache_evictions_total", "LRU evictions from the prepared cache.", float64(st.Engine.CacheEvictions))
	p.counter("advm_sessions_total", "Sessions handed out by the engine.", float64(st.Engine.Sessions))
	p.counter("advm_parallel_queries_total", "Queries that executed with more than one worker.", float64(st.Engine.ParallelQueries))

	p.counter("advm_tier_ups_total", "Plan shapes crossing the warm or hot tier threshold.", float64(st.Engine.TierUps))
	p.counter("advm_fused_compiles_total", "Hot plan segments compiled into specialized fused loops.", float64(st.Engine.FusedCompiles))
	p.counter("advm_fused_cache_hits_total", "Fused-loop executions answered from the code cache.", float64(st.Engine.FusedCacheHits))
	p.gauge("advm_fused_programs", "Specialized programs resident in the fused code cache.", float64(st.Engine.FusedPrograms))
	p.counter("advm_fused_queries_total", "Queries that executed fused loops.", float64(st.Engine.FusedQueries))

	p.gauge("advm_jit_templates", "Fragment shapes whose trace code is resident in the template cache.", float64(st.Engine.JITTemplates))
	p.counter("advm_jit_template_hits_total", "Trace fragments served from a cached template.", float64(st.Engine.JITTemplateHits))
	p.counter("advm_jit_template_misses_total", "Templates generated, inline at the hot check that needed them.", float64(st.Engine.JITTemplateMisses))
	p.counter("advm_jit_template_build_seconds_total", "Time spent generating templates.", float64(st.Engine.JITBuildNanos)/1e9)
	p.counter("advm_jit_bind_seconds_total", "Time spent binding fragments to templates.", float64(st.Engine.JITBindNanos)/1e9)

	p.gauge("advm_server_inflight", "Queries currently executing.", float64(st.Admission.Running))
	p.gauge("advm_server_queue_depth", "Requests currently queued for admission.", float64(st.Admission.Queued))
	p.counter("advm_server_admitted_total", "Requests granted an execution slot.", float64(st.Admission.Admitted))
	p.counter("advm_server_queued_total", "Requests that waited in the admission queue.", float64(st.Admission.Waited))
	p.counter("advm_server_rejected_total", "Requests rejected with 429 (queue full or wait expired).", float64(st.Admission.Rejected))
	p.counter("advm_server_queue_expired_total", "Requests whose deadline expired while queued.", float64(st.Admission.Expired))

	p.series("advm_server_queries_total", "counter", "Completed /v1/query requests.",
		promSample{"status", "ok", float64(st.Server.QueriesOK)},
		promSample{"status", "error", float64(st.Server.QueriesErr)})
	p.series("advm_server_execs_total", "counter", "Completed /v1/exec requests.",
		promSample{"status", "ok", float64(st.Server.ExecsOK)},
		promSample{"status", "error", float64(st.Server.ExecsErr)})
	p.counter("advm_server_rows_streamed_total", "Result rows streamed to clients.", float64(st.Server.RowsStreamed))
	p.counter("advm_server_disconnects_total", "Streams abandoned by clients mid-query.", float64(st.Server.Disconnects))
	p.counter("advm_server_slow_queries_total", "Queries at or above the slow-query threshold.", float64(s.slowQueries.Load()))

	p.counter("advm_segments_scanned_total", "Colstore segments decoded by stored-table scans.", float64(st.SegmentsScanned))
	p.counter("advm_segments_skipped_total", "Colstore segments pruned by zone maps before decoding.", float64(st.SegmentsSkipped))

	durHs, opHs, admWait := s.histSnapshots()
	p.histogram("advm_query_duration_seconds", "Server-side wall time of completed /v1/query requests, per plan name.", "query", durHs)
	p.histogram("advm_operator_self_seconds", "Per-operator self time (busy minus child busy) of traced queries.", "op", opHs)
	p.histogram("advm_admission_wait_seconds", "Time admitted requests spent waiting for an execution slot.", "",
		map[string]qtrace.HistSnapshot{"": admWait})
}
