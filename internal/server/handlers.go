package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/advm"
)

// errorResponse is the JSON body of every non-streaming failure.
type errorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...), Status: status})
}

// decodeJSON reads a size-capped JSON request body.
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("malformed request body: %w", err)
	}
	return nil
}

// requestContext derives the per-request execution context from the
// request's own deadline, clamped to the server's maximum and defaulted
// when absent.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(r.Context(), timeout)
}

// admit acquires an admission slot, waiting at most the queue wait (or the
// request's own deadline, whichever ends first). On failure it writes the
// response — 429 with Retry-After when the server is saturated, 503 while
// draining, 504 when the request deadline expired in the queue — and
// returns false. The caller must release exactly once when admit succeeds.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) bool {
	waitCtx, cancel := context.WithTimeout(ctx, s.cfg.QueueWait)
	err := s.adm.acquire(waitCtx)
	cancel()
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrOverloaded):
		s.writeOverloaded(w, "overloaded: admission queue is full")
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, "server is draining")
	case ctx.Err() != nil:
		// The request's own context ended while queued.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			httpError(w, http.StatusGatewayTimeout, "deadline exceeded while queued for admission")
		}
		// Client disconnected: nothing useful to write.
	default:
		// Only the queue-wait timer expired: the server is saturated but
		// the request could still be retried.
		s.writeOverloaded(w, "overloaded: gave up after queueing %v", s.cfg.QueueWait)
	}
	return false
}

func (s *Server) writeOverloaded(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	httpError(w, http.StatusTooManyRequests, format, args...)
}

// statusFor maps the advm error taxonomy onto HTTP statuses. code 0 means
// "client is gone, write nothing".
func statusFor(ctx context.Context, err error) int {
	switch {
	case errors.Is(err, advm.ErrCompile), errors.Is(err, advm.ErrBind):
		return http.StatusBadRequest
	case errors.Is(err, advm.ErrCancelled):
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return http.StatusGatewayTimeout
		}
		return 0 // client cancelled
	case errors.Is(err, advm.ErrClosed):
		return http.StatusServiceUnavailable
	}
	var bad *badRequestError
	if errors.As(err, &bad) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// handleQuery serves POST /v1/query: admission, plan building, streaming
// NDJSON execution.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	admitStart := time.Now()
	if !s.admit(ctx, w) {
		s.queriesErr.Add(1)
		return
	}
	s.admWait.Observe(time.Since(admitStart))
	defer s.adm.release()

	key, opts, err := s.parseSessionOpts(req.Opts)
	if err != nil {
		s.queriesErr.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	plan, err := s.buildPlan(&req)
	if err != nil {
		s.queriesErr.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sess, err := s.session(key, opts)
	if err != nil {
		s.queriesErr.Add(1)
		httpError(w, statusFor(ctx, err), "%v", err)
		return
	}

	// Trace level: the client asking for the trace back gets the full
	// morsel-level tree; otherwise an enabled slow-query log keeps every
	// query traced at the cheap ops level so a slow one can be explained
	// after the fact.
	level := advm.TraceOff
	switch {
	case req.Trace:
		level = advm.TraceMorsels
	case s.cfg.SlowQueryThreshold > 0:
		level = advm.TraceOps
	}
	planName := req.Query
	if planName == "" {
		planName = "adhoc"
	}

	queryStart := time.Now()
	rows, err := sess.QueryTraced(ctx, plan, level)
	if err != nil {
		s.fail(ctx, w, err)
		return
	}
	defer rows.Close()

	// Pull the first row before committing the response status: pipeline
	// breakers (aggregations, join builds) do their work in the first Next,
	// so compile, bind and deadline failures surface here with a proper
	// status instead of a 200 followed by an error trailer.
	more := rows.Next()
	if !more {
		if err := rows.Err(); err != nil {
			s.fail(ctx, w, err)
			return
		}
	}

	st := newStream(w, s.cfg.FlushRows)
	if err := st.header(rows.Columns(), rows.ColumnKinds()); err != nil {
		s.queriesErr.Add(1)
		return
	}
	vals := make([]any, len(rows.Columns()))
	dests := make([]any, len(vals))
	for i := range vals {
		dests[i] = &vals[i]
	}
	truncated := false
	for more {
		if err := rows.Scan(dests...); err != nil {
			st.trailer(streamTrailer{Error: err.Error(), Status: http.StatusInternalServerError})
			s.queriesErr.Add(1)
			s.rowsStreamed.Add(st.rows)
			return
		}
		if err := st.row(vals); err != nil {
			// Client is gone; the deferred Close cancels the query.
			s.disconnects.Add(1)
			s.queriesErr.Add(1)
			s.rowsStreamed.Add(st.rows)
			return
		}
		if req.Limit > 0 && st.rows >= req.Limit {
			// Abandon the cursor: Close cancels the rest of the query and
			// returns its pooled workers.
			truncated = true
			break
		}
		more = rows.Next()
	}
	s.rowsStreamed.Add(st.rows)
	if err := rows.Err(); err != nil {
		status := statusFor(ctx, err)
		if status == 0 {
			s.disconnects.Add(1)
		}
		st.trailer(streamTrailer{Error: err.Error(), Status: status})
		s.queriesErr.Add(1)
		return
	}
	// Close before the trailer: the trace is finalized (spans ended,
	// summary attributes attached) when the cursor closes, and the
	// deferred second Close is a no-op.
	rows.Close()
	s.observe(planName, time.Since(queryStart), st.rows, rows.Trace())
	trailer := streamTrailer{Truncated: truncated}
	if req.Trace {
		trailer.Trace = rows.Trace().Tree()
	}
	st.trailer(trailer)
	s.queriesOK.Add(1)
}

// fail writes a pre-stream query failure (nothing has been sent yet).
func (s *Server) fail(ctx context.Context, w http.ResponseWriter, err error) {
	s.queriesErr.Add(1)
	status := statusFor(ctx, err)
	if status == 0 {
		s.disconnects.Add(1)
		return
	}
	httpError(w, status, "%v", err)
}

// prepareRequest is the body of POST /v1/prepare.
type prepareRequest struct {
	// Src is the DSL program source.
	Src string `json:"src"`
	// Externals maps external array names to element kinds ("i64", "f64"…).
	Externals map[string]string `json:"externals"`
}

type prepareResponse struct {
	// Fingerprint is the canonical fingerprint of the normalized program —
	// the engine-wide cache key, and the handle /v1/exec accepts.
	Fingerprint string `json:"fingerprint"`
	// Cached reports whether this server already had the program: every
	// client preparing the same program shares one VM (one profile, one
	// set of JIT traces) regardless.
	Cached bool `json:"cached"`
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req prepareRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Compilation is work too: it goes through the same admission bound as
	// queries, so a prepare burst degrades into 429s (and a draining server
	// answers 503) instead of unbounded concurrent compiles.
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	if !s.admit(ctx, w) {
		return
	}
	defer s.adm.release()
	externals, err := parseExternals(req.Externals)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p, err := s.eng.Prepare(req.Src, externals)
	if err != nil {
		httpError(w, statusFor(r.Context(), err), "%v", err)
		return
	}
	known := s.rememberPrepared(p)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(prepareResponse{Fingerprint: p.Fingerprint(), Cached: known})
}

func parseExternals(m map[string]string) (map[string]advm.Kind, error) {
	externals := make(map[string]advm.Kind, len(m))
	for name, kind := range m {
		k, err := advm.ParseKind(kind)
		if err != nil {
			return nil, fmt.Errorf("external %q: %w", name, err)
		}
		externals[name] = k
	}
	return externals, nil
}

// execRequest is the body of POST /v1/exec: run a prepared program against
// inline bindings. The program is addressed by fingerprint (from a prior
// /v1/prepare, possibly by a different client — the cache is shared) or
// inline by src+externals.
type execRequest struct {
	Fingerprint string            `json:"fingerprint,omitempty"`
	Src         string            `json:"src,omitempty"`
	Externals   map[string]string `json:"externals,omitempty"`
	// Bindings supplies one array per external: inputs carry values,
	// outputs carry a capacity and come back in the response.
	Bindings  map[string]bindingSpec `json:"bindings"`
	Opts      *sessionOpts           `json:"opts,omitempty"`
	TimeoutMS int64                  `json:"timeout_ms,omitempty"`
}

// bindingSpec is one external array of an execution.
type bindingSpec struct {
	Kind string `json:"kind"`
	// Values is the input data (absent for output arrays). Decoded lazily
	// per kind so int64 values round-trip exactly.
	Values json.RawMessage `json:"values,omitempty"`
	// Cap sizes output arrays (default 4096).
	Cap int `json:"cap,omitempty"`
}

type execResponse struct {
	// Outputs holds the final contents of every output binding (bindings
	// that carried no values).
	Outputs map[string][]any `json:"outputs"`
	// Runs counts completed executions of this shared program across all
	// clients — watching it grow across connections is watching the cache
	// share one VM.
	Runs int64 `json:"runs"`
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req execRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	if !s.admit(ctx, w) {
		s.execsErr.Add(1)
		return
	}
	defer s.adm.release()

	var prep *advm.Prepared
	switch {
	case req.Fingerprint != "":
		p, ok := s.preparedByFingerprint(req.Fingerprint)
		if !ok {
			s.execsErr.Add(1)
			httpError(w, http.StatusNotFound, "unknown fingerprint %q (POST /v1/prepare first)", req.Fingerprint)
			return
		}
		prep = p
	case req.Src != "":
		externals, err := parseExternals(req.Externals)
		if err != nil {
			s.execsErr.Add(1)
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		p, err := s.eng.Prepare(req.Src, externals)
		if err != nil {
			s.execsErr.Add(1)
			httpError(w, statusFor(ctx, err), "%v", err)
			return
		}
		s.rememberPrepared(p)
		prep = p
	default:
		s.execsErr.Add(1)
		httpError(w, http.StatusBadRequest, "exec needs a fingerprint or src")
		return
	}

	bindings := make(map[string]*advm.Vector, len(req.Bindings))
	outputs := make([]string, 0, len(req.Bindings))
	for name, spec := range req.Bindings {
		v, isOutput, err := buildVector(spec)
		if err != nil {
			s.execsErr.Add(1)
			httpError(w, http.StatusBadRequest, "binding %q: %v", name, err)
			return
		}
		bindings[name] = v
		if isOutput {
			outputs = append(outputs, name)
		}
	}

	key, opts, err := s.parseSessionOpts(req.Opts)
	if err != nil {
		s.execsErr.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sess, err := s.session(key, opts)
	if err != nil {
		s.execsErr.Add(1)
		httpError(w, statusFor(ctx, err), "%v", err)
		return
	}
	if err := sess.RunPrepared(ctx, prep, bindings); err != nil {
		s.execsErr.Add(1)
		if status := statusFor(ctx, err); status != 0 {
			httpError(w, status, "%v", err)
		}
		return
	}

	resp := execResponse{Outputs: make(map[string][]any, len(outputs)), Runs: prep.Stats().Runs}
	for _, name := range outputs {
		resp.Outputs[name] = vectorValues(bindings[name])
	}
	s.execsOK.Add(1)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// buildVector materializes one binding: values present → input vector of
// exactly those elements; absent → zero-length output vector with capacity.
func buildVector(spec bindingSpec) (v *advm.Vector, isOutput bool, err error) {
	kind, err := advm.ParseKind(spec.Kind)
	if err != nil {
		return nil, false, err
	}
	if spec.Values == nil {
		capacity := spec.Cap
		if capacity <= 0 {
			capacity = 4096
		}
		// Cap is a pre-allocation hint, not a limit (vectors grow on
		// demand), so clamping it cannot break a program — it only stops a
		// tiny request body from demanding gigabytes upfront.
		if capacity > maxExecCap {
			capacity = maxExecCap
		}
		return advm.NewVector(kind, 0, capacity), true, nil
	}
	switch kind {
	case advm.Bool:
		var xs []bool
		if err := json.Unmarshal(spec.Values, &xs); err != nil {
			return nil, false, err
		}
		return advm.FromBool(xs), false, nil
	case advm.F64:
		var xs []float64
		if err := json.Unmarshal(spec.Values, &xs); err != nil {
			return nil, false, err
		}
		return advm.FromF64(xs), false, nil
	case advm.Str:
		var xs []string
		if err := json.Unmarshal(spec.Values, &xs); err != nil {
			return nil, false, err
		}
		return advm.FromStr(xs), false, nil
	default: // integer kinds decode exactly as int64, then narrow
		var xs []int64
		if err := json.Unmarshal(spec.Values, &xs); err != nil {
			return nil, false, err
		}
		v := advm.NewVectorLen(kind, len(xs))
		for i, x := range xs {
			v.Set(i, advm.IntValue(kind, x))
		}
		return v, false, nil
	}
}

// maxExecCap bounds the upfront allocation of one output binding (in
// elements); vectors grow past it on demand.
const maxExecCap = 1 << 22

// vectorValues serializes a vector into JSON-encodable values.
func vectorValues(v *advm.Vector) []any {
	out := make([]any, v.Len())
	for i := range out {
		x := v.Get(i)
		switch x.Kind {
		case advm.Bool:
			out[i] = x.B
		case advm.F64:
			out[i] = x.F
		case advm.Str:
			out[i] = x.S
		default:
			out[i] = x.I
		}
	}
	return out
}
