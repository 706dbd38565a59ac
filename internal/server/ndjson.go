package server

import (
	"encoding/json"
	"net/http"

	"repro/advm"
	"repro/internal/qtrace"
)

// stream writes a query result as NDJSON: one meta record, then one JSON
// array per row, then one trailer record. It flushes after the meta record
// and every flushEvery rows, so clients see results chunk-at-a-time while
// the query is still running — the HTTP face of the cursor's lazy,
// chunk-at-a-time execution.
type stream struct {
	w          http.ResponseWriter
	fl         http.Flusher // nil when the writer cannot flush
	enc        *json.Encoder
	flushEvery int64
	rows       int64
	started    bool
}

func newStream(w http.ResponseWriter, flushEvery int) *stream {
	fl, _ := w.(http.Flusher)
	return &stream{w: w, fl: fl, enc: json.NewEncoder(w), flushEvery: int64(flushEvery)}
}

// streamMeta is the first NDJSON record of a query response.
type streamMeta struct {
	Columns []string `json:"columns"`
	Kinds   []string `json:"kinds"`
}

// streamTrailer is the last NDJSON record of a query response. A query that
// fails after streaming began reports the failure here (the HTTP status is
// already committed to 200 by then).
type streamTrailer struct {
	Rows      int64 `json:"rows"`
	Truncated bool  `json:"truncated,omitempty"`
	// Trace is the query's span tree, present when the request asked for
	// it with "trace": true.
	Trace  *qtrace.SpanJSON `json:"trace,omitempty"`
	Error  string           `json:"error,omitempty"`
	Status int              `json:"status,omitempty"`
}

// header commits the response: content type, status 200, the meta record,
// and a flush so clients unblock before the first row batch.
func (st *stream) header(columns []string, kinds []advm.Kind) error {
	st.w.Header().Set("Content-Type", "application/x-ndjson")
	st.w.Header().Set("X-Content-Type-Options", "nosniff")
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	st.started = true
	if err := st.enc.Encode(streamMeta{Columns: columns, Kinds: names}); err != nil {
		return err
	}
	st.flush()
	return nil
}

// row writes one result row and flushes at the configured cadence.
func (st *stream) row(vals []any) error {
	if err := st.enc.Encode(vals); err != nil {
		return err
	}
	st.rows++
	if st.rows%st.flushEvery == 0 {
		st.flush()
	}
	return nil
}

// trailer writes the final record (with Rows filled in) and flushes.
func (st *stream) trailer(t streamTrailer) {
	t.Rows = st.rows
	// A write error here means the client is gone; nothing left to do.
	_ = st.enc.Encode(t)
	st.flush()
}

func (st *stream) flush() {
	if st.fl != nil {
		st.fl.Flush()
	}
}
