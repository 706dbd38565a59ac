package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer. Spans of
// one op share Op; Parent is 0 for a root.
type span struct {
	ID     int32
	Parent int32
	Op     int64
	Tid    int // 0 = main goroutine, 1.. = serve_mix connections
	Name   string
	Start  int64 // ns since the tracer started
	End    int64
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int32, op int64, tid int, name string) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Tid: tid, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its direct children cover (overlapping children are not counted twice).
func selfTimes(spans []span) map[int32]int64 {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans as Chrome trace-event JSON (the subset
// cmd/tracecheck validates): one complete event per span whose args carry
// the span id, its parent, the op it belongs to and its self time.
func (t *tracer) write(path, workload string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	end := int64(time.Since(t.t0))
	for i := range spans {
		if spans[i].End < 0 { // still open when the run ended
			spans[i].End = end
		}
	}
	self := selfTimes(spans)
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "advm benchmark " + workload}}}
	named := map[int]bool{}
	for _, s := range spans {
		if !named[s.Tid] {
			named[s.Tid] = true
			name := "main"
			if s.Tid > 0 {
				name = "connection"
			}
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.Tid, Args: map[string]any{"name": name}})
		}
		dur := float64(s.End-s.Start) / 1e3
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: &dur, Pid: 1, Tid: s.Tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "self_us": float64(self[s.ID]) / 1e3},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
