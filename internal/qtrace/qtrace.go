// Package qtrace is a low-overhead query-execution tracing layer. A Trace
// owns a flat, append-only list of spans forming a tree: one root query
// span, one span per plan-node operator, and (at LevelMorsels) one leaf
// span per morsel executed by a dispatch loop, plus zero-duration event
// spans for one-off occurrences (fused compile, cache hit, ...).
//
// The package is designed so that disabled tracing costs a single nil
// check: every method on *Trace and *Span is safe to call on a nil
// receiver and returns immediately, allocating nothing unless its
// arguments are boxed at the call site (SetAttr, Event with attrs).
// Hot-path counters (busy time, rows, loops) are atomics so concurrently
// executing workers can share one operator span without locking.
package qtrace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Level selects how much execution tracing a query records.
type Level int

const (
	// LevelOff records nothing; tracing calls reduce to nil checks.
	LevelOff Level = iota
	// LevelOps records the query/operator span tree and event spans.
	LevelOps
	// LevelMorsels additionally records one leaf span per morsel
	// executed by parallel dispatch loops (worker and steal attribution).
	LevelMorsels
)

func (l Level) String() string {
	switch l {
	case LevelOff:
		return "off"
	case LevelOps:
		return "ops"
	case LevelMorsels:
		return "morsels"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ParseLevel converts a string flag value into a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "off", "":
		return LevelOff, nil
	case "ops":
		return LevelOps, nil
	case "morsels":
		return LevelMorsels, nil
	default:
		return LevelOff, fmt.Errorf("qtrace: unknown trace level %q (want off, ops, or morsels)", s)
	}
}

// Kind classifies a span.
type Kind uint8

const (
	// KindQuery is the root span covering the whole query.
	KindQuery Kind = iota
	// KindOp is a plan-node operator span.
	KindOp
	// KindMorsel is a per-morsel leaf span under a dispatching operator.
	KindMorsel
	// KindEvent is a zero-duration marker (compile, cache hit, ...).
	KindEvent
)

func (k Kind) String() string {
	switch k {
	case KindQuery:
		return "query"
	case KindOp:
		return "op"
	case KindMorsel:
		return "morsel"
	case KindEvent:
		return "event"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Attr is one key/value span attribute.
type Attr struct {
	Key   string
	Value any
}

// Span is one node in the trace tree. Timing counters are atomics so
// multiple workers may share a span; attrs are mutex-guarded.
type Span struct {
	tr     *Trace
	id     int32
	parent int32 // -1 for a root span

	kind  Kind
	name  string
	start int64 // ns since trace epoch

	busy   atomic.Int64 // accumulated operator time across workers, ns
	rows   atomic.Int64
	loops  atomic.Int64
	worker atomic.Int32 // executing worker, -1 if unattributed

	mu    sync.Mutex
	end   int64 // ns since trace epoch; 0 = still open
	attrs []Attr
}

// Trace collects the spans of one query execution.
type Trace struct {
	level Level
	epoch time.Time

	mu    sync.Mutex
	spans []*Span
}

// New returns a trace recording at the given level, or nil for LevelOff.
func New(level Level) *Trace {
	if level <= LevelOff {
		return nil
	}
	return &Trace{level: level, epoch: time.Now()}
}

// Enabled reports whether the trace records anything.
func (t *Trace) Enabled() bool { return t != nil }

// Level returns the recording level (LevelOff for a nil trace).
func (t *Trace) Level() Level {
	if t == nil {
		return LevelOff
	}
	return t.level
}

// Morsels reports whether per-morsel leaf spans are recorded.
func (t *Trace) Morsels() bool { return t != nil && t.level >= LevelMorsels }

// Now returns nanoseconds since the trace epoch (0 for a nil trace).
func (t *Trace) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *Trace) newSpan(parent int32, kind Kind, name string) *Span {
	s := &Span{tr: t, parent: parent, kind: kind, name: name, start: t.Now()}
	s.worker.Store(-1)
	t.mu.Lock()
	s.id = int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Root starts a new top-level span (typically the single query span).
func (t *Trace) Root(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(-1, KindQuery, name)
}

// Child starts a child span under s.
func (s *Span) Child(kind Kind, name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(s.id, kind, name)
}

// Event records a zero-duration marker span under parent (or at the root
// when parent is nil).
//
// Unlike the other hooks, Event with attrs is not free on a nil trace: a
// non-constant attr Value is boxed into an any at the call site, before
// the nil check runs, and that costs an allocation. Callers that pass
// attrs on a hot path must check the trace for nil first.
func (t *Trace) Event(parent *Span, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	pid := int32(-1)
	if parent != nil {
		pid = parent.id
	}
	s := t.newSpan(pid, KindEvent, name)
	s.mu.Lock()
	s.end = s.start
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// Spans returns a snapshot of all spans recorded so far, in creation order.
func (t *Trace) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]*Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	return out
}

// Finish closes every span that is still open (root last-write-wins).
// Call once when the query completes; rendering open spans is undefined.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	now := t.Now()
	for _, s := range t.Spans() {
		s.mu.Lock()
		if s.end == 0 {
			s.end = now
		}
		s.mu.Unlock()
	}
}

// End closes the span. Concurrent or repeated calls keep the latest end
// time, so a span shared by several worker pipelines ends when the last
// one closes.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tr.Now()
	s.mu.Lock()
	if now > s.end {
		s.end = now
	}
	s.mu.Unlock()
}

// AddTime accumulates operator busy time.
func (s *Span) AddTime(d time.Duration) {
	if s == nil {
		return
	}
	s.busy.Add(int64(d))
}

// AddRows accumulates rows produced.
func (s *Span) AddRows(n int64) {
	if s == nil {
		return
	}
	s.rows.Add(n)
}

// AddLoop counts one Next (or morsel) invocation.
func (s *Span) AddLoop() {
	if s == nil {
		return
	}
	s.loops.Add(1)
}

// SetWorker attributes the span to a worker index.
func (s *Span) SetWorker(w int) {
	if s == nil {
		return
	}
	s.worker.Store(int32(w))
}

// SetAttr sets (or replaces) an attribute.
//
// Unlike the other hooks, SetAttr is not free on a nil span: a non-constant
// v is boxed into an any at the call site, before the nil check runs, and
// that costs an allocation. Callers on a hot path must check the span for
// nil first.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = v
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
	s.mu.Unlock()
}

// Accessors (all safe on nil, returning zero values).

// ID returns the span's index in the trace.
func (s *Span) ID() int32 {
	if s == nil {
		return -1
	}
	return s.id
}

// Parent returns the parent span's ID, or -1 for a root span.
func (s *Span) Parent() int32 {
	if s == nil {
		return -1
	}
	return s.parent
}

// Kind returns the span kind.
func (s *Span) Kind() Kind {
	if s == nil {
		return KindEvent
	}
	return s.kind
}

// Name returns the span name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// StartNs returns the start offset from the trace epoch in nanoseconds.
func (s *Span) StartNs() int64 {
	if s == nil {
		return 0
	}
	return s.start
}

// EndNs returns the end offset from the trace epoch (0 if still open).
func (s *Span) EndNs() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// DurNs returns end-start (0 if still open).
func (s *Span) DurNs() int64 {
	if s == nil {
		return 0
	}
	if e := s.EndNs(); e > s.start {
		return e - s.start
	}
	return 0
}

// BusyNs returns accumulated operator time across workers.
func (s *Span) BusyNs() int64 {
	if s == nil {
		return 0
	}
	return s.busy.Load()
}

// Rows returns accumulated rows produced.
func (s *Span) Rows() int64 {
	if s == nil {
		return 0
	}
	return s.rows.Load()
}

// Loops returns the number of Next/morsel invocations.
func (s *Span) Loops() int64 {
	if s == nil {
		return 0
	}
	return s.loops.Load()
}

// Worker returns the attributed worker index, or -1.
func (s *Span) Worker() int {
	if s == nil {
		return -1
	}
	return int(s.worker.Load())
}

// Attrs returns a copy of the span's attributes in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Attr returns the value for key, or nil.
func (s *Span) Attr(key string) any {
	for _, a := range s.Attrs() {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// node assembles the span tree for rendering/export.
type node struct {
	s        *Span
	children []*node
}

// tree returns the root nodes of the span forest in creation order.
// Children are ordered by creation; KindMorsel children are additionally
// sorted by their "seq" attribute so parallel runs render deterministically.
func (t *Trace) tree() []*node {
	spans := t.Spans()
	nodes := make([]*node, len(spans))
	for i, s := range spans {
		nodes[i] = &node{s: s}
	}
	var roots []*node
	for i, s := range spans {
		if p := s.Parent(); p >= 0 && int(p) < len(nodes) {
			nodes[p].children = append(nodes[p].children, nodes[i])
		} else {
			roots = append(roots, nodes[i])
		}
	}
	for _, n := range nodes {
		sortMorselChildren(n.children)
	}
	return roots
}

// sortMorselChildren reorders runs of morsel-leaf siblings by morsel
// sequence number; append order under parallel execution is racy.
func sortMorselChildren(children []*node) {
	sort.SliceStable(children, func(i, j int) bool {
		a, b := children[i], children[j]
		if a.s.Kind() != KindMorsel || b.s.Kind() != KindMorsel {
			return false // keep creation order for non-morsel siblings
		}
		return morselSeq(a.s) < morselSeq(b.s)
	})
}

func morselSeq(s *Span) int64 {
	if v, ok := s.Attr("seq").(int); ok {
		return int64(v)
	}
	if v, ok := s.Attr("seq").(int64); ok {
		return v
	}
	return -1
}

// selfNs returns the span's busy time minus the busy time of its nearest
// timed KindOp descendants, clamped at zero. Morsel leaves and events don't
// carry busy time of their own accounting stream, so they're excluded.
func (n *node) selfNs() int64 {
	return max(n.s.BusyNs()-n.timedBelowNs(), 0)
}

// timedBelowNs sums the busy time of the nearest KindOp descendants that
// report any: an op child reporting none — a fused stage folded into the
// span above it — is looked through, so the time of the scan under it is
// not counted twice.
func (n *node) timedBelowNs() int64 {
	var ns int64
	for _, c := range n.children {
		if c.s.Kind() != KindOp {
			continue
		}
		if b := c.s.BusyNs(); b > 0 {
			ns += b
		} else {
			ns += c.timedBelowNs()
		}
	}
	return ns
}

// OpSelfTimes returns per-operator-name self time (busy minus the nearest
// timed operator descendants' busy, clamped ≥ 0) in nanoseconds, summed
// over all KindOp spans. Used to feed per-operator latency histograms.
func (t *Trace) OpSelfTimes() map[string]int64 {
	if t == nil {
		return nil
	}
	out := make(map[string]int64)
	var walk func(n *node)
	walk = func(n *node) {
		if n.s.Kind() == KindOp {
			out[n.s.Name()] += n.selfNs()
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, r := range t.tree() {
		walk(r)
	}
	return out
}
