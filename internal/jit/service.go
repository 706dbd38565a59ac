package jit

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/depgraph"
	"repro/internal/nir"
)

// Internal sizing of a compile service, fixed like the fused-code cache's:
// code generation is background work that must never crowd out queries, the
// cache holds a few hundred shapes however many programs pass through, and a
// backlog longer than the queue bound is not worth waiting for.
const (
	maxCompileWorkers = 2
	maxTemplates      = 512
	maxQueuedCompiles = 256
)

// ErrDropped is returned (or passed to Request.Done) when a compile request
// was abandoned without generating code: the service was closed, its queue
// was full, or the requester reported itself gone.
var ErrDropped = errors.New("jit: compile dropped")

var (
	errClosed   = fmt.Errorf("%w: service closed", ErrDropped)
	errOverflow = fmt.Errorf("%w: queue full", ErrDropped)
	errGone     = fmt.Errorf("%w: requester gone", ErrDropped)
)

// Request asks a Service for the traces of one segment's fragments.
type Request struct {
	Prog  *nir.Program
	Graph *depgraph.Graph
	Frags []*depgraph.Fragment
	Opt   Options
	// Alive, when non-nil, is polled before code is generated on the
	// request's behalf; once it reports false the request is dropped. A
	// queued compile nobody waits for any more is skipped while other
	// compiles are waiting behind it; with the queue otherwise empty it is
	// still generated, for the next program of that shape.
	Alive func() bool
	// Done receives the outcome of a request Submit reported as pending:
	// one trace per fragment in Frags order, or an error. It is called
	// exactly once, on a service goroutine, with no service lock held.
	Done func(traces []*Trace, err error)
}

// Service is a JIT compile service: a template cache keyed by fragment shape
// in front of a bounded pool of background code generators. One engine owns
// one service and routes every VM through it — prepared programs and the
// relational layer's expression VMs alike — so a shape's modeled compile
// latency is paid once, by a worker, and every later program of that shape is
// served by patching its registers into the cached template.
//
// Workers are started on demand and exit when the queue is empty, so an idle
// service holds no goroutines; Close drops what is queued and joins the rest.
type Service struct {
	mu        sync.Mutex
	templates map[shapeKey]*templateEntry
	clock     int64
	flights   map[shapeKey]*flight // compiles queued or being generated
	queue     []*flight
	workers   int
	closed    bool
	quit      chan struct{}
	wg        sync.WaitGroup

	hits, misses, dropped int64
}

type templateEntry struct {
	tmpl *template
	use  int64
}

// flight is one template being generated, with everyone waiting for it.
type flight struct {
	key     shapeKey
	shape   *shape
	opt     Options // the first requester's; only the latency model is read
	waiters []waiter
}

// waiter is one fragment of a pending request.
type waiter struct {
	req *pending
	idx int
}

// pending is the service-side state of a request with at least one fragment
// still being generated (guarded by Service.mu).
type pending struct {
	Request
	bindings  []binding
	traces    []*Trace
	remaining int
	failed    bool
}

// NewService creates an idle compile service.
func NewService() *Service {
	return &Service{
		templates: make(map[shapeKey]*templateEntry),
		flights:   make(map[shapeKey]*flight),
		quit:      make(chan struct{}),
	}
}

// Submit resolves the request's fragments against the template cache without
// ever waiting for code generation. When every fragment's shape is cached the
// traces are returned directly (pending false). Otherwise the missing shapes
// are queued for the background workers — joining compiles already under way
// for the same shape — and pending is true: req.Done fires once they are all
// generated. A closed service or a full queue yields ErrDropped.
func (s *Service) Submit(req Request) (traces []*Trace, isPending bool, err error) {
	p := &pending{
		Request:  req,
		bindings: make([]binding, len(req.Frags)),
		traces:   make([]*Trace, len(req.Frags)),
	}
	shapes := make([]*shape, len(req.Frags))
	keys := make([]shapeKey, len(req.Frags))
	for i, f := range req.Frags {
		shapes[i], p.bindings[i] = shapeOf(req.Prog, req.Graph, f, req.Opt)
		keys[i] = shapes[i].key()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.dropped++
		return nil, false, errClosed
	}
	fresh := 0
	for i, k := range keys {
		if _, ok := s.templates[k]; ok {
			continue
		}
		if _, ok := s.flights[k]; !ok && !slices.Contains(keys[:i], k) {
			fresh++
		}
	}
	if len(s.queue)+fresh > maxQueuedCompiles {
		s.dropped++
		return nil, false, errOverflow
	}
	for i, k := range keys {
		if e, ok := s.templates[k]; ok {
			s.hits++
			s.clock++
			e.use = s.clock
			p.traces[i] = e.tmpl.bind(p.bindings[i], req.Opt, true)
			continue
		}
		f, ok := s.flights[k]
		if ok {
			s.hits++ // rides on a compile someone else is paying for
		} else {
			s.misses++
			f = &flight{key: k, shape: shapes[i], opt: req.Opt}
			s.flights[k] = f
			s.queue = append(s.queue, f)
		}
		f.waiters = append(f.waiters, waiter{req: p, idx: i})
		p.remaining++
	}
	if p.remaining == 0 {
		return p.traces, false, nil
	}
	// A worker lives until it finds the queue empty, so new work needs new
	// workers only while fewer than the maximum are alive.
	for ; fresh > 0 && s.workers < maxCompileWorkers; fresh-- {
		s.workers++
		s.wg.Add(1)
		go s.worker()
	}
	return nil, true, nil
}

// CompileNow is Submit for callers that want the traces before going on: it
// blocks until the request's templates are cached or generated (by a worker,
// through the same cache and single-flight as everything else). Only the
// VM's synchronous mode — deterministic tests — uses it.
func (s *Service) CompileNow(req Request) ([]*Trace, error) {
	type outcome struct {
		traces []*Trace
		err    error
	}
	done := make(chan outcome, 1)
	req.Done = func(traces []*Trace, err error) { done <- outcome{traces, err} }
	traces, isPending, err := s.Submit(req)
	if !isPending {
		return traces, err
	}
	out := <-done
	return out.traces, out.err
}

// worker drains the queue and exits when it is empty.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		if s.closed || len(s.queue) == 0 {
			s.workers--
			s.mu.Unlock()
			return
		}
		f := s.queue[0]
		s.queue[0] = nil // the backing array outlives the pop
		s.queue = s.queue[1:]
		// Requesters that went away while the job was queued no longer
		// count. With none left the compile is skipped in favour of the ones
		// queued behind it — but an idle worker generates it anyway: short
		// queries are gone before their lambdas' code is ready, and the
		// template is what lets the next query run compiled from the start.
		gone := s.pruneLocked(f)
		abandoned := len(f.waiters) == 0 && len(s.queue) > 0
		if abandoned {
			delete(s.flights, f.key)
			s.dropped++
		}
		s.mu.Unlock()
		fail(gone, errGone)
		if abandoned {
			continue
		}

		tmpl, err := compileTemplate(f.shape)
		if err == nil && !s.charge(f.opt.latency(tmpl.nodes)) {
			err = errClosed
		}
		s.publish(f, tmpl, err)
	}
}

// charge spends the modeled code-generation latency on the worker; false
// means the service was closed meanwhile.
func (s *Service) charge(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.quit:
		return false
	}
}

// publish caches a generated template and hands every waiter its trace.
func (s *Service) publish(f *flight, tmpl *template, err error) {
	s.mu.Lock()
	delete(s.flights, f.key)
	if err == nil {
		s.storeLocked(f.key, tmpl)
	} else if errors.Is(err, ErrDropped) {
		s.dropped++
	}
	var ready, failed []*pending
	for i, w := range f.waiters {
		p := w.req
		if p.failed {
			continue
		}
		if err != nil {
			p.failed = true
			failed = append(failed, p)
			continue
		}
		// The first waiter is the one the template was generated for; the
		// rest rode along.
		p.traces[w.idx] = tmpl.bind(p.bindings[w.idx], p.Opt, i > 0)
		if p.remaining--; p.remaining == 0 {
			ready = append(ready, p)
		}
	}
	s.mu.Unlock()
	fail(failed, err)
	for _, p := range ready {
		p.Done(p.traces, nil)
	}
}

// pruneLocked removes the flight's waiters whose requester is gone and
// returns the requests that failed as a result.
func (s *Service) pruneLocked(f *flight) (gone []*pending) {
	live := f.waiters[:0]
	for _, w := range f.waiters {
		switch {
		case w.req.failed:
		case w.req.Alive != nil && !w.req.Alive():
			w.req.failed = true
			gone = append(gone, w.req)
		default:
			live = append(live, w)
		}
	}
	f.waiters = live
	return gone
}

// storeLocked inserts a template, evicting the least recently used one on
// overflow. Traces already bound to an evicted template keep working; the
// shape is simply generated again the next time it shows up.
func (s *Service) storeLocked(k shapeKey, t *template) {
	if len(s.templates) >= maxTemplates {
		var victim shapeKey
		oldest := int64(-1)
		for key, e := range s.templates {
			if oldest < 0 || e.use < oldest {
				victim, oldest = key, e.use
			}
		}
		delete(s.templates, victim)
	}
	s.clock++
	s.templates[k] = &templateEntry{tmpl: t, use: s.clock}
}

// Close stops the service: queued compiles are dropped, the ones being
// generated are abandoned, every pending request's Done fires with
// ErrDropped, and Close returns once the workers have exited. Later Submits
// are dropped. Close is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.quit)
	var failed []*pending
	for _, f := range s.queue {
		delete(s.flights, f.key)
		s.dropped++
		for _, w := range f.waiters {
			if !w.req.failed {
				w.req.failed = true
				failed = append(failed, w.req)
			}
		}
	}
	s.queue = nil
	s.mu.Unlock()
	fail(failed, errClosed)
	s.wg.Wait()
}

// ServiceStats is a snapshot of a service's counters.
type ServiceStats struct {
	// Templates is the cache population. Hits counts fragment requests
	// served by a cached template or by joining a compile already under
	// way; Misses counts the compiles started (one per distinct shape not
	// yet cached). QueueDepth is the number of compiles queued or being
	// generated; Dropped counts compiles and requests abandoned because the
	// service closed, the queue was full or the requester was gone.
	Templates             int
	Hits, Misses, Dropped int64
	QueueDepth            int
}

// Stats snapshots the service's counters.
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ServiceStats{
		Templates: len(s.templates), Hits: s.hits, Misses: s.misses,
		Dropped: s.dropped, QueueDepth: len(s.flights),
	}
}

func fail(ps []*pending, err error) {
	for _, p := range ps {
		p.Done(nil, err)
	}
}
