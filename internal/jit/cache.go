package jit

import (
	"sync"
	"time"

	"repro/internal/depgraph"
	"repro/internal/nir"
)

// maxTemplates bounds a cache, fixed like the fused-code cache's: it holds a
// few hundred shapes however many programs pass through.
const maxTemplates = 512

// Cache is a template cache keyed by fragment shape. One engine owns one
// cache and routes every VM through it — prepared programs and the
// relational layer's expression VMs alike — so a shape's code is generated
// once, and every later program of that shape is served by patching its
// registers into the cached template.
//
// A missing template is generated inline, on the goroutine that asks for
// it: building one costs microseconds, less than interpreting one chunk.
// Generation runs under the cache lock, so concurrent requests for one
// shape build it exactly once.
type Cache struct {
	mu        sync.Mutex
	templates map[shapeKey]*templateEntry
	clock     int64

	hits, misses          int64
	buildNanos, bindNanos int64
}

type templateEntry struct {
	tmpl *template
	use  int64
}

// NewCache creates an empty template cache.
func NewCache() *Cache {
	return &Cache{templates: make(map[shapeKey]*templateEntry)}
}

// Traces returns one trace per fragment, in frags order: each fragment's
// template is looked up by shape — generated and cached when missing — and
// bound to the program's registers. When opt carries a CompileLatency model,
// the modeled cost of the templates this call generated is charged to the
// caller, after the cache lock is released; hits are never charged.
func (c *Cache) Traces(prog *nir.Program, g *depgraph.Graph, frags []*depgraph.Fragment, opt Options) ([]*Trace, error) {
	start := time.Now()
	shapes := make([]*shape, len(frags))
	bindings := make([]binding, len(frags))
	for i, f := range frags {
		shapes[i], bindings[i] = shapeOf(prog, g, f, opt)
	}
	bindNanos := time.Since(start).Nanoseconds()

	traces := make([]*Trace, len(frags))
	var built []int // node counts of the templates this call generated
	c.mu.Lock()
	for i, s := range shapes {
		k := s.key()
		e, hit := c.templates[k]
		if hit {
			c.hits++
		} else {
			genStart := time.Now()
			tmpl, err := compileTemplate(s)
			c.buildNanos += time.Since(genStart).Nanoseconds()
			if err != nil {
				c.bindNanos += bindNanos
				c.mu.Unlock()
				return nil, err
			}
			c.misses++
			e = c.storeLocked(k, tmpl)
			built = append(built, tmpl.nodes)
		}
		c.clock++
		e.use = c.clock
		bound := time.Now()
		traces[i] = e.tmpl.bind(bindings[i], hit)
		bindNanos += time.Since(bound).Nanoseconds()
	}
	c.bindNanos += bindNanos
	c.mu.Unlock()
	var charge time.Duration
	for _, n := range built {
		charge += opt.latency(n)
	}
	if charge > 0 {
		time.Sleep(charge)
	}
	return traces, nil
}

// storeLocked inserts a template, evicting the least recently used one on
// overflow. Traces already bound to an evicted template keep working; the
// shape is simply generated again the next time it shows up.
func (c *Cache) storeLocked(k shapeKey, t *template) *templateEntry {
	if len(c.templates) >= maxTemplates {
		var victim shapeKey
		oldest := int64(-1)
		for key, e := range c.templates {
			if oldest < 0 || e.use < oldest {
				victim, oldest = key, e.use
			}
		}
		delete(c.templates, victim)
	}
	c.clock++
	e := &templateEntry{tmpl: t, use: c.clock}
	c.templates[k] = e
	return e
}

// CacheStats is a snapshot of a cache's counters.
type CacheStats struct {
	// Templates is the cache population. Hits counts fragments served by a
	// cached template; Misses counts the templates generated (one per
	// distinct shape not yet cached).
	Templates    int
	Hits, Misses int64
	// BuildNanos is the time spent generating templates; BindNanos the time
	// spent deriving fragments' shapes and register bindings and patching
	// them into templates. Neither includes a modeled latency.
	BuildNanos, BindNanos int64
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Templates: len(c.templates), Hits: c.hits, Misses: c.misses,
		BuildNanos: c.buildNanos, BindNanos: c.bindNanos,
	}
}
