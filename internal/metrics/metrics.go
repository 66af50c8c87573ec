// Package metrics is a dependency-free, allocation-light metrics
// registry for the daemon and the network layer: atomic counters and
// gauges, latency histograms, and one collector per component that owns
// its numbers elsewhere, exposed in the Prometheus text format over HTTP
// (untyped samples — `name value` lines — which every
// Prometheus-compatible scraper accepts).
//
// A collector is called once per scrape and reports all of its
// component's series from one snapshot, so the series of a scrape that
// come from the same component are mutually consistent and the component's
// lock is taken once, however many series it exports.
//
// The paper's DCS trade-offs (Section 4) are only observable if the
// running system exports its network and consensus activity; this
// package is the substrate the TCP transport, gossip layer, node, and
// ledgerd daemon all report into.
package metrics

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (may go up and down).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add shifts the gauge by delta (use negative deltas to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry holds named metrics. All methods are safe for concurrent
// use; Counter/Gauge lookups are get-or-create, so hot paths can cache
// the returned pointer and update it lock-free.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	collectors []func(emit func(name string, value int64))
	hists      map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// RegisterHistogram adds a histogram to the registry (a component creates
// its histograms standalone, through its obs.Observer, and attaches them
// to the daemon registry later). An existing histogram with the same name
// is kept — the caller's pointer still records, but the first-registered
// family is what renders, preventing duplicate series.
func (r *Registry) RegisterHistogram(h *Histogram) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.hists[h.Name()]; ok {
		return existing
	}
	r.hists[h.Name()] = h
	return h
}

// Collect registers a collector: collect is invoked once per Snapshot
// (and so once per scrape) and reports each series of its component
// through emit. Useful for exporting values owned by another subsystem
// (e.g. node consensus counters) without double bookkeeping, all read
// from one snapshot of it.
func (r *Registry) Collect(collect func(emit func(name string, value int64))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, collect)
}

// Snapshot returns a consistent-enough view of every metric. Collectors
// run outside the registry lock, so they may themselves take locks (and
// may even touch this registry).
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.RLock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = int64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	collectors := r.collectors // appended to, never rewritten: safe to range unlocked
	r.mu.RUnlock()
	for _, collect := range collectors {
		collect(func(name string, value int64) { out[name] = value })
	}
	return out
}

// WriteTo writes the metrics in the Prometheus text exposition format.
// All families — counters, gauges, collected series, and histograms —
// are merged and rendered in one pass sorted by family name, so scrapes
// are byte-stable for a given set of values (golden-testable) and
// histogram `_bucket/_sum/_count` series stay grouped.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	snap := r.Snapshot()
	r.mu.RLock()
	hists := maps.Clone(r.hists)
	r.mu.RUnlock()

	names := make([]string, 0, len(snap)+len(hists))
	for name := range snap {
		names = append(names, name)
	}
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	var written int64
	for _, name := range names {
		if h, ok := hists[name]; ok {
			n, err := h.writeTo(w)
			written += n
			if err != nil {
				return written, err
			}
			continue
		}
		n, err := fmt.Fprintf(w, "%s %d\n", name, snap[name])
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Handler serves the registry in the Prometheus text format — wire it
// under GET /metrics. The Content-Type carries the text-format version
// (`text/plain; version=0.0.4`) and families render in sorted order, so
// scrapes are stable across requests.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}
