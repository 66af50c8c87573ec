// Package metrics is a dependency-free, allocation-light metrics
// registry for the daemon and the network layer, exposed in the
// Prometheus text format over HTTP (untyped samples — `name value` lines
// — which every Prometheus-compatible scraper accepts). It holds two
// kinds of series: one collector per component, reading the numbers the
// component owns, and the latency histograms of its stages. A component
// registers both through its one RegisterMetrics(*Registry) method.
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
)

// Registry holds the series of a daemon: the collectors and the
// histograms its components registered, each through its
// RegisterMetrics. All methods are safe for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	collectors []func(emit func(name string, value int64))
	hists      map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{hists: make(map[string]*Histogram)}
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

// Snapshot returns every collected series. Collectors run outside the
// registry lock, so they may themselves take locks, and may register
// collectors or histograms in this registry (but not call Snapshot: a
// collector that scrapes its own registry recurses).
func (r *Registry) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	r.mu.RLock()
	collectors := r.collectors // appended to, never rewritten: safe to range unlocked
	r.mu.RUnlock()
	for _, collect := range collectors {
		collect(func(name string, value int64) { out[name] = value })
	}
	return out
}

// WriteTo writes the metrics in the Prometheus text exposition format.
// All families — collected series and histograms — are merged and rendered in one pass sorted by family name, so scrapes
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
