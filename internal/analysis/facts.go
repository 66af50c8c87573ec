package analysis

import (
	"go/types"
	"reflect"
	"sync"
)

// A Fact is a per-function deduction one analyzer exports so that the
// analysis of *dependent* packages can consume it — the interprocedural
// half of the suite. Facts are computed once per package and kept in
// the run's in-process FactStore, where a dependent package's analysis
// imports them; they are never serialized.
//
// A Fact type is a pointer to a struct. Facts are keyed by (analyzer,
// function): the suite only needs function-granularity facts ("calls a
// wall clock", "spawns an unstoppable goroutine"), which keeps the
// object-addressing problem trivial — a function is addressed by its
// types.Func.FullName(), which is stable across separately
// type-checked package snapshots.
type Fact interface {
	// AFact is a marker method; it has no behavior.
	AFact()
}

// factKey addresses one fact in a store.
type factKey struct {
	Analyzer string // Analyzer.Name
	Func     string // types.Func.FullName(), e.g. "(*pkg.T).Method" or "pkg.Fn"
}

// A FactStore holds every fact exported during one analysis run. It is
// safe for concurrent use — the driver analyzes independent packages in
// parallel, publishing each package's facts before any dependent
// package starts.
type FactStore struct {
	mu sync.RWMutex
	m  map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]Fact)}
}

// put records one fact.
func (s *FactStore) put(key factKey, fact Fact) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = fact
}

// get returns the fact stored under key, or nil.
func (s *FactStore) get(key factKey) Fact {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[key]
}

// funcKey renders the store key for fn under analyzer a.
func funcKey(a *Analyzer, fn *types.Func) factKey {
	return factKey{Analyzer: a.Name, Func: fn.FullName()}
}

// ExportFunctionFact records fact for fn, visible to the analysis of
// every dependent package (and to later same-package queries). fn must
// be declared in the package under analysis.
func (p *Pass) ExportFunctionFact(fn *types.Func, fact Fact) {
	if fn == nil {
		return
	}
	p.Facts.put(funcKey(p.Analyzer, fn), fact)
}

// ImportFunctionFact copies the fact recorded for fn (by this
// analyzer, in any previously analyzed package — or this one) into
// *fact and reports whether one existed. fact must be a pointer of the
// same concrete type the fact was exported with.
func (p *Pass) ImportFunctionFact(fn *types.Func, fact Fact) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	got := p.Facts.get(funcKey(p.Analyzer, fn))
	if got == nil {
		return false
	}
	dv := reflect.ValueOf(fact)
	sv := reflect.ValueOf(got)
	if dv.Kind() != reflect.Pointer || sv.Kind() != reflect.Pointer || dv.Type() != sv.Type() {
		return false
	}
	dv.Elem().Set(sv.Elem())
	return true
}
