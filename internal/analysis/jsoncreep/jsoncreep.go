// Package jsoncreep implements the dcslint analyzer that keeps
// encoding/json out of the packages PR 6 converted to canonical binary
// codecs.
//
// The binary wire/storage formats exist for two consensus-critical
// reasons: they are canonical (one byte sequence per value, so hashes
// and signatures are stable across replicas) and they are bounded
// (lengths are validated before allocation). encoding/json is neither
// — map-key order and float formatting vary, and a decoder allocates
// whatever the input claims. A single convenient `json.Marshal` in a
// hot path silently reintroduces both failure modes, so the guard is
// mechanical: the converted packages (p2p, consensus, state/snapshot,
// WAL, nodestore, seglog, and the wire substrate itself) must not import
// encoding/json at all. CLI and HTTP tooling keep JSON; this analyzer
// never fires there.
package jsoncreep

import (
	"strconv"

	"dcsledger/internal/analysis"
)

// Analyzer is the JSON-regression guard.
var Analyzer = &analysis.Analyzer{
	Name: "jsoncreep",
	Doc: "forbids importing encoding/json in packages converted to canonical " +
		"binary codecs (p2p, consensus, state, wal, nodestore, seglog, wire): JSON is " +
		"non-canonical and unbounded, which forks hashes and invites oversized " +
		"allocations on hot paths",
	Run: run,
}

// forbiddenMarkers are the binary-codec packages (and their subtrees).
var forbiddenMarkers = []string{
	"internal/p2p",
	"internal/consensus",
	"internal/state",
	"internal/wal",
	"internal/nodestore",
	"internal/seglog",
	"internal/wire",
}

func run(pass *analysis.Pass) error {
	if !analysis.InPackages(pass.Path, forbiddenMarkers) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || path != "encoding/json" {
				continue
			}
			pass.Reportf(imp.Pos(),
				"package %s imports encoding/json: this package was converted to the canonical binary codec (docs/WIRE.md) — JSON is non-canonical (forks hashes across replicas) and unbounded (allocates what the input claims); use internal/wire",
				pass.Path)
		}
	}
	return nil
}
