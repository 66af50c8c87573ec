// Package laundered is analyzed under a consensus-critical import path
// and imports the util fixture: cross-package taint arrives via facts,
// same-package taint via the local call graph.
package laundered

import (
	"time"

	"dcsledger/internal/util"
)

// localStamp is a same-package launderer. Its own time.Now call is
// reported where it is written, and so is every call site of
// localStamp.
func localStamp() int64 {
	return time.Now().UnixNano() // want "call to time.Now"
}

// localDeep proves same-package transitive propagation.
func localDeep() int64 {
	return localStamp() // want "call to localStamp in consensus-critical package .* reaches a wall clock .*via localStamp → time.Now"
}

func proposeDeadline() int64 {
	return localDeep() // want "call to localDeep in consensus-critical package .* reaches a wall clock"
}

func crossStamp() int64 {
	return util.Stamp() // want "call to Stamp in consensus-critical package .* reaches a wall clock .*via Stamp → time.Now"
}

func crossDeep() int64 {
	return util.DeepStamp() // want "call to DeepStamp in consensus-critical package .* reaches a wall clock .*via DeepStamp → Stamp → time.Now"
}

func crossJitter() int64 {
	return util.Jitter() // want "call to Jitter in consensus-critical package .* reaches process-global math/rand"
}

func crossOrder(m map[string]int) []string {
	return util.UnsortedKeys(m) // want "call to UnsortedKeys in consensus-critical package .* reaches map-iteration order"
}

func crossNested(m map[string]map[string]int) string {
	return util.NestedFirst(m) // want "call to NestedFirst in consensus-critical package .* reaches map-iteration order"
}

// sortedFold is the negative case the acceptance criterion names: a
// sorted-map-fold helper is deterministic and must stay clean.
func sortedFold(m map[string]int) []string {
	return util.SortedKeys(m)
}

func pure() int64 {
	return util.Double(21)
}

func suppressed() int64 {
	//dcslint:ignore determinism deadline is operator-facing only, never hashed or compared across replicas
	return util.Stamp()
}
