// Package util is a NON-critical helper package: nothing is reported
// here, but taint facts are exported for the critical fixture that
// imports it.
package util

import (
	"math/rand"
	"sort"
	"time"
)

// Stamp launders a wall-clock read behind an innocent-looking helper.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// DeepStamp adds a second hop: taint must survive same-package
// propagation before it is exported.
func DeepStamp() int64 {
	return Stamp() + 1
}

// Jitter launders the process-global math/rand.
func Jitter() int64 {
	return rand.Int63n(100)
}

// UnsortedKeys leaks map-iteration order through its return value.
func UnsortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// SortedKeys is the sorted-map-fold idiom: iteration order is erased
// by the sort before the slice escapes. It must NOT be tainted.
func SortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// NestedFirst returns an outer key from inside an inner map loop: the
// outer loop's order escapes through the inner one.
func NestedFirst(m map[string]map[string]int) string {
	for k, inner := range m {
		for range inner {
			return k
		}
	}
	return ""
}

// Double is a plain pure helper: never tainted.
func Double(x int64) int64 {
	return 2 * x
}
