// Package critical exercises every determinism trigger; it is analyzed
// under a consensus-critical import path.
package critical

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"time"
)

// --- positive cases ---

func wallClock() int64 {
	t := time.Now() // want "call to time.Now in consensus-critical package"
	return t.UnixNano()
}

func wallSince(start time.Time) time.Duration {
	return time.Since(start) // want "call to time.Since in consensus-critical package"
}

func wallUntil(deadline time.Time) time.Duration {
	return time.Until(deadline) // want "call to time.Until in consensus-critical package"
}

func globalRand() int {
	return rand.Intn(10) // want "package-global rand.Intn"
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "package-global rand.Shuffle"
}

func orderLeak(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "map iteration order leaks into slice \"keys\""
	}
	return keys
}

func hashUnderRange(m map[string][]byte) [32]byte {
	h := sha256.New()
	for _, v := range m {
		h.Write(v) // want "hash state written during map iteration"
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// nestedHash is reported once, by the inner loop, not again by the
// outer one.
func nestedHash(m map[string]map[string][]byte) [32]byte {
	h := sha256.New()
	for _, inner := range m {
		for _, v := range inner {
			h.Write(v) // want "hash state written during map iteration"
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func callbackUnderRange(subs map[string]func(int)) {
	for id, fn := range subs {
		fn(len(id)) // want "callback invoked during map iteration"
	}
}

func firstMatchReturn(m map[string]int, min int) string {
	for k, v := range m {
		if v >= min {
			return k // want "return of a loop-dependent value inside map iteration"
		}
	}
	return ""
}

func pickSome(m map[string]int) string {
	var chosen string
	for k := range m {
		chosen = k
		break // want "break after capturing a map element"
	}
	return chosen
}

// --- negative cases ---

// seededRand injects a seeded generator: the approved pattern.
func seededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// sortedLeak appends map keys but sorts before use: deterministic.
func sortedLeak(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fold is an order-independent aggregation.
func fold(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// existence sets a flag and breaks without capturing the element.
func existence(m map[string]int, min int) bool {
	found := false
	for _, v := range m {
		if v >= min {
			found = true
			break
		}
	}
	return found
}

// keyedWrites build another map: keyed, hence order-independent.
func keyedWrites(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}
