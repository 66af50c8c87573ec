package bench

// statebench.go measures the disk-backed authenticated state store:
// how fast an account trie of N keys builds against a nodestore with a
// bounded decoded-node cache, how much disk it occupies, that the cache
// accounting stays inside its budget while it happens, and what a
// point read and a Merkle proof cost against the committed root with
// only the cache in front of disk.

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"dcsledger/internal/cryptoutil"
	"dcsledger/internal/mpt"
	"dcsledger/internal/nodestore"
)

// stateChunk is how many keys are inserted between commits: each chunk
// loads the trie fresh by root, so in-RAM trie nodes never exceed one
// chunk and RAM is bounded by the store's cache, not the key count.
const stateChunk = 50_000

// stateKey returns the i-th synthetic account address and leaf payload
// (a plausible account record size: balance, nonce, padding).
func stateKey(i int) (cryptoutil.Address, []byte) {
	var seed [8]byte
	binary.BigEndian.PutUint64(seed[:], uint64(i))
	addr := cryptoutil.AddressFromHash(cryptoutil.HashBytes(seed[:]))
	leaf := make([]byte, 48)
	copy(leaf, addr[:])
	binary.BigEndian.PutUint64(leaf[40:], uint64(i)*1000)
	return addr, leaf
}

// StateStoreTable builds an account trie per key count against a
// disk-backed node store with the given cache budget (0 = the default
// 64 MiB) and reports build rate, disk footprint, cache accounting,
// and read/proof latency at each size.
func StateStoreTable(keyCounts []int, cacheBytes int64) (*Table, error) {
	if cacheBytes == 0 {
		cacheBytes = nodestore.DefaultCacheBytes
	}
	t := &Table{
		ID:         "STATE",
		Title:      "Disk-backed authenticated state: build, footprint, and proof cost",
		PaperClaim: "pervasive deployments need bounded-RAM validation state (Section 5.4: storage scalability)",
		Columns:    []string{"keys", "build", "keys/s", "disk MB", "cache MB", "cap MB", "hit%", "get", "prove"},
	}
	for _, keys := range keyCounts {
		if err := stateStoreRow(t, keys, cacheBytes); err != nil {
			return nil, err
		}
	}
	t.Note("cache MB is live decoded-node accounting after the build; the budget is enforced, not advisory")
	t.Note("get/prove are mean latencies over 2000 random keys against the committed root (cache in front of disk)")
	t.Note("what a block costs a node over such a state: go test ./internal/node -bench BenchmarkConnectBlock (accounts-*/disk rows; DCS_STATE_KEYS=1000000 adds the 1 M row)")
	return t, nil
}

func stateStoreRow(t *Table, keys int, cacheBytes int64) error {
	dir, err := os.MkdirTemp("", "dcsbench-state-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := nodestore.Open(dir, nodestore.Options{Sync: nodestore.SyncNever, CacheBytes: cacheBytes})
	if err != nil {
		return err
	}
	defer store.Close()

	start := time.Now()
	root := mpt.EmptyRoot
	for lo := 0; lo < keys; lo += stateChunk {
		hi := min(lo+stateChunk, keys)
		tr := mpt.Load(root, 0, store)
		for i := lo; i < hi; i++ {
			addr, leaf := stateKey(i)
			if tr, err = tr.TrySet(addr[:], leaf); err != nil {
				return fmt.Errorf("bench: state build: %w", err)
			}
		}
		batch := store.NewBatch(uint64(lo / stateChunk))
		if root, err = tr.Commit(batch); err != nil {
			return fmt.Errorf("bench: state commit: %w", err)
		}
		if err = batch.Commit(); err != nil {
			return fmt.Errorf("bench: state batch: %w", err)
		}
	}
	build := time.Since(start)
	stats := store.Stats()
	if stats.CacheBytes > stats.CacheCap {
		return fmt.Errorf("bench: cache accounting %d exceeds budget %d", stats.CacheBytes, stats.CacheCap)
	}

	const probes = 2000
	tr := mpt.Load(root, 0, store)
	getStart := time.Now()
	for p := 0; p < probes; p++ {
		addr, _ := stateKey((p * 7919) % keys)
		if _, ok, err := tr.TryGet(addr[:]); err != nil || !ok {
			return fmt.Errorf("bench: state get %d: ok=%v err=%v", p, ok, err)
		}
	}
	getDur := time.Since(getStart) / probes
	proveStart := time.Now()
	for p := 0; p < probes; p++ {
		addr, _ := stateKey((p * 104729) % keys)
		if _, err := tr.Prove(addr[:]); err != nil {
			return fmt.Errorf("bench: state prove %d: %w", p, err)
		}
	}
	proveDur := time.Since(proveStart) / probes

	mb := func(b int64) string { return fmt.Sprintf("%.1f", float64(b)/(1<<20)) }
	hitPct := 0.0
	if lookups := stats.CacheHits + stats.CacheMisses; lookups > 0 {
		hitPct = 100 * float64(stats.CacheHits) / float64(lookups)
	}
	t.AddRow(fmt.Sprintf("%d", keys),
		build.Round(time.Millisecond).String(),
		fmt.Sprintf("%.0f", float64(keys)/build.Seconds()),
		mb(int64(stats.Bytes)),
		mb(stats.CacheBytes),
		mb(stats.CacheCap),
		fmt.Sprintf("%.1f", hitPct),
		fmtDur(getDur),
		fmtDur(proveDur))
	return nil
}
