package nodestore

import (
	"sync"
	"sync/atomic"

	"dcsledger/internal/cryptoutil"
)

// nodeCache is a byte-budgeted LRU over decoded trie nodes. It is a
// hand-rolled doubly-linked list + map (no container/list, to keep the
// entry structs flat and the byte accounting explicit). All methods
// are safe for concurrent use; the mutex guards only map/list surgery
// — decode work always happens outside it.
type nodeCache struct {
	mu    sync.Mutex
	cap   int64
	bytes int64
	items map[cryptoutil.Hash]*cacheEntry
	head  *cacheEntry // most recently used
	tail  *cacheEntry // least recently used

	hits, misses, evicts atomic.Uint64
}

type cacheEntry struct {
	key        cryptoutil.Hash
	value      any
	size       int64
	prev, next *cacheEntry
}

// newNodeCache returns a cache with the given byte budget; a negative
// budget disables caching entirely (every get is a miss).
func newNodeCache(capBytes int64) *nodeCache {
	if capBytes < 0 {
		capBytes = 0
	}
	return &nodeCache{
		cap:   capBytes,
		items: make(map[cryptoutil.Hash]*cacheEntry),
	}
}

// get returns the cached decoded node for h, promoting it to
// most-recently-used.
func (c *nodeCache) get(h cryptoutil.Hash) (any, bool) {
	if c.cap == 0 {
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.items[h]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.moveToFrontLocked(e)
	v := e.value
	c.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// add inserts (or refreshes) the decoded node for h, charging size
// bytes against the budget and evicting LRU entries until it fits. An
// entry larger than the whole budget is not cached.
func (c *nodeCache) add(h cryptoutil.Hash, v any, size int64) {
	if size < 1 {
		size = 1
	}
	if c.cap == 0 || size > c.cap {
		return
	}
	c.mu.Lock()
	if e, ok := c.items[h]; ok {
		c.bytes += size - e.size
		e.value, e.size = v, size
		c.moveToFrontLocked(e)
	} else {
		e := &cacheEntry{key: h, value: v, size: size}
		c.items[h] = e
		c.pushFrontLocked(e)
		c.bytes += size
	}
	var evicted uint64
	for c.bytes > c.cap && c.tail != nil {
		c.removeLocked(c.tail)
		evicted++
	}
	c.mu.Unlock()
	if evicted > 0 {
		c.evicts.Add(evicted)
	}
}

// drop removes h from the cache if present (used by compaction).
func (c *nodeCache) drop(h cryptoutil.Hash) {
	c.mu.Lock()
	if e, ok := c.items[h]; ok {
		c.removeLocked(e)
	}
	c.mu.Unlock()
}

func (c *nodeCache) pushFrontLocked(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *nodeCache) moveToFrontLocked(e *cacheEntry) {
	if c.head == e {
		return
	}
	// Unlink.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if c.tail == e {
		c.tail = e.prev
	}
	c.pushFrontLocked(e)
}

func (c *nodeCache) removeLocked(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(c.items, e.key)
	c.bytes -= e.size
}

// Bytes returns the decoded bytes currently charged to the cache.
func (c *nodeCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Cap returns the cache budget in bytes.
func (c *nodeCache) Cap() int64 { return c.cap }

// Hits returns the cumulative hit count.
func (c *nodeCache) Hits() uint64 { return c.hits.Load() }

// Misses returns the cumulative miss count.
func (c *nodeCache) Misses() uint64 { return c.misses.Load() }

// Evictions returns the cumulative eviction count.
func (c *nodeCache) Evictions() uint64 { return c.evicts.Load() }
