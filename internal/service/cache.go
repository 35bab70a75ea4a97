package service

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/blob"
)

// Cache is the content-addressed result store: an in-memory LRU over the
// marshaled result bytes, optionally backed by a blob directory with one
// verified <key>.json file per key. The cached bytes are served verbatim,
// which is what makes repeated identical requests byte-identical.
//
// Eviction only trims memory; the on-disk copy survives and is promoted
// back into the LRU on the next Get, so a restarted or memory-pressured
// server still answers warm requests in O(1) campaign work. A damaged disk
// copy fails verification and reads as a miss, so the campaign is recomputed
// and the file rewritten.
type Cache struct {
	// hits/misses count Get outcomes (memory and disk tiers together) for
	// /metrics. Internal re-checks (getMemory) are not counted: one logical
	// lookup is one count.
	hits, misses atomic.Int64

	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	bytes   int64       // resident bytes of the in-memory tier (sum of data lens)
	disk    *blob.Store // nil = memory only
}

type cacheEntry struct {
	key  string
	data []byte
}

// NewCache builds a cache holding at most max entries in memory (min 1),
// persisting entries under dir when it is non-empty (the directory is
// created if needed).
func NewCache(max int, dir string) (*Cache, error) {
	if max < 1 {
		max = 1
	}
	disk, err := blob.Open(dir, ".json", 0)
	if err != nil {
		return nil, fmt.Errorf("service: cache dir: %w", err)
	}
	return &Cache{max: max, ll: list.New(), entries: map[string]*list.Element{}, disk: disk}, nil
}

// Get returns the cached bytes for key, falling back to the persistence
// directory on a memory miss (and promoting the loaded entry).
func (c *Cache) Get(key string) ([]byte, bool) {
	data, ok := c.getMemory(key)
	if !ok {
		if data, ok = c.disk.Get(key); ok {
			c.insert(key, data)
		}
	}
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return data, ok
}

// Hits reports how many Get probes found their key (memory or disk).
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses reports how many Get probes found nothing.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// getMemory is the I/O-free half of Get: the in-memory LRU alone, for
// callers that hold locks they must not sleep under.
func (c *Cache) getMemory(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).data, true
	}
	return nil, false
}

// Put stores the bytes for key in memory and, when persistence is enabled,
// durably on disk. The disk write error, if any, is returned after the
// memory insert — a persistence failure degrades durability, not
// correctness.
func (c *Cache) Put(key string, data []byte) error {
	c.insert(key, data)
	return c.disk.Put(key, data)
}

func (c *Cache) insert(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(data)) - int64(len(e.data))
		e.data = data
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, data: data})
	c.bytes += int64(len(data))
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		e := last.Value.(*cacheEntry)
		c.bytes -= int64(len(e.data))
		delete(c.entries, e.key)
	}
}

// Len reports the in-memory entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes reports the resident result bytes of the in-memory tier — the
// LRU-pressure gauge next to Len on /metrics (the persistent tier is
// unbounded by design and not counted here).
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
