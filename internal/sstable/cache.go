package sstable

import (
	"container/list"
)

// BlockCache is a byte-capacity LRU over decoded data blocks, shared by
// all Main-LSM tables. Its presence is why Main-LSM iterators beat the
// Dev-LSM iterator in Table V: the Dev-LSM has no such cache in front of
// its NAND reads.
type BlockCache struct {
	cap   int64
	used  int64
	lru   *list.List // front = most recent; values are *cacheEntry
	items map[cacheKey]*list.Element

	hits, misses, evictions, readahead int64
}

// CacheStats is a point-in-time snapshot of a BlockCache's counters.
type CacheStats struct {
	Hits      int64 // Get calls served from the cache
	Misses    int64 // Get calls that found nothing
	Evictions int64 // entries dropped for capacity or file deletion
	Readahead int64 // blocks inserted by scan readahead, not demand misses
	Used      int64 // bytes currently resident
	Entries   int64 // blocks currently resident
}

// HitRate returns Hits/(Hits+Misses), or 0 with no traffic.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type cacheKey struct {
	file uint64
	off  uint32
}

type cacheEntry struct {
	key  cacheKey
	data []byte
}

// NewBlockCache returns a cache bounded to capacity bytes; capacity <= 0
// yields a cache that stores nothing.
func NewBlockCache(capacity int64) *BlockCache {
	return &BlockCache{cap: capacity, lru: list.New(), items: make(map[cacheKey]*list.Element)}
}

// Get returns the cached block for (file, off) if present.
func (c *BlockCache) Get(file uint64, off uint32) ([]byte, bool) {
	el, ok := c.items[cacheKey{file, off}]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

// Put inserts a block, evicting LRU entries to stay within capacity.
func (c *BlockCache) Put(file uint64, off uint32, data []byte) {
	if c.cap <= 0 || int64(len(data)) > c.cap {
		return
	}
	k := cacheKey{file, off}
	if el, ok := c.items[k]; ok {
		c.lru.MoveToFront(el)
		old := el.Value.(*cacheEntry)
		c.used += int64(len(data)) - int64(len(old.data))
		old.data = data
	} else {
		el := c.lru.PushFront(&cacheEntry{key: k, data: data})
		c.items[k] = el
		c.used += int64(len(data))
	}
	for c.used > c.cap {
		back := c.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.items, e.key)
		c.used -= int64(len(e.data))
		c.evictions++
	}
}

// Contains reports residency without touching the hit/miss counters or
// LRU order; the readahead path uses it so probing for already-resident
// blocks does not masquerade as demand traffic.
func (c *BlockCache) Contains(file uint64, off uint32) bool {
	_, ok := c.items[cacheKey{file, off}]
	return ok
}

// PutReadahead is Put for prefetched blocks: identical insertion, but
// counted separately so the stats distinguish readahead fills from
// demand-miss fills.
func (c *BlockCache) PutReadahead(file uint64, off uint32, data []byte) {
	if c.cap <= 0 || int64(len(data)) > c.cap {
		return
	}
	c.readahead++
	c.Put(file, off, data)
}

// EvictFile drops every cached block of one file (called when a
// compaction deletes it).
func (c *BlockCache) EvictFile(file uint64) {
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.file == file {
			c.lru.Remove(el)
			delete(c.items, e.key)
			c.used -= int64(len(e.data))
			c.evictions++
		}
		el = next
	}
}

// Files returns the distinct file numbers with blocks resident, in no
// particular order. A cached block is a view of its table's image, so each
// should name a live table: one removed without EvictFile stays pinned.
func (c *BlockCache) Files() []uint64 {
	seen := map[uint64]bool{}
	var files []uint64
	for k := range c.items {
		if !seen[k.file] {
			seen[k.file] = true
			files = append(files, k.file)
		}
	}
	return files
}

// Stats returns a snapshot of the cache's counters and occupancy.
func (c *BlockCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Readahead: c.readahead,
		Used:      c.used,
		Entries:   int64(c.lru.Len()),
	}
}
