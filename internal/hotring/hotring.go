// Package hotring implements the hot-key front cache that sits in front
// of the dual-LSM read path: a sharded hash index whose collision chains
// are ordered circular rings with hotness-aware head pointers, after
// HotRing (Chen et al., FAST '20). A lookup starts at the ring's head —
// which migrates toward the hottest entry of the ring — so skewed
// (zipfian) traffic finds its hot keys in O(1) ring steps instead of
// paying the full chain walk a classic bucket list would.
//
// Correctness under concurrent writes uses a per-shard generation
// counter. A reader snapshots the generation before reading the
// underlying engine (BeginRead) and fills only if no write touched the
// shard in between (FillIfUnchanged), so a stale value can never be
// installed over a newer write. A writer goes through the cache: it takes
// a token before its write (BeginWrite) and hands the stored value to
// EndWrite once the write committed. If no other write in the shard
// overlapped it, a resident entry takes the new value and stays;
// otherwise, and for a delete, the entry is dropped. Both calls bump the
// generation, so no read that overlapped the write fills afterwards.
// Absent keys are not admitted on write: only reads admit.
//
// Values are handed out, not copied: an entry keeps its key and value in
// one buffer written once, when the entry is filled, and never again, and
// Get returns a view of it. Re-fills, write-throughs, invalidations and
// evictions replace or drop that buffer; none writes into it, so a view a
// caller holds never changes. An evicted entry's struct is reused by a
// later fill, its buffer never.
//
// Admission is frequency-gated, after TinyLFU (Einziger, Friedman & Manes,
// ACM TOS 2017): each shard keeps a count-min sketch of recent Get
// frequencies, and a fill of an absent key into a full shard is admitted
// only if the key was read before within the sketch's aging window. A
// one-time read of a cold key is declined and evicts nothing.
package hotring

import (
	"bytes"

	"kvaccel/internal/encoding"
)

// defaultShards sets how many rings the cache has: each gets an equal
// share of the capacity and a hash directory of its own. Must be a power
// of two.
const defaultShards = 16

// bucketsPerShard sizes each shard's hash directory; must be a power of
// two. Rings stay short (a handful of entries) at any realistic load.
const bucketsPerShard = 256

// admitMin is the sketch estimate an absent key needs to be admitted into
// a shard with no room for it: one read besides the one that missed.
const admitMin = 2

// headBoost is how far an entry's sample-window access count must exceed
// the current head's before the head pointer migrates to it.
const headBoost = 4

// entry is one ring node. Rings are circular, sorted ascending by
// (tag, key) so a lookup can stop as soon as it passes the target's slot
// — the HotRing ordered-ring termination rule.
type entry struct {
	kv    []byte // key then value, written once by the fill that made it
	next  *entry
	tag   uint32 // high hash bits, the primary sort key
	count uint32 // accesses in the current sample window
	klen  uint32
}

func (e *entry) key() []byte { return e.kv[:e.klen:e.klen] }

// value is the view Get hands out, clipped so that appending to it
// cannot reach past the buffer's end.
func (e *entry) value() []byte { return e.kv[e.klen:len(e.kv):len(e.kv)] }

// fillKV sets e's buffer to a fresh copy of key and value: the one
// allocation a fill makes. The old buffer is dropped, never reused. When
// the value is longer than the key, an append onto key capped at its
// length copies both into one new buffer of len(key)+len(value) rounded
// to its size class, clearing only the bytes past them, where make and two
// copies clear the value's bytes before writing them. A shorter value
// would make append double the key's capacity instead, past what the
// shard's byte budget charges, so it takes make and two copies.
func (e *entry) fillKV(key, value []byte) {
	var kv []byte
	if len(value) > len(key) {
		kv = append(key[:len(key):len(key)], value...)
	} else {
		kv = make([]byte, len(key)+len(value))
		copy(kv[copy(kv, key):], value)
	}
	e.kv, e.klen = kv, uint32(len(key))
}

type shard struct {
	gen     uint64 // bumped by every write begin and end, and InvalidateAll
	heads   [bucketsPerShard]*entry
	used    int64
	entries int64

	hits, misses    int64
	fills, rejected int64
	declined        int64
	updates         int64
	invalidations   int64
	evictions       int64
	headMoves       int64

	freq sketch

	evictCursor uint32 // round-robin bucket cursor for capacity eviction

	// free lists entry structs that eviction and invalidation unlinked,
	// chained through next, for the next fills to reuse.
	free *entry
}

// newEntry returns a cleared entry struct, reusing a freed one if any.
func (s *shard) newEntry() *entry {
	e := s.free
	if e == nil {
		return &entry{}
	}
	s.free, e.next = e.next, nil
	return e
}

// recycle clears an unlinked entry, dropping its buffer, and keeps its
// struct for reuse.
func (s *shard) recycle(e *entry) {
	*e = entry{next: s.free}
	s.free = e
}

// Cache is the sharded front cache. The zero value is not usable; build
// one with New. A nil *Cache is a valid disabled cache: Get always
// misses, every other method is a no-op.
type Cache struct {
	shards      []shard
	shardMask   uint64
	perShardCap int64
}

// New returns a cache bounded to roughly capacityBytes across shards
// (shards is rounded up to a power of two; <= 0 picks the default).
// capacityBytes <= 0 returns nil — the disabled cache.
func New(capacityBytes int64, shards int) *Cache {
	if capacityBytes <= 0 {
		return nil
	}
	if shards <= 0 {
		shards = defaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	per := capacityBytes / int64(n)
	if per < 1 {
		per = 1
	}
	c := &Cache{
		shards:      make([]shard, n),
		shardMask:   uint64(n - 1),
		perShardCap: per,
	}
	for i := range c.shards {
		c.shards[i].freq = newSketch()
	}
	return c
}

// hash is FNV-1a finished with splitmix64's 64-bit mixer, so that every
// byte reaches the low bits (the shard), the middle ones (the bucket) and
// the high ones (the tag). It is fixed, not seeded per process: which keys
// share a ring, and so which entries get evicted, is the same every run.
func hash(key []byte) uint64 { return mix(encoding.FNV1a(key)) }

// mix is splitmix64's finalizer: every input bit reaches every output bit.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

func (c *Cache) locate(key []byte) (s *shard, h uint64, bucket, tag uint32) {
	h = hash(key)
	return &c.shards[h&c.shardMask], h, uint32(h>>8) % bucketsPerShard, uint32(h >> 40)
}

// less orders ring entries by (tag, key) — the sort the ordered-ring
// termination rule depends on.
func less(aTag uint32, aKey []byte, bTag uint32, bKey []byte) bool {
	if aTag != bTag {
		return aTag < bTag
	}
	return bytes.Compare(aKey, bKey) < 0
}

// Get returns the cached value for key, if present. Every Get, hit or
// miss, counts toward the key's admission; a hit also bumps the entry's
// hotness and may migrate the ring's head.
//
// The value is a read-only view of the entry's buffer, which nothing
// writes after the fill that made it: it stays valid and unchanged
// through re-fills, write-throughs, invalidation and eviction.
func (c *Cache) Get(key []byte) (value []byte, hit bool) {
	if c == nil {
		return nil, false
	}
	s, h, bucket, tag := c.locate(key)
	s.freq.record(h)
	e := s.find(bucket, tag, key)
	if e == nil {
		s.misses++
		return nil, false
	}
	s.hits++
	e.count++
	// Hotness-aware head migration: once an entry clearly out-accesses
	// the current head within this sample window, lookups should start
	// at it. Counts reset so a cooled-down key yields the head back.
	if head := s.heads[bucket]; e != head && e.count > head.count+headBoost {
		s.heads[bucket] = e
		s.headMoves++
		for it := e.next; ; it = it.next {
			it.count = 0
			if it == e {
				break
			}
		}
		e.count = 1
	}
	v := e.value()
	return v, true
}

// find walks the ordered ring from its head, stopping early once the
// target's slot has been passed (cyclic order check).
func (s *shard) find(bucket, tag uint32, key []byte) *entry {
	head := s.heads[bucket]
	if head == nil {
		return nil
	}
	cur := head
	for {
		if cur.tag == tag && bytes.Equal(cur.key(), key) {
			return cur
		}
		nxt := cur.next
		// Target absent if it sorts between cur and nxt in cyclic order:
		// strictly inside the gap, or outside the ring's span when the
		// gap wraps past the maximum element.
		curLT := less(cur.tag, cur.key(), tag, key)  // cur < target
		tLTnxt := less(tag, key, nxt.tag, nxt.key()) // target < next
		wrap := less(nxt.tag, nxt.key(), cur.tag, cur.key()) || nxt == cur
		if (curLT && tLTnxt) || (wrap && (curLT || tLTnxt)) {
			return nil
		}
		cur = nxt
		if cur == head {
			return nil
		}
	}
}

// BeginRead snapshots key's shard generation. Pass the token to
// FillIfUnchanged after reading the underlying engine; any write that
// began or ended in the shard in between makes the fill a no-op.
func (c *Cache) BeginRead(key []byte) uint64 {
	if c == nil {
		return 0
	}
	s, _, _, _ := c.locate(key)
	return s.gen
}

// FillIfUnchanged installs a copy of key→value if the shard generation
// still matches token, and returns the cache's copy of the value — a
// read-only view, as Get's — or nil if it installed nothing. An absent
// key that would push its shard over capacity is admitted only if Get saw
// it at least admitMin times within the aging window; otherwise the fill
// is declined and evicts nothing.
func (c *Cache) FillIfUnchanged(key, value []byte, token uint64) []byte {
	if c == nil {
		return nil
	}
	s, h, bucket, tag := c.locate(key)
	if s.gen != token {
		s.rejected++
		return nil
	}
	size := int64(len(key) + len(value))
	if size > c.perShardCap {
		return nil
	}
	e := s.find(bucket, tag, key)
	if e != nil {
		// A re-fill gives the entry a new buffer; views of the old one stay
		// as they were.
		s.used += size - int64(len(e.kv))
		e.fillKV(key, value)
	} else {
		if s.used+size > c.perShardCap && s.freq.estimate(h) < admitMin {
			s.declined++
			return nil
		}
		e = s.newEntry()
		e.fillKV(key, value)
		e.tag = tag
		s.insert(bucket, e)
		s.used += size
		s.entries++
		s.freq.fit(s.entries)
	}
	s.fills++
	v := e.value()
	s.evictOver(c.perShardCap)
	return v
}

// insert links e into its bucket's ring, keeping (tag, key) order.
func (s *shard) insert(bucket uint32, e *entry) {
	head := s.heads[bucket]
	if head == nil {
		e.next = e
		s.heads[bucket] = e
		return
	}
	// Find the predecessor in cyclic order: the entry after which e
	// sorts, scanning the ring once from head.
	cur := head
	for {
		nxt := cur.next
		curLT := less(cur.tag, cur.key(), e.tag, e.key())
		eLTnxt := less(e.tag, e.key(), nxt.tag, nxt.key())
		wrap := less(nxt.tag, nxt.key(), cur.tag, cur.key()) || nxt == cur
		if (curLT && eLTnxt) || (wrap && (curLT || eLTnxt)) {
			e.next = nxt
			cur.next = e
			return
		}
		cur = nxt
		if cur == head {
			// Ring of equal elements (can't happen with distinct keys);
			// link after head for safety.
			e.next = head.next
			head.next = e
			return
		}
	}
}

// evictOver walks buckets round-robin evicting cold entries (sample
// count 0; hotter entries get their counts halved — a second chance)
// until the shard is back under cap. Repeated halving guarantees every
// entry eventually goes cold, so the loop always converges.
func (s *shard) evictOver(cap int64) {
	for pass := 0; s.used > cap && pass < 64*bucketsPerShard && s.entries > 0; pass++ {
		b := s.evictCursor % bucketsPerShard
		s.evictCursor++
		head := s.heads[b]
		if head == nil {
			continue
		}
		// Walk the ring once from head, unlinking cold entries and linking
		// each survivor to the next, in ring order, in place.
		var first, last *entry
		for cur, stop := head, false; !stop; {
			next := cur.next
			stop = next == head
			if cur.count == 0 && s.used > cap {
				s.used -= int64(len(cur.kv))
				s.entries--
				s.evictions++
				s.recycle(cur)
			} else {
				cur.count /= 2
				if last == nil {
					first = cur
				} else {
					last.next = cur
				}
				last = cur
			}
			cur = next
		}
		if first == nil {
			s.heads[b] = nil
			continue
		}
		last.next = first
		// The walk started at head, so if head survived it is first;
		// otherwise first is the next entry in order — either way a valid
		// ring head.
		s.heads[b] = first
	}
}

// BeginWrite opens a write of key and returns its token for EndWrite. It
// bumps the shard generation, so a read that began before the write
// cannot fill after it.
func (c *Cache) BeginWrite(key []byte) uint64 {
	if c == nil {
		return 0
	}
	s, _, _, _ := c.locate(key)
	s.gen++
	return s.gen
}

// EndWrite closes the write BeginWrite opened, once it has committed or
// failed; value is what it stored, nil for a delete or a failed write.
// If key is resident and no other write in its shard began or ended since
// BeginWrite, the entry takes a fresh copy of value and stays. Otherwise,
// or when value is nil or larger than the shard, the entry is dropped. An
// absent key is not admitted. A write that began earlier and is still
// open may land after this one; its own end then finds the generation
// moved and drops the entry. EndWrite bumps the generation too, so a read
// that overlapped the write cannot fill afterwards what it read before
// the write landed.
func (c *Cache) EndWrite(key, value []byte, token uint64) {
	if c == nil {
		return
	}
	s, _, bucket, tag := c.locate(key)
	alone := s.gen == token
	s.gen++
	e := s.find(bucket, tag, key)
	if e == nil {
		return
	}
	if size := int64(len(key) + len(value)); alone && value != nil && size <= c.perShardCap {
		// The entry gets a new buffer; views of the old one stay as they
		// were.
		s.used += size - int64(len(e.kv))
		e.fillKV(key, value)
		s.updates++
		s.evictOver(c.perShardCap)
		return
	}
	s.remove(bucket, e)
	s.recycle(e)
	s.invalidations++
}

// remove unlinks e from its bucket's ring.
func (s *shard) remove(bucket uint32, e *entry) {
	if e.next == e {
		s.heads[bucket] = nil
	} else {
		prev := e
		for prev.next != e {
			prev = prev.next
		}
		prev.next = e.next
		if s.heads[bucket] == e {
			s.heads[bucket] = e.next
		}
	}
	s.used -= int64(len(e.kv))
	s.entries--
}

// InvalidateAll empties the cache, clears the admission sketches and bumps
// every shard's generation — the big hammer for rollback merges and crash
// recovery, whose write sets are not enumerated per key.
func (c *Cache) InvalidateAll() {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.gen++
		s.invalidations += s.entries
		for b := range s.heads {
			s.heads[b] = nil
		}
		s.used, s.entries = 0, 0
		s.freq.reset()
	}
}

// Stats is a point-in-time aggregate across shards.
type Stats struct {
	Hits          int64
	Misses        int64
	Fills         int64
	Rejected      int64 // fills dropped by the generation check
	Declined      int64 // fills the admission sketch turned away
	Updates       int64 // resident entries a write refreshed
	Invalidations int64 // resident entries a write or InvalidateAll dropped
	Evictions     int64
	HeadMoves     int64
	Used          int64
	Entries       int64
}

// Stats sums the per-shard counters.
func (c *Cache) Stats() Stats {
	var st Stats
	if c == nil {
		return st
	}
	for i := range c.shards {
		s := &c.shards[i]
		st.Hits += s.hits
		st.Misses += s.misses
		st.Fills += s.fills
		st.Rejected += s.rejected
		st.Declined += s.declined
		st.Updates += s.updates
		st.Invalidations += s.invalidations
		st.Evictions += s.evictions
		st.HeadMoves += s.headMoves
		st.Used += s.used
		st.Entries += s.entries
	}
	return st
}
