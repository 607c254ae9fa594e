// Package memtable implements the in-memory write buffer of an LSM tree as
// a skiplist ordered by (user key ascending, sequence number descending),
// the same internal-key ordering RocksDB uses so that the newest version
// of a key is encountered first.
//
// The skiplist is lock-free: inserts link nodes bottom-up with
// compare-and-swap on the predecessor's forward pointers, so any number of
// writers may Add concurrently with readers and iterators. Nodes are
// immutable once linked (the list is insert-only; deletes are tombstone
// records, never unlinks), which is what makes wait-free reads sound:
// a reader that observed a forward pointer can follow it forever.
//
// Nodes, their towers and the key and value bytes are carved from slabs
// the Table owns (the LevelDB/RocksDB arena), so an insert allocates
// nothing once a slab is open and the whole table is freed at once when
// its flush drops it.
package memtable

import (
	"bytes"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Kind tags an entry as a value or a tombstone.
type Kind uint8

const (
	// KindPut is a live value.
	KindPut Kind = iota
	// KindDelete is a tombstone.
	KindDelete
	// KindSupersede marks a Dev-LSM key whose newest version has since
	// been written to the Main-LSM through the normal path. Crash
	// recovery must not restore the stale buffered value; the marker,
	// being newer than it, shadows it. (KVACCEL-specific; never appears
	// in the Main-LSM.)
	KindSupersede
	// KindValuePtr is a WiscKey-style separated value: the entry's value
	// bytes are a fixed-size encoding.ValuePointer into the value log,
	// not the user value itself. The Main-LSM's read paths dereference it
	// transparently; compaction moves it without touching the value log.
	KindValuePtr
)

const (
	maxHeight = 12
	branching = 4
)

// node is one skiplist entry. kv — the key, then the value — aliases the
// table's byte slab and next its tower slab; nothing but next's pointers
// is written after the node is linked. One slice for both keeps a node at
// 64 bytes.
type node struct {
	kv   []byte
	seq  uint64
	klen uint32
	kind Kind
	next []atomic.Pointer[node]
}

func (n *node) key() []byte   { return n.kv[:n.klen:n.klen] }
func (n *node) value() []byte { return n.kv[n.klen:] }

// loadNext returns n's successor at level h.
func (n *node) loadNext(h int) *node { return n.next[h].Load() }

// Table is a lock-free concurrent skiplist memtable: any number of
// writers may Add while readers Get and iterate. Entries with distinct
// (key, seq) pairs never conflict; the LSM write path's sequence
// allocation guarantees uniqueness, so group members insert their
// records fully in parallel.
type Table struct {
	head      node
	headTower [maxHeight]atomic.Pointer[node]
	height    atomic.Int32
	rnd       atomic.Uint64 // splitmix64 state for randomHeight
	size      atomic.Int64
	count     atomic.Int64

	// The slab allocator. Each slice is the unused tail of the newest
	// slab of its type; linked nodes keep the used parts reachable. A
	// slab is opened by the Add that finds the tail too short, at double
	// the previous one's length up to maxSlab bytes: an empty table owns
	// no slab (New allocates none), a small one about twice what its
	// entries need, a full one its entries plus a few percent.
	slabMu    sync.Mutex
	nodes     []node
	towers    []atomic.Pointer[node]
	data      []byte
	nextNodes int // length of the next slab of each type, in elements
	nextTower int
	nextData  int
	maxSlab   int // bound on one slab, in bytes
}

const (
	// firstSlabEntries sizes the first node slab, and with it the first
	// tower slab; firstSlabBytes is the first key/value slab.
	firstSlabEntries = 32
	firstSlabBytes   = 4 << 10
	// A slab is at most 1/slabFraction of the write buffer, inside
	// [minMaxSlab, maxMaxSlab]: large enough that filling a table takes a
	// few dozen allocations, small enough that the unused tails of its
	// last slabs are a few percent of a small buffer and, under a large
	// one, under a megabyte in all — many tables are live at once (shards,
	// Main- and Dev-LSM, tables queued for flush), and what they hold
	// unused the collector's pacing counts twice.
	slabFraction = 32
	minMaxSlab   = 64 << 10
	maxMaxSlab   = 256 << 10
)

// New returns an empty memtable. writeBuffer is the footprint
// (ApproximateSize) at which the caller will stop adding to it; it only
// bounds how large a slab may grow, and a value <= 0 picks the smallest
// bound.
func New(writeBuffer int64) *Table {
	t := &Table{
		nextNodes: firstSlabEntries,
		nextTower: firstSlabEntries * 2,
		nextData:  firstSlabBytes,
		maxSlab:   int(min(max(writeBuffer/slabFraction, minMaxSlab), maxMaxSlab)),
	}
	t.head.next = t.headTower[:]
	t.height.Store(1)
	t.rnd.Store(0xdecaf)
	return t
}

// carve cuts n elements off the slab tail *free, first replacing the slab
// with a fresh one of *next elements (at least n) when the tail is too
// short; *next then doubles up to maxLen. The abandoned tail is the
// allocator's only waste.
func carve[T any](free *[]T, n int, next *int, maxLen int) []T {
	if len(*free) < n {
		*free = make([]T, max(*next, n))
		*next = min(2**next, maxLen)
	}
	out := (*free)[:n:n]
	*free = (*free)[n:]
	return out
}

// newNode returns an unlinked node of height h holding copies of key and
// value, all carved from the table's slabs.
func (t *Table) newNode(h int, seq uint64, kind Kind, key, value []byte) *node {
	t.slabMu.Lock()
	n := &carve(&t.nodes, 1, &t.nextNodes, t.maxSlab/int(unsafe.Sizeof(node{})))[0]
	n.next = carve(&t.towers, h, &t.nextTower, t.maxSlab/int(unsafe.Sizeof(n.next[0])))
	n.kv = carve(&t.data, len(key)+len(value), &t.nextData, t.maxSlab)
	t.slabMu.Unlock()
	copy(n.kv, key)
	copy(n.kv[len(key):], value)
	n.seq, n.klen, n.kind = seq, uint32(len(key)), kind
	return n
}

// compare orders internal keys: user key ascending, then seq descending.
func compare(aKey []byte, aSeq uint64, bKey []byte, bSeq uint64) int {
	if c := bytes.Compare(aKey, bKey); c != 0 {
		return c
	}
	switch {
	case aSeq > bSeq:
		return -1
	case aSeq < bSeq:
		return 1
	}
	return 0
}

// randomHeight draws a geometric(1/branching) height from a lock-free
// splitmix64 stream. Heights shape only the internal index levels, never
// the level-0 ordering flushes and iterators observe, so contention on
// the shared state changing the draw sequence is harmless.
func (t *Table) randomHeight() int {
	x := t.rnd.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	h := 1
	for h < maxHeight && x&(branching-1) == 0 {
		h++
		x >>= 2
	}
	return h
}

// findGE returns the first node with internal key >= (key, seq), filling
// prev with the rightmost node before it at every level when prev != nil.
func (t *Table) findGE(key []byte, seq uint64, prev []*node) *node {
	x := &t.head
	level := int(t.height.Load()) - 1
	for {
		next := x.loadNext(level)
		if next != nil && compare(next.key(), next.seq, key, seq) < 0 {
			x = next
			continue
		}
		if prev != nil {
			prev[level] = x
		}
		if level == 0 {
			return next
		}
		level--
	}
}

// findSpliceForLevel recomputes the (prev, succ) pair for (key, seq) at
// one level, starting the walk from a known-earlier node.
func findSpliceForLevel(key []byte, seq uint64, level int, start *node) (prev, succ *node) {
	prev = start
	for {
		succ = prev.loadNext(level)
		if succ == nil || compare(succ.key(), succ.seq, key, seq) >= 0 {
			return prev, succ
		}
		prev = succ
	}
}

// Add inserts an entry, copying key and value into the table's slabs: the
// caller's buffers are not retained. Duplicate (key, seq) pairs must not
// be inserted (the write path's sequence allocator guarantees this). Safe
// for any number of concurrent callers.
func (t *Table) Add(seq uint64, kind Kind, key, value []byte) {
	h := t.randomHeight()
	// Publish a taller list height first; a racing reader that still sees
	// the old height just starts its descent lower, which is always valid.
	for {
		lh := t.height.Load()
		if int32(h) <= lh || t.height.CompareAndSwap(lh, int32(h)) {
			break
		}
	}
	n := t.newNode(h, seq, kind, key, value)
	var prev [maxHeight]*node
	var succ [maxHeight]*node
	for i := range prev[:h] {
		prev[i] = &t.head
	}
	t.findGE(key, seq, prev[:])
	for i := 0; i < h; i++ {
		prev[i], succ[i] = findSpliceForLevel(key, seq, i, prev[i])
	}
	// Link bottom-up: once level 0 is in, the node is visible to readers;
	// upper levels are only an index and may lag behind. A failed CAS
	// means a concurrent insert landed between prev and us — recompute
	// the splice at that level from the last known predecessor and retry.
	for i := 0; i < h; i++ {
		for {
			n.next[i].Store(succ[i])
			if prev[i].next[i].CompareAndSwap(succ[i], n) {
				break
			}
			prev[i], succ[i] = findSpliceForLevel(key, seq, i, prev[i])
		}
	}
	t.size.Add(int64(len(key) + len(value) + 32)) // 32 ~ node overhead
	t.count.Add(1)
}

// Get returns the newest entry for key. ok is false if the key has no
// entry at all; a tombstone returns ok=true with kind KindDelete. The
// returned value aliases the table's slab memory: it is immutable and
// stays valid as long as the caller holds it, but it pins the slab, so
// copy it before caching it past the table's life.
func (t *Table) Get(key []byte) (value []byte, kind Kind, ok bool) {
	// Seek to (key, maxSeq): the first entry for key is the newest.
	n := t.findGE(key, ^uint64(0), nil)
	if n == nil || !bytes.Equal(n.key(), key) {
		return nil, 0, false
	}
	return n.value(), n.kind, true
}

// ApproximateSize returns the memtable's memory footprint in bytes.
func (t *Table) ApproximateSize() int64 { return t.size.Load() }

// Count returns the number of entries.
func (t *Table) Count() int { return int(t.count.Load()) }

// Entry is one internal-key record surfaced by an Iterator.
type Entry struct {
	Key   []byte
	Value []byte
	Seq   uint64
	Kind  Kind
}

// Iterator walks the memtable in internal-key order. It is valid as long
// as the Table exists; nodes are never unlinked and forward pointers only
// ever splice in new nodes, so lock-free iteration is consistent: every
// entry present when the iterator was positioned is visited, and entries
// inserted concurrently may or may not appear. Callers that need a stable
// snapshot bound the walk by sequence number (SeekVersion / filtering on
// Entry().Seq), which concurrent higher-seq inserts cannot perturb.
type Iterator struct {
	t *Table
	n *node
}

// NewIterator returns an iterator positioned before the first entry; call
// SeekToFirst or Seek before use.
func (t *Table) NewIterator() *Iterator { return &Iterator{t: t} }

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.n != nil }

// SeekToFirst positions at the smallest internal key.
func (it *Iterator) SeekToFirst() { it.n = it.t.head.loadNext(0) }

// Seek positions at the first entry with user key >= key (its newest
// version first).
func (it *Iterator) Seek(key []byte) { it.n = it.t.findGE(key, ^uint64(0), nil) }

// SeekVersion positions at the first entry >= (key, maxSeq) in internal
// order: for user key `key`, that is its newest version with
// seq <= maxSeq (snapshot reads).
func (it *Iterator) SeekVersion(key []byte, maxSeq uint64) {
	it.n = it.t.findGE(key, maxSeq, nil)
}

// Next advances to the following internal key.
func (it *Iterator) Next() { it.n = it.n.loadNext(0) }

// Entry returns the current record. Key and Value alias the table's slab
// memory, as Get's value does: never modify them, and copy before keeping
// them past the table's life.
func (it *Iterator) Entry() Entry {
	return Entry{Key: it.n.key(), Value: it.n.value(), Seq: it.n.seq, Kind: it.n.kind}
}
