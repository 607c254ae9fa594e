// Package memtable implements the in-memory write buffer of an LSM tree as
// a skiplist ordered by (user key ascending, sequence number descending),
// the same internal-key ordering RocksDB uses so that the newest version
// of a key is encountered first.
//
// The skiplist is insert-only: deletes are tombstone records, never
// unlinks, so a node once linked stays where it is and an iterator that
// holds one can follow its forward pointers forever. Like everything a
// clock's runners reach, a table belongs to the runner holding the baton,
// and an Add is one step no reader can come between.
//
// Nodes and their towers are carved from slabs the Table owns (the
// LevelDB/RocksDB arena), so an insert allocates nothing once a slab is
// open and the whole table is freed at once when its flush drops it. Add
// copies the key and value into a third slab, of bytes; AddView keeps a
// view of bytes that are never written again (the Main-LSM's write-ahead
// log records), and a table filled that way owns no byte slab.
package memtable

import (
	"bytes"
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

// node is one skiplist entry. kv is the key, then gap bytes that belong
// to neither (a logged record's value-length prefix; none for a copy),
// then the value; it aliases the table's byte slab or the bytes AddView
// was given, and next aliases the tower slab. Nothing but next's
// pointers is written after the node is linked. One slice for key and
// value, and the gap in what would be padding, keep a node at 64 bytes.
type node struct {
	kv   []byte
	seq  uint64
	klen uint32
	kind Kind
	gap  uint8
	next []*node
}

func (n *node) key() []byte   { return n.kv[:n.klen:n.klen] }
func (n *node) value() []byte { return n.kv[int(n.klen)+int(n.gap):] }

// Table is an insert-only skiplist memtable. Entries with distinct
// (key, seq) pairs never conflict; the LSM write path's sequence
// allocation guarantees uniqueness.
type Table struct {
	head      node
	headTower [maxHeight]*node
	height    int
	rnd       uint64 // splitmix64 state for randomHeight
	size      int64
	count     int

	// The slab allocator. Each slice is the unused tail of the newest
	// slab of its type; linked nodes keep the used parts reachable. A
	// slab is opened by the Add that finds the tail too short, at double
	// the previous one's length up to maxSlab bytes: an empty table owns
	// no slab (New allocates none), a small one about twice what its
	// entries need, a full one its entries plus a few percent.
	nodes     []node
	towers    []*node
	data      []byte // key and value copies; only Add opens this slab
	nextNodes int    // length of the next slab of each type, in elements
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
		height:    1,
		rnd:       0xdecaf,
		nextNodes: firstSlabEntries,
		nextTower: firstSlabEntries * 2,
		nextData:  firstSlabBytes,
		maxSlab:   int(min(max(writeBuffer/slabFraction, minMaxSlab), maxMaxSlab)),
	}
	t.head.next = t.headTower[:]
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

// randomHeight draws a geometric(1/branching) height from a splitmix64
// stream. Heights shape only the internal index levels, never the level-0
// ordering flushes and iterators observe.
func (t *Table) randomHeight() int {
	t.rnd += 0x9e3779b97f4a7c15
	x := t.rnd
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
	level := t.height - 1
	for {
		next := x.next[level]
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

// Add inserts an entry, copying key and value into the table's byte
// slab: the caller's buffers are not retained. Duplicate (key, seq) pairs
// must not be inserted (the write path's sequence allocator guarantees
// this).
func (t *Table) Add(seq uint64, kind Kind, key, value []byte) {
	kv := carve(&t.data, len(key)+len(value), &t.nextData, t.maxSlab)
	copy(kv, key)
	copy(kv[len(key):], value)
	t.link(seq, kind, kv, len(key), 0)
}

// AddView inserts an entry without copying it: kv is the key (its first
// klen bytes), then gap bytes the table skips, then the value — the
// layout of a write-ahead-log record, whose value-length prefix is the
// gap (at most 255 bytes). The table keeps a view of kv, so its bytes
// must never be written again; it owns no byte slab for such entries.
// Duplicate (key, seq) pairs must not be inserted, as with Add.
func (t *Table) AddView(seq uint64, kind Kind, kv []byte, klen, gap int) {
	t.link(seq, kind, kv[:len(kv):len(kv)], klen, gap)
}

// link splices a node for the entry into the skiplist, carving the node
// and its tower from the table's slabs. Both inserts end here, so the
// table's footprint counts key and value bytes, never the gap.
func (t *Table) link(seq uint64, kind Kind, kv []byte, klen, gap int) {
	h := t.randomHeight()
	t.height = max(t.height, h)
	n := &carve(&t.nodes, 1, &t.nextNodes, t.maxSlab/int(unsafe.Sizeof(node{})))[0]
	n.next = carve(&t.towers, h, &t.nextTower, t.maxSlab/int(unsafe.Sizeof(n.next[0])))
	n.kv, n.seq, n.klen, n.kind, n.gap = kv, seq, uint32(klen), kind, uint8(gap)
	var prev [maxHeight]*node
	t.findGE(n.key(), seq, prev[:])
	for i := 0; i < h; i++ {
		n.next[i] = prev[i].next[i]
		prev[i].next[i] = n
	}
	t.size += int64(len(kv) - gap + 32) // 32 ~ node overhead
	t.count++
}

// Get returns the newest entry for key. ok is false if the key has no
// entry at all; a tombstone returns ok=true with kind KindDelete. The
// returned value aliases the table's memory — its byte slab, or the
// logged record AddView was given: it is immutable and stays valid as
// long as the caller holds it, but it pins that memory, so copy it before
// caching it past the table's life.
func (t *Table) Get(key []byte) (value []byte, kind Kind, ok bool) {
	// Seek to (key, maxSeq): the first entry for key is the newest.
	n := t.findGE(key, ^uint64(0), nil)
	if n == nil || !bytes.Equal(n.key(), key) {
		return nil, 0, false
	}
	return n.value(), n.kind, true
}

// ApproximateSize returns the memtable's memory footprint in bytes.
func (t *Table) ApproximateSize() int64 { return t.size }

// Count returns the number of entries.
func (t *Table) Count() int { return t.count }

// Entry is one internal-key record surfaced by an Iterator.
type Entry struct {
	Key   []byte
	Value []byte
	Seq   uint64
	Kind  Kind
}

// Iterator walks the memtable in internal-key order. It is valid as long
// as the Table exists, and it may stay open while later Adds land: nodes
// are never unlinked and an insert only splices a new node in, so every
// entry present when the iterator was positioned is visited once, in
// order, and an entry inserted since is visited only if it lands ahead of
// the cursor. Callers that need a stable view bound the walk by sequence
// number (filtering on Entry().Seq), which later higher-seq inserts
// cannot perturb.
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
func (it *Iterator) SeekToFirst() { it.n = it.t.head.next[0] }

// Seek positions at the first entry with user key >= key (its newest
// version first).
func (it *Iterator) Seek(key []byte) { it.n = it.t.findGE(key, ^uint64(0), nil) }

// Next advances to the following internal key.
func (it *Iterator) Next() { it.n = it.n.next[0] }

// Entry returns the current record. Key and Value alias the table's
// memory (its byte slab or a logged record), as Get's value does: never
// modify them, and copy before keeping them past the table's life.
func (it *Iterator) Entry() Entry {
	return Entry{Key: it.n.key(), Value: it.n.value(), Seq: it.n.seq, Kind: it.n.kind}
}
