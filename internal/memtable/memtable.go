// Package memtable implements the in-memory write buffer of an LSM tree,
// ordered by (user key ascending, sequence number descending), the same
// internal-key ordering RocksDB uses so that the newest version of a key
// is encountered first.
//
// The table is an insert-only B+tree. Its leaves hold up to 32 fixed-size
// entries side by side, each with its key's first 16 bytes inline as two
// big-endian words, so a lookup binary-searches a few nodes and rarely
// reads a key's bytes; the leaves are linked in order for iteration.
// Deletes are tombstone records, never removals. Like everything a
// clock's runners reach, a table belongs to the runner holding the baton,
// and an Add is one step no reader can come between; an iterator that
// outlives an Add finds its place again by its (key, seq), which is
// unique.
//
// Nodes are carved from slabs the Table owns (the LevelDB/RocksDB arena),
// so an insert allocates nothing once a slab is open and the whole table
// is freed at once when its flush drops it. Add copies the key and value
// into a third slab, of bytes; AddView keeps a view of bytes that are
// never written again (the Main-LSM's write-ahead log records), and a
// table filled that way owns no byte slab.
package memtable

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
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
	leafCap  = 32 // entries per leaf
	innerCap = 32 // children per inner node
)

// entry is one record in a leaf, a separator in an inner node, or a
// lookup's target. w0 and w1 are the key's first 16 bytes, big-endian and
// zero-padded. kv points at the key, then gap bytes that belong to
// neither (a logged record's value-length prefix; none for a copy), then
// the value: the table's byte slab or the bytes AddView was given, never
// written again. The record's kind and gap length sit beside the entries
// in its leaf (leaf.tags), which keeps an entry at 40 bytes.
type entry struct {
	w0, w1     uint64
	seq        uint64
	kv         *byte
	klen, vlen uint32
}

// tag is the rest of a leaf entry.
type tag struct {
	kind Kind
	gap  uint8
}

// probe returns the entry a search for (key, seq) compares against.
func probe(key []byte, seq uint64) entry {
	var w [16]byte
	copy(w[:], key)
	return entry{
		w0:   binary.BigEndian.Uint64(w[:8]),
		w1:   binary.BigEndian.Uint64(w[8:]),
		seq:  seq,
		kv:   unsafe.SliceData(key),
		klen: uint32(len(key)),
	}
}

func (e *entry) key() []byte { return unsafe.Slice(e.kv, e.klen) }

// compare orders internal keys: user key ascending, then seq descending.
// The key words settle it unless both tie.
func (e *entry) compare(k *entry) int {
	switch {
	case e.w0 < k.w0, e.w0 == k.w0 && e.w1 < k.w1:
		return -1
	case e.w0 > k.w0, e.w1 > k.w1:
		return 1
	}
	return e.compareTied(k)
}

// compareTied is compare for keys whose words tie: keys of one length up
// to 16 bytes are equal, and any other pair is compared byte by byte.
func (e *entry) compareTied(k *entry) int {
	if e.klen != k.klen || e.klen > 16 {
		if c := bytes.Compare(e.key(), k.key()); c != 0 {
			return c
		}
	}
	return cmp.Compare(k.seq, e.seq)
}

// leaf holds entries in internal-key order; next is the leaf after it.
type leaf struct {
	ents [leafCap]entry
	tags [leafCap]tag
	n    int
	next *leaf
}

// search returns the index of the first entry >= k, n if there is none.
func (lf *leaf) search(k *entry) int {
	lo, hi := 0, lf.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if lf.ents[m].compare(k) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (lf *leaf) put(i int, e *entry, tg tag) {
	copy(lf.ents[i+1:lf.n+1], lf.ents[i:lf.n])
	copy(lf.tags[i+1:lf.n+1], lf.tags[i:lf.n])
	lf.ents[i], lf.tags[i] = *e, tg
	lf.n++
}

// record returns entry i's key and value, views of its bytes clipped to
// their lengths.
func (lf *leaf) record(i int) (key, value []byte) {
	e, gap := &lf.ents[i], int(lf.tags[i].gap)
	kv := unsafe.Slice(e.kv, int(e.klen)+gap+int(e.vlen))
	return kv[:e.klen:e.klen], kv[int(e.klen)+gap:]
}

// spill makes room in a full leaf by moving its last entry to the front
// of r, its right sibling under the same parent, and moving r's separator
// sep with it. It reports whether it did: not when r is full too. Random
// inserts thus split fewer, fuller leaves.
func spill(lf, r *leaf, sep *entry) bool {
	if lf.n < leafCap || r.n == leafCap {
		return false
	}
	lf.n--
	r.put(0, &lf.ents[lf.n], lf.tags[lf.n])
	*sep = r.ents[0]
	return true
}

// inner routes a search to one of n children. keys[i] parts kids[i-1]
// from kids[i]: it is the first entry of kids[i] as of the split or spill
// that last set it, and later inserts there sort after it. keys[0] is
// never read.
type inner struct {
	keys [innerCap]entry
	kids [innerCap]unsafe.Pointer // *leaf one level above the leaves, else *inner
	n    int
}

// child returns the index of the child whose range holds k: the last
// whose separator is <= k.
func (in *inner) child(k *entry) int {
	lo, hi := 1, in.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if in.keys[m].compare(k) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

func (in *inner) put(i int, sep *entry, kid unsafe.Pointer) {
	copy(in.keys[i+1:in.n+1], in.keys[i:in.n])
	copy(in.kids[i+1:in.n+1], in.kids[i:in.n])
	in.keys[i], in.kids[i] = *sep, kid
	in.n++
}

// Table is an insert-only B+tree memtable. Entries with distinct
// (key, seq) pairs never conflict; the LSM write path's sequence
// allocation guarantees uniqueness.
type Table struct {
	root   unsafe.Pointer // *leaf when height is 0, else *inner; nil while empty
	height int            // inner levels above the leaves
	head   *leaf          // the first leaf: a split moves entries rightward only
	size   int64
	count  int // also the table's version: iterators re-seek when it moved
	// hidden and hiddenCount are the footprint and number of the entries
	// a newer version of their key hides.
	hidden      int64
	hiddenCount int

	// The slab allocator. Each slice is the unused tail of the newest
	// slab of its type; the tree keeps the used parts reachable. A slab
	// is opened by the insert that finds the tail too short, at double
	// the previous one's length up to maxSlab bytes: an empty table owns
	// no slab (New allocates none), a small one about twice what its
	// entries need, a full one its entries plus a few percent.
	leaves     []leaf
	inners     []inner
	data       []byte // key and value copies; only Add opens this slab
	nextLeaves int    // length of the next slab of each type, in elements
	nextInners int
	nextData   int
	maxSlab    int // bound on one slab, in bytes
}

const (
	// firstSlabBytes is the first key/value slab; the first node slabs
	// hold one node each.
	firstSlabBytes = 4 << 10
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
	return &Table{
		nextLeaves: 1,
		nextInners: 1,
		nextData:   firstSlabBytes,
		maxSlab:    int(min(max(writeBuffer/slabFraction, minMaxSlab), maxMaxSlab)),
	}
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

func (t *Table) newLeaf() *leaf {
	return &carve(&t.leaves, 1, &t.nextLeaves, t.maxSlab/int(unsafe.Sizeof(leaf{})))[0]
}

// newInner carves an inner node. One serves some 20 leaves, so its slabs
// stop growing at an eighth of the bound: a full table's inner nodes take
// a handful of slabs, and under a large buffer the last one's unused tail
// (at most 32 KiB) is under 1 % of the table's nodes.
func (t *Table) newInner() *inner {
	return &carve(&t.inners, 1, &t.nextInners, max(1, t.maxSlab/8/int(unsafe.Sizeof(inner{}))))[0]
}

// findGE returns the leaf and index of the first entry >= k; the leaf is
// nil when there is none.
func (t *Table) findGE(k *entry) (*leaf, int) {
	if t.root == nil {
		return nil, 0
	}
	p := t.root
	for h := t.height; h > 0; h-- {
		in := (*inner)(p)
		p = in.kids[in.child(k)]
	}
	lf := (*leaf)(p)
	if i := lf.search(k); i < lf.n {
		return lf, i
	}
	return lf.next, 0
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

// entryOverhead is the footprint an entry counts beside its key and value
// bytes, roughly its share of the tree's nodes.
const entryOverhead = 32

// link puts an entry for the record into the tree, growing a new root
// when the old one splits. Both inserts end here, so the table's
// footprint counts key and value bytes, never the gap.
func (t *Table) link(seq uint64, kind Kind, kv []byte, klen, gap int) {
	vlen := len(kv) - klen - gap
	if uint64(klen) > math.MaxUint32 || uint64(vlen) > math.MaxUint32 {
		panic("memtable: a key or value of 4 GiB or more")
	}
	e := probe(kv[:klen], seq)
	e.kv, e.vlen = unsafe.SliceData(kv), uint32(vlen)
	if t.root == nil {
		t.head = t.newLeaf()
		t.root = unsafe.Pointer(t.head)
	}
	if r, sep := t.insert(t.root, t.height, &e, tag{kind, uint8(gap)}); r != nil {
		root := t.newInner()
		root.kids[0], root.kids[1], root.keys[1], root.n = t.root, r, *sep, 2
		t.root = unsafe.Pointer(root)
		t.height++
	}
	t.size += int64(len(kv)-gap) + entryOverhead
	t.count++
}

// insert puts e into the subtree at p, h levels above the leaves. When
// the node at p splits, it returns the new right sibling and that
// sibling's first entry, for p's parent to take in.
func (t *Table) insert(p unsafe.Pointer, h int, e *entry, tg tag) (unsafe.Pointer, *entry) {
	if h == 0 {
		lf := (*leaf)(p)
		i := lf.search(e)
		t.hide(lf, i, e)
		if lf.n < leafCap {
			lf.put(i, e, tg)
			return nil, nil
		}
		// A full leaf splits in half, except that an insert past the
		// table's last entry (ascending keys) starts the new leaf alone,
		// so an ascending run fills its leaves.
		s := leafCap / 2
		if i == leafCap && lf.next == nil {
			s = leafCap
		}
		r := t.newLeaf()
		copy(r.ents[:], lf.ents[s:])
		copy(r.tags[:], lf.tags[s:])
		r.n, lf.n = leafCap-s, s
		r.next, lf.next = lf.next, r
		if i < s {
			lf.put(i, e, tg)
		} else {
			r.put(i-s, e, tg)
		}
		return unsafe.Pointer(r), &r.ents[0]
	}
	in := (*inner)(p)
	i := in.child(e)
	if h == 1 && i+1 < in.n && spill((*leaf)(in.kids[i]), (*leaf)(in.kids[i+1]), &in.keys[i+1]) {
		i = in.child(e)
	}
	r, sep := t.insert(in.kids[i], h-1, e, tg)
	if r == nil {
		return nil, nil
	}
	if in.n < innerCap {
		in.put(i+1, sep, r)
		return nil, nil
	}
	const s = innerCap / 2
	nr := t.newInner()
	copy(nr.keys[:], in.keys[s:])
	copy(nr.kids[:], in.kids[s:])
	nr.n, in.n = innerCap-s, s
	if i+1 < s {
		in.put(i+1, sep, r)
	} else {
		nr.put(i+1-s, sep, r)
	}
	return unsafe.Pointer(nr), &nr.keys[0]
}

// hide counts the version e, about to go in at lf's index i, hides or is
// hidden by: the entry after it, if of its key, is older; one before it
// newer. The entry before e is in lf: a leaf other than the first starts
// with the separator that routes to it, and e sorts after that.
func (t *Table) hide(lf *leaf, i int, e *entry) {
	var o *entry
	switch {
	case i > 0 && lf.ents[i-1].sameKey(e):
		o = e
	case i < lf.n:
		o = &lf.ents[i]
	case lf.next != nil:
		o = &lf.next.ents[0]
	}
	if o != nil && o.sameKey(e) {
		t.hidden += int64(o.klen) + int64(o.vlen) + entryOverhead
		t.hiddenCount++
	}
}

// sameKey reports whether e and k have the same user key.
func (e *entry) sameKey(k *entry) bool {
	return e.w0 == k.w0 && e.w1 == k.w1 && e.klen == k.klen && (e.klen <= 16 || bytes.Equal(e.key(), k.key()))
}

// Get returns the newest entry for key. ok is false if the key has no
// entry at all; a tombstone returns ok=true with kind KindDelete. The
// returned value aliases the table's memory — its byte slab, or the
// logged record AddView was given: it is immutable and stays valid as
// long as the caller holds it, but it pins that memory, so copy it before
// caching it past the table's life.
func (t *Table) Get(key []byte) (value []byte, kind Kind, ok bool) {
	// Seek to (key, maxSeq): the first entry for key is the newest.
	k := probe(key, math.MaxUint64)
	lf, i := t.findGE(&k)
	if lf == nil {
		return nil, 0, false
	}
	e := &lf.ents[i]
	if !e.sameKey(&k) {
		return nil, 0, false
	}
	_, value = lf.record(i)
	return value, lf.tags[i].kind, true
}

// ApproximateSize returns the memtable's memory footprint in bytes.
func (t *Table) ApproximateSize() int64 { return t.size }

// Count returns the number of entries.
func (t *Table) Count() int { return t.count }

// NewestSize is ApproximateSize of the entries no newer version of their
// key hides: the footprint of what a flush that keeps only each key's
// newest version writes.
func (t *Table) NewestSize() int64 { return t.size - t.hidden }

// NewestCount is the number of entries no newer version of their key
// hides.
func (t *Table) NewestCount() int { return t.count - t.hiddenCount }

// Entry is one internal-key record surfaced by an Iterator.
type Entry struct {
	Key   []byte
	Value []byte
	Seq   uint64
	Kind  Kind
}

// Iterator walks the memtable in internal-key order. It is valid as long
// as the Table exists, and it may stay open while later Adds land: an
// insert may move entries between leaves, so a Next that finds the table
// changed since the iterator was positioned first seeks back to the
// current (key, seq), which is unique. Every entry present when the
// iterator was positioned is visited once, in order, and an entry
// inserted since is visited only if it lands ahead of the cursor. Callers
// that need a stable view bound the walk by sequence number (filtering on
// Entry().Seq), which later higher-seq inserts cannot perturb.
type Iterator struct {
	t     *Table
	lf    *leaf
	i     int
	count int   // t.count when positioned
	e     Entry // the current record
}

// NewIterator returns an iterator positioned before the first entry; call
// SeekToFirst or Seek before use.
func (t *Table) NewIterator() *Iterator { return &Iterator{t: t} }

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.lf != nil }

// SeekToFirst positions at the smallest internal key.
func (it *Iterator) SeekToFirst() { it.at(it.t.head, 0) }

// Seek positions at the first entry with user key >= key (its newest
// version first).
func (it *Iterator) Seek(key []byte) {
	k := probe(key, math.MaxUint64)
	it.at(it.t.findGE(&k))
}

// Next advances to the following internal key.
func (it *Iterator) Next() {
	if it.count != it.t.count {
		k := probe(it.e.Key, it.e.Seq)
		it.lf, it.i = it.t.findGE(&k)
	}
	if it.i+1 < it.lf.n {
		it.at(it.lf, it.i+1)
	} else {
		it.at(it.lf.next, 0)
	}
}

// at positions the iterator at entry i of lf, or past the end if lf is nil.
func (it *Iterator) at(lf *leaf, i int) {
	it.lf, it.i, it.count = lf, i, it.t.count
	if lf == nil {
		it.e = Entry{}
		return
	}
	key, value := lf.record(i)
	it.e = Entry{Key: key, Value: value, Seq: lf.ents[i].seq, Kind: lf.tags[i].kind}
}

// Entry returns the current record. Key and Value alias the table's
// memory (its byte slab or a logged record), as Get's value does: never
// modify them, and copy before keeping them past the table's life.
func (it *Iterator) Entry() Entry { return it.e }
