package lsm

import (
	"bytes"
	"kvaccel/internal/iterkit"
	"kvaccel/internal/memtable"
	"kvaccel/internal/sstable"
	"kvaccel/internal/vclock"
)

// levelIterator concatenates the disjoint, sorted files of one level >= 1,
// opening at most one table iterator at a time (RocksDB's two-level
// iterator), so a Seek touches a single file per level.
type levelIterator struct {
	r     *vclock.Runner
	files []*FileMeta
	idx   int
	cur   *sstable.Iterator
}

func newLevelIterator(r *vclock.Runner, files []*FileMeta) *levelIterator {
	return &levelIterator{r: r, files: files, idx: -1}
}

func (li *levelIterator) openFile(i int) bool {
	if i < 0 || i >= len(li.files) {
		li.cur = nil
		li.idx = len(li.files)
		return false
	}
	li.idx = i
	li.cur = li.files[i].reader.NewIterator(li.r)
	return true
}

func (li *levelIterator) SeekToFirst() {
	if li.openFile(0) {
		li.cur.SeekToFirst()
		li.skipExhausted()
	}
}

func (li *levelIterator) Seek(key []byte) {
	// First file whose largest key is >= key.
	lo, hi := 0, len(li.files)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(li.files[mid].Largest, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if li.openFile(lo) {
		li.cur.Seek(key)
		li.skipExhausted()
	}
}

func (li *levelIterator) Next() {
	if li.cur == nil {
		return
	}
	li.cur.Next()
	li.skipExhausted()
}

// skipExhausted advances across file boundaries.
func (li *levelIterator) skipExhausted() {
	for li.cur != nil && !li.cur.Valid() {
		if !li.openFile(li.idx + 1) {
			return
		}
		li.cur.SeekToFirst()
	}
}

func (li *levelIterator) Valid() bool { return li.cur != nil && li.cur.Valid() }

func (li *levelIterator) Entry() memtable.Entry { return li.cur.Entry() }

// Iterator is the DB's public range-scan cursor: a merge over the
// memtables and every level, surfacing each live user key once (newest
// version, tombstones hidden). Close must be called to unpin the version
// the cursor reads.
type Iterator struct {
	db     *DB
	r      *vclock.Runner
	merged *iterkit.Merge
	vers   *version // pinned until Close
	key    []byte
	value  []byte
	valid  bool
	closed bool
	err    error // sticky value-pointer dereference failure
}

// NewIterator returns a range-scan cursor bound to runner r.
func (db *DB) NewIterator(r *vclock.Runner) *Iterator {
	db.mu.Lock()
	// Pin value-log segments: GC defers punching (finishSegment) while any
	// iterator is open, so every pointer this cursor surfaces stays
	// dereferenceable until Close.
	db.openIters++
	mem := db.mem
	imms := make([]*memtable.Table, len(db.imm))
	for i, j := range db.imm {
		imms[i] = j.mt
	}
	v := db.pinVersionLocked()
	db.mu.Unlock()

	var children []iterkit.Iterator
	children = append(children, mem.NewIterator())
	for i := len(imms) - 1; i >= 0; i-- {
		children = append(children, imms[i].NewIterator())
	}
	l0 := v.levels[0]
	for i := len(l0) - 1; i >= 0; i-- { // newest first for deterministic ties
		children = append(children, l0[i].reader.NewIterator(r))
	}
	for l := 1; l < len(v.levels); l++ {
		if len(v.levels[l]) > 0 {
			children = append(children, newLevelIterator(r, v.levels[l]))
		}
	}
	return &Iterator{db: db, r: r, merged: iterkit.NewMerge(children), vers: v}
}

// Close unpins the iterator's version. The iterator is unusable
// afterwards.
func (it *Iterator) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.db.unpinVersion(it.r, it.vers)
	db := it.db
	db.mu.Lock()
	db.openIters--
	wake := db.openIters == 0 && len(db.punchQueue) > 0
	db.mu.Unlock()
	if wake {
		db.bgCond.Broadcast() // GC worker can drain the punch queue now
	}
}

// Err returns the first value-pointer dereference failure the iterator
// hit; a valid==false cursor with nil Err is simply exhausted.
func (it *Iterator) Err() error { return it.err }

// Valid reports whether the iterator is on a live user key.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current user key.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value.
func (it *Iterator) Value() []byte { return it.value }

// Seek positions at the first live user key >= key.
func (it *Iterator) Seek(key []byte) {
	it.db.opt.CPU.Run(it.r, it.db.opt.Cost.IterCPU)
	it.merged.Seek(key)
	it.settle(nil)
}

// SeekToFirst positions at the smallest live user key.
func (it *Iterator) SeekToFirst() {
	it.db.opt.CPU.Run(it.r, it.db.opt.Cost.IterCPU)
	it.merged.SeekToFirst()
	it.settle(nil)
}

// Next advances to the next live user key.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	it.db.opt.CPU.Run(it.r, it.db.opt.Cost.IterCPU)
	prev := append([]byte(nil), it.key...)
	it.merged.Next()
	it.settle(prev)
}

// settle walks the merged stream to the next visible user key, skipping
// older versions of prev (and of each key it lands on) plus tombstones.
func (it *Iterator) settle(prev []byte) {
	for it.merged.Valid() {
		e := it.merged.Entry()
		if prev != nil && bytes.Equal(e.Key, prev) {
			it.merged.Next()
			continue
		}
		// e is the newest version of its user key.
		if e.Kind == memtable.KindDelete {
			prev = append(prev[:0], e.Key...)
			it.merged.Next()
			continue
		}
		it.key = append(it.key[:0], e.Key...)
		if e.Kind == memtable.KindValuePtr {
			// Open iterators pin segments against punching, so the
			// dereference cannot race GC; failure here is real corruption.
			v, err := it.db.derefPointer(it.r, e.Key, e.Value)
			if err != nil {
				it.err = err
				it.valid = false
				return
			}
			it.value = append(it.value[:0], v...)
		} else {
			it.value = append(it.value[:0], e.Value...)
		}
		it.valid = true
		return
	}
	it.valid = false
}
