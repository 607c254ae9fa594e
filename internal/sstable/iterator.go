package sstable

import (
	"bytes"

	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// Iterator walks a table's records in internal-key order. Each block load
// spends device read time through the reader's source.
type Iterator struct {
	rd    *Reader
	r     *vclock.Runner
	bi    int    // current block index
	blk   []byte // undecoded remainder of the current block
	cur   record
	valid bool
	err   error
}

// NewIterator returns an iterator bound to runner r for timed block loads.
func (rd *Reader) NewIterator(r *vclock.Runner) *Iterator {
	return &Iterator{rd: rd, r: r, bi: -1}
}

// Err returns the first I/O or corruption error the iterator hit.
func (it *Iterator) Err() error { return it.err }

// Valid reports whether the iterator is positioned on a record.
func (it *Iterator) Valid() bool { return it.valid }

// Entry returns the current record.
func (it *Iterator) Entry() memtable.Entry {
	return memtable.Entry{Key: it.cur.key, Value: it.cur.value, Seq: it.cur.seq, Kind: it.cur.kind}
}

func (it *Iterator) loadBlock(i int) bool {
	if i < 0 || i >= len(it.rd.index) {
		it.valid = false
		return false
	}
	blk, err := it.rd.loadBlock(it.r, i)
	if err != nil {
		it.err = err
		it.valid = false
		return false
	}
	it.bi = i
	it.blk = blk
	return true
}

// step decodes the next record in the current block, moving to the next
// block when exhausted.
func (it *Iterator) step() {
	for {
		if len(it.blk) == 0 {
			if !it.loadBlock(it.bi + 1) {
				return
			}
		}
		rec, rest, err := decodeNext(it.blk)
		if err != nil {
			it.err = err
			it.valid = false
			return
		}
		it.blk = rest
		it.cur = rec
		it.valid = true
		return
	}
}

// SeekToFirst positions at the table's first record.
func (it *Iterator) SeekToFirst() {
	it.valid = false
	it.blk = nil
	it.bi = -1
	it.step()
}

// Seek positions at the first record with user key >= key.
func (it *Iterator) Seek(key []byte) {
	it.valid = false
	it.blk = nil
	bi := it.rd.blockFor(key)
	if bi < 0 {
		bi = 0
	}
	it.bi = bi - 1
	it.step()
	for it.valid && bytes.Compare(it.cur.key, key) < 0 {
		it.step()
	}
}

// Next advances to the following record.
func (it *Iterator) Next() { it.step() }
