package core

import (
	"bytes"

	"kvaccel/internal/iterkit"
	"kvaccel/internal/lsm"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// Iterator is KVACCEL's dual-LSM range cursor (§V-F, Figure 10): one
// iterator per interface, aggregated by a comparator that always yields
// the globally smallest next user key, consulting the Metadata Manager
// when both LSMs hold a version of the same key.
type Iterator struct {
	db   *DB
	r    *vclock.Runner
	main *lsm.Iterator
	dev  iterkit.Iterator

	key     []byte
	value   []byte
	valid   bool
	advMain bool // sources positioned at the yielded key, to advance on Next
	advDev  bool
	closed  bool
}

// NewIterator creates iterators on both interfaces (Figure 10 step 1).
func (db *DB) NewIterator(r *vclock.Runner) *Iterator {
	return &Iterator{
		db:   db,
		r:    r,
		main: db.main.NewIterator(r),
		dev:  db.dev.NewKVIterator(r),
	}
}

// Close releases the Main-LSM cursor, unpinning the version it reads.
func (it *Iterator) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.main.Close()
}

// Valid reports whether the cursor is on a live key.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current user key.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value.
func (it *Iterator) Value() []byte { return it.value }

// Seek performs the Seek on both iterators (Figure 10 step 2) and settles
// on the comparator's pick (step 3).
func (it *Iterator) Seek(key []byte) {
	it.main.Seek(key)
	it.dev.Seek(key)
	it.settle()
}

// SeekToFirst positions both iterators at their start.
func (it *Iterator) SeekToFirst() {
	it.main.SeekToFirst()
	it.dev.SeekToFirst()
	it.settle()
}

// Next advances whichever iterator(s) produced the current key (Figure 10
// steps 4-7: the comparator switches between iterators as their keys
// interleave).
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	if it.advMain {
		it.main.Next()
	}
	if it.advDev {
		it.dev.Next()
	}
	it.settle()
}

// settle applies the comparator: smallest key wins; on a tie the Metadata
// Manager decides which LSM holds the newest version; Dev-LSM tombstones
// suppress the key.
func (it *Iterator) settle() {
	for {
		mv, dv := it.main.Valid(), it.dev.Valid()
		if !mv && !dv {
			it.valid = false
			return
		}
		var devEntry memtable.Entry
		if dv {
			devEntry = it.dev.Entry()
		}
		var cmp int
		switch {
		case mv && dv:
			cmp = bytes.Compare(it.main.Key(), devEntry.Key)
		case mv:
			cmp = -1
		default:
			cmp = 1
		}

		switch {
		case cmp < 0:
			// Main-LSM key is smallest and the Dev-LSM has no version of
			// it at all.
			it.yield(it.main.Key(), it.main.Value(), true, false)
			return

		case cmp > 0:
			// Dev-LSM-only key: live only if the metadata manager still
			// marks it latest and it is not a tombstone.
			if it.db.meta.Contains(devEntry.Key) && devEntry.Kind != memtable.KindDelete {
				it.yield(devEntry.Key, devEntry.Value, false, true)
				return
			}
			it.dev.Next()

		default:
			// Both hold the key: the metadata manager picks the winner.
			if it.db.meta.Contains(devEntry.Key) {
				if devEntry.Kind == memtable.KindDelete {
					// Redirected delete shadows the main version.
					it.main.Next()
					it.dev.Next()
					continue
				}
				it.yield(devEntry.Key, devEntry.Value, true, true)
				return
			}
			it.yield(it.main.Key(), it.main.Value(), true, true)
			return
		}
	}
}

func (it *Iterator) yield(key, value []byte, advMain, advDev bool) {
	it.key = append(it.key[:0], key...)
	it.value = append(it.value[:0], value...)
	it.advMain, it.advDev = advMain, advDev
	it.valid = true
}
