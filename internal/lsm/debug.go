package lsm

import (
	"bytes"
	"fmt"

	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// DebugDumpKey logs every structure that holds a version of key —
// memtable, immutables, and each level's candidate files — plus any
// violation of the sorted/disjoint invariant on levels >= 1.
// Diagnostics only.
func (db *DB) DebugDumpKey(logf func(string, ...interface{}), r *vclock.Runner, key []byte, tag int) {
	db.mu.Lock()
	mem := db.mem
	imms := make([]*memtable.Table, len(db.imm))
	for i, j := range db.imm {
		imms[i] = j.mt
	}
	vers := db.pinVersionLocked()
	db.mu.Unlock()
	defer db.unpinVersion(r, vers)

	first := func(v []byte) byte {
		if len(v) == 0 {
			return '?'
		}
		return v[0]
	}
	if v, kind, ok := mem.Get(key); ok {
		logf("[%d] mem: kind=%v val0=%c", tag, kind, first(v))
	}
	for i, im := range imms {
		if v, kind, ok := im.Get(key); ok {
			logf("[%d] imm%d: kind=%v val0=%c", tag, i, kind, first(v))
		}
	}
	for l, files := range vers.levels {
		for _, f := range files {
			v, kind, found, err := f.reader.Get(r, key)
			logf("[%d] L%d file#%d [%q..%q] compacting=%v obsolete=%v: found=%v kind=%v val0=%c err=%v",
				tag, l, f.Num, f.Smallest, f.Largest, f.beingCompacted, f.obsolete, found, kind, first(v), err)
		}
		if l >= 1 {
			for i := 1; i < len(files); i++ {
				if bytes.Compare(files[i-1].Largest, files[i].Smallest) >= 0 {
					logf("[%d] INVARIANT VIOLATION at L%d: file#%d [%q..%q] overlaps file#%d [%q..%q]",
						tag, l, files[i-1].Num, files[i-1].Smallest, files[i-1].Largest,
						files[i].Num, files[i].Smallest, files[i].Largest)
				}
			}
		}
	}
}

// CheckInvariants validates the version's structural invariants: levels
// >= 1 sorted by smallest key with pairwise-disjoint ranges, every file's
// range non-inverted, and no file marked compacted but absent. It exists
// for tests and fuzzing; a healthy engine always passes.
func (db *DB) CheckInvariants() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for l, files := range db.vers.levels {
		for i, f := range files {
			if bytes.Compare(f.Smallest, f.Largest) > 0 {
				return fmt.Errorf("L%d file#%d has inverted range [%q,%q]", l, f.Num, f.Smallest, f.Largest)
			}
			if f.obsolete {
				return fmt.Errorf("L%d file#%d is obsolete but still in the version", l, f.Num)
			}
			if !db.fsys.Exists(f.Name()) {
				return fmt.Errorf("L%d file#%d missing from the file system", l, f.Num)
			}
			if l >= 1 && i > 0 {
				prev := files[i-1]
				if bytes.Compare(prev.Smallest, f.Smallest) > 0 {
					return fmt.Errorf("L%d not sorted: file#%d before file#%d", l, prev.Num, f.Num)
				}
				if bytes.Compare(prev.Largest, f.Smallest) >= 0 {
					return fmt.Errorf("L%d overlap: file#%d [%q,%q] vs file#%d [%q,%q]",
						l, prev.Num, prev.Smallest, prev.Largest, f.Num, f.Smallest, f.Largest)
				}
			}
		}
	}
	return nil
}
