package lsm

import (
	"bytes"
	"fmt"
)

// CheckInvariants validates the version's structural invariants: levels
// >= 1 sorted by smallest key with pairwise-disjoint ranges, every file's
// range non-inverted, and no file marked compacted but absent. It exists
// for tests and fuzzing; a healthy engine always passes.
func (db *DB) CheckInvariants() error {
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
