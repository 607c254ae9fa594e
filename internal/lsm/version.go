package lsm

import (
	"bytes"
	"fmt"
	"sort"

	"kvaccel/internal/sstable"
)

// FileMeta describes one live SST file.
type FileMeta struct {
	Num      uint64
	Level    int
	Smallest []byte
	Largest  []byte
	Size     int64
	Entries  int

	reader         *sstable.Reader
	beingCompacted bool
	refs           int  // versions in use that list the file
	obsolete       bool // not in the current version; delete when refs==0
}

// Name returns the file's name on the block-interface file system.
func (f *FileMeta) Name() string { return SSTName(f.Num) }

// SSTName formats the file name for table number n.
func SSTName(n uint64) string { return fmt.Sprintf("%06d.sst", n) }

// overlaps reports whether f's key range intersects [smallest, largest].
func (f *FileMeta) overlaps(smallest, largest []byte) bool {
	if largest != nil && bytes.Compare(f.Smallest, largest) > 0 {
		return false
	}
	if smallest != nil && bytes.Compare(f.Largest, smallest) < 0 {
		return false
	}
	return true
}

// version is one state of the levels. Level 0 is ordered oldest-first
// (append order, i.e. ascending file number); levels 1+ are sorted by
// smallest key with disjoint ranges.
//
// The DB's current version is immutable once installed: a flush or a
// compaction edits a clone and installs that (DB.installVersion).
// A reader therefore pins the whole file set by pinning the version —
// one counter, LevelDB's Version::Ref — instead of copying the lists and
// touching every file. pins counts the holders: the DB itself while the
// version is current, plus every Get and iterator in flight on it. The
// files are referenced once per version, when it is installed, and let
// go when its last pin drops; a file no version references any more, and
// that the current one no longer lists, is deleted then.
type version struct {
	levels [][]*FileMeta
	pins   int
}

// newVersion returns an empty version nobody holds yet.
func newVersion(maxLevels int) *version {
	return &version{levels: make([][]*FileMeta, maxLevels)}
}

// firstVersion returns the empty version a DB starts from, holding the
// DB's own pin. Recovery fills it in place, before any reader exists.
func firstVersion(maxLevels int) *version {
	v := newVersion(maxLevels)
	v.pins = 1
	return v
}

// clone returns an unpinned copy whose level lists are its own, for
// addFile and removeFile to edit.
func (v *version) clone() *version {
	nv := newVersion(len(v.levels))
	for l, files := range v.levels {
		nv.levels[l] = append([]*FileMeta(nil), files...)
	}
	return nv
}

// addFile inserts f into its level, preserving that level's invariant.
func (v *version) addFile(f *FileMeta) {
	l := f.Level
	if l == 0 {
		v.levels[0] = append(v.levels[0], f)
		return
	}
	files := v.levels[l]
	i := sort.Search(len(files), func(i int) bool {
		return bytes.Compare(files[i].Smallest, f.Smallest) >= 0
	})
	files = append(files, nil)
	copy(files[i+1:], files[i:])
	files[i] = f
	v.levels[l] = files
}

// removeFile detaches f from its level; it reports whether it was found.
func (v *version) removeFile(f *FileMeta) bool {
	files := v.levels[f.Level]
	for i, g := range files {
		if g == f {
			v.levels[f.Level] = append(files[:i:i], files[i+1:]...)
			return true
		}
	}
	return false
}

// levelBytes sums the file sizes at level l.
func (v *version) levelBytes(l int) int64 {
	var n int64
	for _, f := range v.levels[l] {
		n += f.Size
	}
	return n
}

// overlapping returns the files at level l intersecting [smallest, largest].
func (v *version) overlapping(l int, smallest, largest []byte) []*FileMeta {
	var out []*FileMeta
	for _, f := range v.levels[l] {
		if f.overlaps(smallest, largest) {
			out = append(out, f)
		}
	}
	return out
}

// filesForKey calls visit with each file that might hold key at level l
// until visit returns false: for L0 newest-first; for deeper levels at
// most one file matches (ranges are disjoint). It builds nothing.
func (v *version) filesForKey(l int, key []byte, visit func(*FileMeta) bool) {
	files := v.levels[l]
	if l == 0 {
		for i := len(files) - 1; i >= 0; i-- {
			if files[i].overlaps(key, key) && !visit(files[i]) {
				return
			}
		}
		return
	}
	// First file whose largest >= key.
	i := sort.Search(len(files), func(i int) bool {
		return bytes.Compare(files[i].Largest, key) >= 0
	})
	if i < len(files) && files[i].overlaps(key, key) {
		visit(files[i])
	}
}

// targetBytes returns level l's size target.
func targetBytes(opt *Options, l int) int64 {
	if l <= 0 {
		return 0
	}
	t := opt.BaseLevelBytes
	for i := 1; i < l; i++ {
		t *= opt.LevelMultiplier
	}
	return t
}

// pendingCompactionBytes estimates RocksDB's
// estimated_pending_compaction_bytes: the debt that compaction must move
// to bring every level under target.
func (v *version) pendingCompactionBytes(opt *Options) int64 {
	var pending int64
	if n := len(v.levels[0]); n >= opt.L0CompactionTrigger {
		pending += v.levelBytes(0)
	}
	for l := 1; l < len(v.levels)-1; l++ {
		if over := v.levelBytes(l) - targetBytes(opt, l); over > 0 {
			pending += over
		}
	}
	return pending
}
