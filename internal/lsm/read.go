package lsm

// The layered read pipeline: every point lookup walks an explicit chain
// of layers — active memtable → immutable memtables (newest first) → L0
// tables (newest first) → one candidate file per deeper level — and
// reports which layer served it, plus what every consulted bloom filter
// did on the way down. The attribution feeds Stats (ReadsMemtable /
// ReadsImmutable / ReadsLevel / ReadMisses, Bloom*) and, through core,
// the per-source read breakdown kvbench prints.

import (
	"kvaccel/internal/memtable"
	"kvaccel/internal/sstable"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
)

// readSource tags the pipeline layer that resolved a lookup.
type readSource uint8

const (
	readSourceMiss      readSource = iota // no layer had the key
	readSourceMemtable                    // active memtable
	readSourceImmutable                   // a flush-pending immutable
	readSourceSST                         // an SST at readAttr.level
)

// readAttr is the per-lookup accounting the pipeline hands back up.
type readAttr struct {
	src   readSource
	level int // SST level when src == readSourceSST

	bloomConsults  int64
	bloomNegatives int64
	bloomFalsePos  int64
}

// recordRead folds one finished lookup into the stats. Called exactly
// once per user-level get, so
// Gets == ReadsMemtable + ReadsImmutable + ΣReadsLevel + ReadMisses
// holds exactly.
func (db *DB) recordRead(a readAttr) {
	switch a.src {
	case readSourceMemtable:
		db.stats.ReadsMemtable++
	case readSourceImmutable:
		db.stats.ReadsImmutable++
	case readSourceSST:
		l := a.level
		if l >= numLevelBuckets {
			l = numLevelBuckets - 1
		}
		db.stats.ReadsLevel[l]++
	default:
		db.stats.ReadMisses++
	}
	db.stats.BloomConsults += a.bloomConsults
	db.stats.BloomNegatives += a.bloomNegatives
	db.stats.BloomFalsePositives += a.bloomFalsePos
}

// lookup runs the layered chain and reports where the key was found.
func (db *DB) lookup(r *vclock.Runner, key []byte) (value []byte, kind memtable.Kind, found bool, attr readAttr, err error) {
	if db.closed {
		return nil, 0, false, attr, ErrClosed
	}
	mem := db.mem
	// A handful of immutables at most: the list is read into an array on
	// the stack, not a slice on the heap.
	var immBuf [8]*memtable.Table
	imms := immBuf[:0]
	for _, j := range db.imm {
		imms = append(imms, j.mt)
	}
	v := db.pinVersion()
	defer db.unpinVersion(r, v)

	// Layer 1: the active memtable.
	if v, kind, found := mem.Get(key); found {
		attr.src = readSourceMemtable
		return v, kind, true, attr, nil
	}
	// Layer 2: immutable memtables, newest first.
	for i := len(imms) - 1; i >= 0; i-- {
		if v, kind, found := imms[i].Get(key); found {
			attr.src = readSourceImmutable
			return v, kind, true, attr, nil
		}
	}
	// Layer 3: the SST levels.
	value, kind, found, err = db.lookupSST(r, v, key, &attr)
	return value, kind, found, attr, err
}

// lookupSST probes L0 newest-first, then one candidate file per deeper
// level, accumulating bloom outcomes into attr.
func (db *DB) lookupSST(r *vclock.Runner, v *version, key []byte, attr *readAttr) (value []byte, kind memtable.Kind, found bool, err error) {
	sp := db.opt.Trace.Begin(r, trace.PhaseSSTGet, "sst-get")
	defer sp.End(r)
	for l := 0; l < len(v.levels) && !found && err == nil; l++ {
		v.filesForKey(l, key, func(f *FileMeta) bool {
			var pr sstable.Probe
			value, kind, found, pr, err = f.reader.GetProbe(r, key)
			if pr.BloomConsulted {
				attr.bloomConsults++
			}
			if pr.BloomNegative {
				attr.bloomNegatives++
			}
			if pr.BloomFalsePos {
				attr.bloomFalsePos++
			}
			if found {
				attr.src, attr.level = readSourceSST, l
			}
			return !found && err == nil
		})
	}
	if err != nil || !found {
		return nil, 0, false, err
	}
	return value, kind, true, nil
}
