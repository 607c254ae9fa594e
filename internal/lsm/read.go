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
	if value, kind, found, attr = db.lookupMem(key); !found {
		value, kind, found, err = db.lookupSST(r, key, &attr)
	}
	return value, kind, found, attr, err
}

// lookupMem probes the active memtable, then the immutables newest first.
func (db *DB) lookupMem(key []byte) (value []byte, kind memtable.Kind, found bool, attr readAttr) {
	if value, kind, found = db.mem.Get(key); found {
		attr.src = readSourceMemtable
	}
	for i := len(db.imm) - 1; i >= 0 && !found; i-- {
		if value, kind, found = db.imm[i].mt.Get(key); found {
			attr.src = readSourceImmutable
		}
	}
	return value, kind, found, attr
}

// lookupSST probes L0 newest-first, then one candidate file per deeper
// level of the current version, which it pins while it reads, and
// accumulates bloom outcomes into attr.
func (db *DB) lookupSST(r *vclock.Runner, key []byte, attr *readAttr) (value []byte, kind memtable.Kind, found bool, err error) {
	sp := db.opt.Trace.Begin(r, trace.PhaseSSTGet, "sst-get")
	v := db.pinVersion()
	defer db.unpinVersion(r, v)
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

// Read is a point read a kernel task steps through DB.GetStep. Key is the
// key to read; once a step reports the read done, Value, OK and Err are
// what Get would have returned.
type Read struct {
	Key, Value []byte
	OK         bool
	Err        error
	db         *DB // the DB whose get runs in the read's call (getCall)
}

// GetStep is Get as a stepped primitive (see vclock.Clock.GoTask): it
// reports whether rd is done; until it is, r is parked or has asked for a
// call (vclock.Runner.Call), and the caller calls again with the same rd
// at r's next turn. The ReadCPU charge and a key the memtables resolve
// take no call; a closed DB, an SST read and a value pointer run get, the
// rest of Get, in one.
func (db *DB) GetStep(r *vclock.Runner, rd *Read) (done bool) {
	if rd.db != nil { // the call has returned
		rd.db = nil
		return true
	}
	if !db.opt.CPU.RunStep(r, db.opt.Cost.ReadCPU) {
		return false
	}
	if v, kind, found, attr := db.lookupMem(rd.Key); !db.closed && found && kind != memtable.KindValuePtr {
		db.stats.Gets++
		db.recordRead(attr)
		rd.OK, rd.Err = kind != memtable.KindDelete, nil
		if rd.Value = nil; rd.OK {
			rd.Value = v
		}
		return true
	}
	rd.db = db
	r.Call(getCall, rd)
	return false
}

func getCall(r *vclock.Runner, rd any) {
	g := rd.(*Read)
	g.Value, g.OK, g.Err = g.db.get(r, g.Key)
}
