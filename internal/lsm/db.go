package lsm

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"kvaccel/internal/fs"
	"kvaccel/internal/memtable"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
	"kvaccel/internal/vlog"
	"kvaccel/internal/wal"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("lsm: database closed")

// flushJob pairs an immutable memtable with the WAL that covers it.
type flushJob struct {
	mt  *memtable.Table
	log *wal.Log
}

// DB is the Main-LSM engine.
type DB struct {
	clk  *vclock.Clock
	fsys *fs.FileSystem
	opt  Options

	writeCond *vclock.Cond // stalled writers wait here
	bgCond    *vclock.Cond // background workers and WaitIdle wait here
	groupCond *vclock.Cond // group-commit members wait for their leader here

	// Group-commit state (group.go): writers queued for the next group,
	// their staged bytes, and whether a leader is mid-commit. The next
	// group queues in groupQueue while the current leader is in the WAL.
	groupQueue vclock.Ring[*groupWriter]
	groupBytes int64
	committing bool
	// freeWriters recycles groupWriters (newWriter, releaseWriter).
	freeWriters []*groupWriter
	// failNextAppend, when set, makes the next group's WAL append fail
	// with this error without touching the log — the deterministic
	// injection hook for the seq-release regression test.
	failNextAppend error
	// applying counts in-flight memtable inserts per table: each writer
	// inserts its own records after its group's append, so a flush of a
	// rotated memtable must wait until its count drains or it would
	// capture the table without records already committed to the WAL.
	applying map[*memtable.Table]int

	seq     uint64
	memSize int64 // runtime-adjustable memtable threshold
	mem     *memtable.Table
	log     *wal.Log
	imm     []flushJob
	vers    *version
	pending int64 // cached pendingCompactionBytes

	nextFileNum       uint64
	compactingL0      bool
	compactionThreads int
	activeCompactions int
	flushing          bool
	stalledWriters    int
	cursor            [][]byte // per-level round-robin compaction cursor
	closed            bool

	manifest manifestState
	// persistSem serializes whole manifest persists (MANIFEST write,
	// CURRENT repoint, predecessor removal). Flush and compaction
	// workers install concurrently; without the serialization one
	// worker can remove the manifest another worker's CURRENT is about
	// to reference, leaving a dangling CURRENT after a crash.
	persistSem *vclock.Semaphore
	bgErr      error // sticky background failure (device full): DB goes read-only

	// Value separation (vlog.go in this package). vlog is nil unless
	// ValueThreshold > 0 or recovery found value-log state.
	vlog *vlog.Manager

	stats Stats
}

// Open creates a DB on fsys and starts its background runners on clk.
func Open(clk *vclock.Clock, fsys *fs.FileSystem, opt Options) *DB {
	db := newDB(clk, fsys, opt)
	// A fresh open over a non-empty namespace means a previous incarnation
	// died before persisting its first manifest: no CURRENT, so none of its
	// files — WALs, SSTs, vlog segments — carry durability obligations (a
	// Flush barrier would have persisted CURRENT). They must not survive
	// into this incarnation: a fresh DB reuses WAL numbers and vlog segment
	// ids from 1, and a stale VLOG-1 under a fresh pointer (1, off) would
	// silently resolve committed pointers into the dead incarnation's bytes
	// after the next crash. Formatting the namespace removes the collision.
	if !fsys.Exists(currentName) {
		fsys.Format()
	}
	db.log = db.newWAL()
	if db.opt.ValueThreshold > 0 {
		db.vlog = vlog.Open(clk, fsys, db.vlogOptions())
	}
	clk.Go("lsm.flush", db.flushWorker)
	for i := 0; i < db.opt.MaxCompactionThreads; i++ {
		i := i
		clk.Go(fmt.Sprintf("lsm.compact%d", i), func(r *vclock.Runner) { db.compactionWorker(r, i) })
	}
	return db
}

// newDB builds the DB Open and Reopen share — the first memtable and
// version, and the conditions, window and semaphore its
// runners wait on — over a fresh namespace's counters. It starts no
// runner: each caller starts its own, in its own order.
func newDB(clk *vclock.Clock, fsys *fs.FileSystem, opt Options) *DB {
	opt.sanitize()
	return &DB{
		clk:               clk,
		fsys:              fsys,
		opt:               opt,
		memSize:           opt.MemtableSize,
		mem:               memtable.New(opt.MemtableSize),
		vers:              firstVersion(opt.MaxLevels),
		nextFileNum:       1,
		compactionThreads: opt.CompactionThreads,
		cursor:            make([][]byte, opt.MaxLevels),
		applying:          make(map[*memtable.Table]int),
		writeCond:         vclock.NewCond("lsm.writeStall"),
		bgCond:            vclock.NewCond("lsm.background"),
		groupCond:         vclock.NewCond("lsm.writeGroup"),
		persistSem:        vclock.NewSemaphore(1, "lsm.manifest"),
	}
}

func (db *DB) newWAL() *wal.Log {
	name := fmt.Sprintf("%06d.log", db.nextFileNum)
	db.nextFileNum++
	return wal.Open(db.clk, db.fsys, name, wal.Options{
		ChunkSize:  db.opt.WALChunkSize,
		QueueDepth: db.opt.WALQueueDepth,
		CPU:        db.opt.CPU,
		AppendCPU:  db.opt.Cost.WALAppendCPU,
	})
}

// Close stops background work. Unflushed memtables are discarded (call
// Flush first for durability); in-flight compactions finish.
func (db *DB) Close() {
	if db.closed {
		return
	}
	db.closed = true
	logs := make([]*wal.Log, 0, len(db.imm)+1)
	logs = append(logs, db.log)
	for _, j := range db.imm {
		logs = append(logs, j.log)
	}
	for _, l := range logs {
		l.Close()
	}
	if db.vlog != nil {
		db.vlog.Close()
	}
	db.bgCond.Broadcast()
	db.writeCond.Broadcast()
	db.groupCond.Broadcast()
}

// Put inserts or overwrites a key.
func (db *DB) Put(r *vclock.Runner, key, value []byte) error {
	return db.write(r, WriteOptions{}, memtable.KindPut, key, value)
}

// PutWith is Put with per-write admission options.
func (db *DB) PutWith(r *vclock.Runner, wo WriteOptions, key, value []byte) error {
	return db.write(r, wo, memtable.KindPut, key, value)
}

// Delete writes a tombstone for a key.
func (db *DB) Delete(r *vclock.Runner, key []byte) error {
	return db.write(r, WriteOptions{}, memtable.KindDelete, key, nil)
}

// DeleteWith is Delete with per-write admission options.
func (db *DB) DeleteWith(r *vclock.Runner, wo WriteOptions, key []byte) error {
	return db.write(r, wo, memtable.KindDelete, key, nil)
}

func (db *DB) write(r *vclock.Runner, wo WriteOptions, kind memtable.Kind, key, value []byte) error {
	return db.commit(r, db.newPointWriter(wo, kind, key, value))
}

// newPointWriter stages one record in the writer's own single-op backing
// store, so a point write on a recycled writer allocates nothing. key and
// value stay the caller's: the commit copies them into the log buffer,
// whose record the memtable then aliases, and the writer forgets them
// when commit releases it.
func (db *DB) newPointWriter(wo WriteOptions, kind memtable.Kind, key, value []byte) *groupWriter {
	w := db.newWriter()
	w.noStall, w.userBytes = wo.NoStallWait, int64(len(key)+len(value))
	w.single[0] = batchOp{kind: kind, key: key, value: value}
	w.ops = w.single[:1]
	return w
}

// commit is the one route from a caller to the log and the memtable:
// Put/Delete and Write both stage their ops in a groupWriter and come
// through here. It moves large values to the value log, then commits the
// group. The writer is spent when commit returns: it goes back on the
// free list here, so callers must not touch w afterwards.
func (db *DB) commit(r *vclock.Runner, w *groupWriter) error {
	defer db.releaseWriter(w)
	if err := db.separateOps(r, w); err != nil {
		return err
	}
	return db.commitThroughGroup(r, w)
}

// beginApply registers in-flight memtable inserts on mt; the flush
// worker will not capture mt until they drain. The leader calls it at
// claim time: its members insert only after leadership has passed, by
// when the next leader or a Flush may have rotated mt.
func (db *DB) beginApply(mt *memtable.Table, n int) {
	db.applying[mt] += n
}

// releaseApply retires n in-flight-insert registrations on mt,
// waking the flush worker when the table's count drains. Each applier
// releases its own insert; the group leader releases them all when an
// append failure means the group will never apply.
func (db *DB) releaseApply(mt *memtable.Table, n int) {
	db.applying[mt] -= n
	if db.applying[mt] <= 0 {
		delete(db.applying, mt)
		db.bgCond.Broadcast()
	}
}

// makeRoomForWrite implements RocksDB's write controller: slowdown first
// (if enabled), then hard stops for the three stall classes, rotating the
// memtable when it fills.
//
// The caller is a group-commit leader admitting its whole queue (itself
// at the head): the slowdown rate delay covers every queued byte, and a
// stall ejects queued NoStallWait members before the leader parks.
// noStall turns the three hard-stop branches into ErrWouldStall returns
// for the leader itself (the failover signal); slowdown throttling still
// applies because it is bounded.
func (db *DB) makeRoomForWrite(r *vclock.Runner, noStall bool) error {
	allowDelay := db.opt.EnableSlowdown
	stallCounted := [numStallReasons]bool{}
	for {
		if db.closed {
			return ErrClosed
		}
		if db.bgErr != nil {
			return db.bgErr
		}
		l0 := len(db.vers.levels[0])
		stall := func(reason StallReason) error {
			db.ejectNoStall()
			if noStall {
				db.stats.WouldStalls++
				return ErrWouldStall
			}
			db.stallWait(r, reason, &stallCounted)
			return nil
		}
		switch {
		case allowDelay && db.slowdownCondition():
			allowDelay = false
			db.stats.Slowdowns++
			delay := db.opt.SlowdownSleep
			if rate := db.opt.DelayedWriteBytesPerSec; rate > 0 {
				d := time.Duration(float64(db.groupBytes) / float64(rate) * float64(time.Second))
				if d > delay {
					delay = d
				}
			}
			ssp := db.opt.Trace.Begin(r, trace.PhaseSlowdown, "slowdown")
			r.Sleep(delay)
			ssp.End(r)

		case db.mem.ApproximateSize() <= db.memSize:
			return nil

		case len(db.imm) >= db.opt.MaxImmutableMemtables:
			if err := stall(StallMemtable); err != nil {
				return err
			}

		case l0 >= db.opt.L0StopTrigger:
			if err := stall(StallL0); err != nil {
				return err
			}

		case db.pending >= db.opt.PendingCompactionStopBytes:
			if err := stall(StallPending); err != nil {
				return err
			}

		default:
			db.rotateMemtable()
		}
	}
}

func (db *DB) slowdownCondition() bool {
	if len(db.vers.levels[0]) >= db.opt.L0SlowdownTrigger {
		return true
	}
	if db.pending >= db.opt.PendingCompactionSlowdownBytes {
		return true
	}
	// Memtable pressure: the active table is full and the flush backlog
	// is at its limit.
	if db.mem.ApproximateSize() > db.memSize && len(db.imm) >= db.opt.MaxImmutableMemtables {
		return true
	}
	return false
}

// stallWait blocks the writer until background work signals progress.
func (db *DB) stallWait(r *vclock.Runner, reason StallReason, counted *[numStallReasons]bool) {
	if !counted[reason] {
		counted[reason] = true
		db.stats.StallEvents[reason]++
	}
	db.stalledWriters++
	sp := db.opt.Trace.Begin(r, trace.PhaseStallWait, reason.String())
	start := r.Now()
	db.writeCond.Wait(r)
	db.stats.StallTime += r.Now().Sub(start)
	sp.End(r)
	db.stalledWriters--
}

// rotateMemtable moves the full active memtable to the flush queue.
func (db *DB) rotateMemtable() {
	db.imm = append(db.imm, flushJob{mt: db.mem, log: db.log})
	db.mem = memtable.New(db.memSize)
	db.log = db.newWAL()
	db.bgCond.Broadcast()
}

// Get returns the newest value for key; ok is false if absent or deleted.
// The value is read-only and may alias engine memory. Copy it to modify
// it, or to keep it past its use, since it pins the buffer it points into.
//
// The lookup walks the layered read pipeline (read.go), dereferencing
// value pointers.
func (db *DB) Get(r *vclock.Runner, key []byte) (value []byte, ok bool, err error) {
	db.opt.CPU.Run(r, db.opt.Cost.ReadCPU)
	return db.get(r, key)
}

// get is Get once the ReadCPU charge is paid.
func (db *DB) get(r *vclock.Runner, key []byte) (value []byte, ok bool, err error) {
	if db.closed {
		return nil, false, ErrClosed
	}
	db.stats.Gets++

	v, kind, found, attr, err := db.lookup(r, key)
	db.recordRead(attr)
	switch {
	case err != nil:
		return nil, false, err
	case !found || kind == memtable.KindDelete:
		return nil, false, nil
	case kind != memtable.KindValuePtr:
		return v, true, nil
	}
	val, err := db.derefPointer(r, key, v)
	if err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// pinVersion pins the current version for a read: its files stay
// on disk, with their readers open, until the matching unpinVersion.
func (db *DB) pinVersion() *version {
	db.vers.pins++
	return db.vers
}

// unpinVersion drops a read's pin, deleting the files that only v still
// held; r pays the TRIM command cost of any deletions.
func (db *DB) unpinVersion(r *vclock.Runner, v *version) {
	dead := db.releaseVersion(v)
	for _, f := range dead {
		_ = db.fsys.Remove(r, f.Name())
	}
}

// releaseVersion drops one pin on v. With the last one v lets go of
// its files, and those no version references any more and the current one
// no longer lists are returned for the caller to delete, which costs it
// device time.
func (db *DB) releaseVersion(v *version) (dead []*FileMeta) {
	if v.pins--; v.pins > 0 {
		return nil
	}
	for _, files := range v.levels {
		for _, f := range files {
			if f.refs--; f.refs == 0 && f.obsolete {
				dead = append(dead, f)
			}
		}
	}
	return dead
}

// installVersion makes nv — a clone of the current version, edited
// — the current one. nv takes a reference on each of its files and the
// DB's pin; the version it replaces loses that pin, and with no reader on
// it goes away at once. The files this leaves unreferenced (the caller
// has marked the ones it removed obsolete) are returned: the caller
// deletes them once the manifest that no longer names them is durable.
func (db *DB) installVersion(nv *version) (dead []*FileMeta) {
	for _, files := range nv.levels {
		for _, f := range files {
			f.refs++
		}
	}
	nv.pins = 1
	old := db.vers
	db.vers = nv
	return db.releaseVersion(old)
}

// Flush forces the active memtable to L0 and parks r until the flush
// queue drains. It returns the sticky background error, if any: a nil
// return is the durability barrier the crash oracle relies on — every
// record written before this Flush is on the device. The wait escapes
// on a background error (the flush worker parks after one, so the
// queue would otherwise never drain).
func (db *DB) Flush(r *vclock.Runner) error {
	if db.mem.Count() > 0 {
		db.rotateMemtable()
	}
	db.bgCond.WaitUntil(r, flushDrained, db)
	return db.bgErr
}

func flushDrained(a any) bool {
	db := a.(*DB)
	return db.closed || db.bgErr != nil || len(db.imm) == 0
}

// WaitIdle parks r until no flush or compaction work remains, or until
// a background error makes further progress impossible.
func (db *DB) WaitIdle(r *vclock.Runner) {
	db.bgCond.WaitUntil(r, backgroundIdle, db)
}

func backgroundIdle(a any) bool {
	db := a.(*DB)
	return db.closed || db.bgErr != nil ||
		len(db.imm) == 0 && db.activeCompactions == 0 && !db.flushing && db.findCompaction() == nil
}

// SetCompactionThreads adjusts the number of active compaction workers at
// runtime (ADOC's main knob). n is clamped to [1, MaxCompactionThreads].
func (db *DB) SetCompactionThreads(n int) {
	if n < 1 {
		n = 1
	}
	if n > db.opt.MaxCompactionThreads {
		n = db.opt.MaxCompactionThreads
	}
	db.compactionThreads = n
	db.bgCond.Broadcast()
}

// CompactionThreads returns the current worker allowance.
func (db *DB) CompactionThreads() int {
	return db.compactionThreads
}

// SetMemtableSize adjusts the rotation threshold at runtime (ADOC's
// batch-size knob).
func (db *DB) SetMemtableSize(bytes int64) {
	if bytes > 0 {
		db.memSize = bytes
	}
}

// MemtableSize returns the current rotation threshold.
func (db *DB) MemtableSize() int64 {
	return db.memSize
}

// Options returns the options the engine runs with, derived values filled
// in.
func (db *DB) Options() Options { return db.opt }

// Stats returns a snapshot of cumulative counters, folding in the value
// log's live gauges when value separation is enabled and the live logs'
// write-back.
func (db *DB) Stats() Stats {
	s := db.stats
	s.WALBytesWritten += db.log.BytesWritten()
	for _, job := range db.imm {
		s.WALBytesWritten += job.log.BytesWritten()
	}
	if db.vlog != nil {
		vs := db.vlog.Stats()
		s.VLogBytes = vs.BytesWritten
		s.VLogSegments = int64(vs.Segments)
	}
	return s
}

// BackgroundError returns the sticky background failure, if any; once
// set (e.g. the device filled during a flush) the DB rejects writes but
// keeps serving reads, as RocksDB does.
func (db *DB) BackgroundError() error {
	return db.bgErr
}

func (db *DB) setBackgroundError(err error) {
	if db.bgErr == nil {
		db.bgErr = err
	}
	db.writeCond.Broadcast()
	db.bgCond.Broadcast()
}

// Health returns the instantaneous stall signals the KVACCEL Detector
// polls.
func (db *DB) Health() Health {
	return Health{
		L0Files:                len(db.vers.levels[0]),
		ImmutableMemtables:     len(db.imm),
		MemtableBytes:          db.mem.ApproximateSize(),
		MemtableCapacity:       db.memSize,
		PendingCompactionBytes: db.pending,
		Stalled:                db.stalledWriters > 0,
		SlowdownLikely:         db.slowdownCondition() || db.stalledWriters > 0,
		ActiveCompactions:      db.activeCompactions,
		QueuedFlushes:          len(db.imm),
	}
}

// LevelsString renders the tree shape ("L0:3(38MB) L1:4(25MB) ...") for
// diagnostics and kvbench output.
func (db *DB) LevelsString() string {
	var b strings.Builder
	for l, files := range db.vers.levels {
		if len(files) == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "L%d:%d(%dMB)", l, len(files), db.vers.levelBytes(l)>>20)
	}
	if b.Len() == 0 {
		return "(empty tree)"
	}
	return b.String()
}

// LevelFileCounts returns the number of files at each level (diagnostics
// and tests).
func (db *DB) LevelFileCounts() []int {
	out := make([]int, len(db.vers.levels))
	for l, files := range db.vers.levels {
		out[l] = len(files)
	}
	return out
}
