package lsm

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"kvaccel/internal/encoding"
	"kvaccel/internal/memtable"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
	"kvaccel/internal/vlog"
	"kvaccel/internal/wal"
)

// vlogGateUnits sizes the writer/GC exclusion semaphore: a writer holds
// one unit across its commit, the GC holds all of them around one
// check-and-rewrite batch, so "GC holds the gate" means "no committed
// write is invisible yet" — the invariant that makes the liveness
// re-check under the gate exact. Mirrors core's rollback gate.
const vlogGateUnits = 1 << 20

// vlogGCBatch is how many live records GC rewrites per exclusive gate
// hold; small enough that foreground writers never queue behind the GC
// for long.
const vlogGCBatch = 32

func (db *DB) vlogOptions() vlog.Options {
	return vlog.Options{
		SegmentSize: db.opt.VLogSegmentSize,
		ChunkSize:   db.opt.WALChunkSize,
		QueueDepth:  db.opt.WALQueueDepth,
		CPU:         db.opt.CPU,
		AppendCPU:   db.opt.Cost.WALAppendCPU,
	}
}

// separates reports whether w's op should have its value moved to the
// value log: a Put at or above ValueThreshold, and every GC rewrite (the
// value lived in the log before, whatever the threshold is now).
func (db *DB) separates(w *groupWriter, op batchOp) bool {
	return w.internal || (db.vlog != nil && db.opt.ValueThreshold > 0 &&
		op.kind == memtable.KindPut && len(op.value) >= db.opt.ValueThreshold)
}

// separateOps sets w.bytes and swaps each qualifying op of w for a
// pointer to its value-log copy. A Batch's op slice belongs to the caller
// — KVACCEL's failover path replays the same Batch against the Dev-LSM,
// which needs the original values — so it is copied before the first
// swap; a point write's single-op store is the writer's own.
func (db *DB) separateOps(r *vclock.Runner, w *groupWriter) error {
	w.bytes = 0
	moved := 0
	for i := range w.ops {
		op := &w.ops[i]
		if db.separates(w, *op) {
			if moved == 0 {
				if err := db.preSeparateStallCheck(w.noStall); err != nil {
					return err
				}
				if op != &w.single[0] {
					w.ops = append([]batchOp(nil), w.ops...)
					op = &w.ops[i]
				}
			}
			ptr, err := db.appendVLog(r, op.key, op.value)
			if err != nil {
				db.discardSeparated(w.ops[:i])
				return err
			}
			enc := encoding.AppendValuePointer(make([]byte, 0, encoding.ValuePointerSize), ptr)
			op.kind, op.value = memtable.KindValuePtr, enc
			moved++
		}
		w.bytes += len(op.key) + len(op.value) + 16
	}
	return nil
}

// discardSeparated marks the value-log copy behind every pointer op as
// garbage for GC to reclaim: the commit that would have made it reachable
// failed. Callers stage only Puts and Deletes, so every pointer in ops is
// one separateOps appended.
func (db *DB) discardSeparated(ops []batchOp) {
	for _, op := range ops {
		if op.kind != memtable.KindValuePtr {
			continue
		}
		if ptr, err := encoding.DecodeValuePointer(op.value); err == nil {
			db.vlog.MarkDiscard(ptr.Seg, int64(ptr.Len))
		}
	}
}

// preSeparateStallCheck fails a NoStallWait write before it pays the
// value-log append: the group queue would reject it anyway, and the
// appended value would be instant garbage.
func (db *DB) preSeparateStallCheck(noStall bool) error {
	if !noStall {
		return nil
	}
	if db.stalledWriters > 0 {
		db.stats.WouldStalls++
		return ErrWouldStall
	}
	return nil
}

// appendVLog frames one separated value into the value log.
func (db *DB) appendVLog(r *vclock.Runner, key, value []byte) (encoding.ValuePointer, error) {
	sp := db.opt.Trace.Begin(r, trace.PhaseVLogAppend, "vlog-append")
	ptr, err := db.vlog.Append(r, key, value)
	sp.EndArg(r, int64(len(value)))
	return ptr, err
}

// derefPointer resolves the value bytes behind key's KindValuePtr entry;
// the value log checks the record it finds there is key's own.
func (db *DB) derefPointer(r *vclock.Runner, key, pv []byte) ([]byte, error) {
	ptr, err := encoding.DecodeValuePointer(pv)
	if err != nil {
		return nil, err
	}
	if db.vlog == nil {
		return nil, fmt.Errorf("lsm: value pointer with no value log")
	}
	db.stats.VLogDerefs++
	sp := db.opt.Trace.Begin(r, trace.PhaseVLogRead, "vlog-read")
	v, err := db.vlog.ReadValue(r, ptr, key)
	sp.EndArg(r, int64(len(v)))
	return v, err
}

// VLogStats exposes the value log's counters (zero when disabled).
func (db *DB) VLogStats() vlog.Stats {
	if db.vlog == nil {
		return vlog.Stats{}
	}
	return db.vlog.Stats()
}

// vlogGCWorker is the background garbage collector: whenever a sealed
// segment's compaction-reported discard ratio crosses
// VLogGCDiscardRatio, it rewrites the segment's live values through the
// normal write path and punches the segment via TRIM.
func (db *DB) vlogGCWorker(r *vclock.Runner) {
	for {
		for !db.closed && db.bgErr == nil && !db.vlogGCReady() {
			db.bgCond.Wait(r)
		}
		if db.bgErr != nil && !db.closed {
			// Read-only DB: no more GC, park until shutdown.
			for !db.closed {
				db.bgCond.Wait(r)
			}
		}
		if db.closed {
			return
		}

		db.drainPunchQueue(r)
		if seg, ok := db.vlog.PickGC(db.opt.VLogGCDiscardRatio); ok {
			if err := db.gcSegment(r, seg); err != nil && !db.closed {
				// Transient failure (e.g. persistent stall pressure):
				// back off instead of spinning on the same segment.
				r.Sleep(10 * time.Millisecond)
			}
		}
	}
}

// vlogGCReady reports whether the GC worker has work: a punchable
// queue or a segment over the discard threshold.
func (db *DB) vlogGCReady() bool {
	if len(db.punchQueue) > 0 && db.openIters == 0 {
		return true
	}
	_, ok := db.vlog.PickGC(db.opt.VLogGCDiscardRatio)
	return ok
}

// CollectVLogGarbage runs one synchronous GC pass over the most
// garbage-laden sealed segment at or above ratio (0 accepts any sealed
// segment with any discard). It exists for tests and tooling; the
// background worker calls the same machinery. Returns whether a segment
// was collected.
func (db *DB) CollectVLogGarbage(r *vclock.Runner, ratio float64) (bool, error) {
	if db.vlog == nil {
		return false, nil
	}
	seg, ok := db.vlog.PickGC(ratio)
	if !ok {
		return false, nil
	}
	if err := db.gcSegment(r, seg); err != nil {
		return false, err
	}
	return true, nil
}

// gcSegment collects one segment: sequential segment read, liveness
// pre-filter, gated check-and-rewrite batches, sync, punch.
func (db *DB) gcSegment(r *vclock.Runner, seg uint32) error {
	sp := db.opt.Trace.Begin(r, trace.PhaseVLogGC, "vlog-gc")
	defer sp.End(r)

	entries, err := db.vlog.SegmentEntries(r, seg)
	if err != nil {
		return err
	}
	// Pre-filter liveness outside the gate to keep the exclusive windows
	// small; each batch re-checks under the gate before rewriting.
	live := entries[:0]
	for _, e := range entries {
		alive, lerr := db.pointerLive(r, e.Key, e.Ptr)
		if lerr != nil {
			return lerr
		}
		if alive {
			live = append(live, e)
		}
	}
	for start := 0; start < len(live); start += vlogGCBatch {
		end := start + vlogGCBatch
		if end > len(live) {
			end = len(live)
		}
		// Rewrite each batch in user-key order, not segment order: the
		// re-appended values land adjacent in the head segment for keys
		// adjacent in the tree, so a later range scan dereferencing the
		// rewritten pointers reads the segment sequentially instead of
		// replaying the dead segment's historical write order.
		sortGCBatch(live[start:end])
		for {
			err := db.gcRewriteBatch(r, live[start:end], db.testHookGC)
			if err == ErrWouldStall {
				// The engine is stalling; the foreground failover path has
				// priority. Release pressure and retry the batch.
				r.Sleep(5 * time.Millisecond)
				continue
			}
			if err != nil {
				return err
			}
			break
		}
	}
	// Every live value now has a newer copy; make the rewrites durable
	// (vlog segment and the WAL records carrying the new pointers)
	// before the old copies disappear, or a crash after the punch could
	// lose the only recoverable copy.
	if err := db.syncForVLogGC(r); err != nil {
		return err
	}
	if db.testHookGC != nil {
		db.testHookGC("before-punch")
	}
	db.finishSegment(r, seg)
	if db.testHookGC != nil {
		db.testHookGC("after-punch")
	}
	return nil
}

// sortGCBatch orders one rewrite batch by user key (ties — impossible
// for live pointers, which are unique per key — fall back to segment
// offset for determinism).
func sortGCBatch(batch []vlog.Entry) {
	sort.SliceStable(batch, func(i, j int) bool {
		return bytes.Compare(batch[i].Key, batch[j].Key) < 0
	})
}

// gcRewriteBatch re-checks and rewrites one batch of candidate records
// under the exclusive writer gate. Holding every gate unit guarantees no
// foreground commit is in flight, so a record that checks live here
// cannot be superseded before its rewrite commits — the stale-value
// resurrection race this gate exists to prevent.
func (db *DB) gcRewriteBatch(r *vclock.Runner, batch []vlog.Entry, hook func(string)) error {
	db.gcGate.Acquire(r, vlogGateUnits)
	defer db.gcGate.Release(vlogGateUnits)
	for _, e := range batch {
		alive, err := db.pointerLive(r, e.Key, e.Ptr)
		if err != nil {
			return err
		}
		if !alive {
			continue
		}
		if err := db.rewriteForGC(r, e.Key, e.Value); err != nil {
			return err
		}
		if hook != nil {
			hook("after-rewrite")
		}
	}
	return nil
}

// pointerLive reports whether ptr is still the newest version of key.
func (db *DB) pointerLive(r *vclock.Runner, key []byte, ptr encoding.ValuePointer) (bool, error) {
	db.opt.CPU.Run(r, db.opt.Cost.ReadCPU)
	v, kind, found, err := db.getRaw(r, key)
	if err != nil {
		return false, err
	}
	if !found || kind != memtable.KindValuePtr {
		return false, nil
	}
	cur, derr := encoding.DecodeValuePointer(v)
	return derr == nil && cur == ptr, nil
}

// rewriteForGC commits one live value again through the write path:
// flagged internal, so it is re-appended to the head segment whatever its
// size, skips the gate (the GC holds it), counts as GC work rather than a
// user write, and never waits out a stall.
func (db *DB) rewriteForGC(r *vclock.Runner, key, value []byte) error {
	if db.testHookGCRewrite != nil {
		db.testHookGCRewrite(key)
	}
	w := db.newPointWriter(WriteOptions{NoStallWait: true}, memtable.KindPut, key, value)
	w.internal, w.userBytes = true, int64(len(value))
	return db.commit(r, w)
}

// syncForVLogGC makes every rewrite durable: the value log first, then
// every live WAL (active and queued-for-flush) carrying pointer records.
func (db *DB) syncForVLogGC(r *vclock.Runner) error {
	if err := db.vlog.Sync(r); err != nil {
		return err
	}
	logs := make([]*wal.Log, 0, len(db.imm)+1)
	for _, j := range db.imm {
		logs = append(logs, j.log)
	}
	logs = append(logs, db.log)
	for _, lg := range logs {
		if err := lg.Sync(r); err != nil {
			return err
		}
	}
	return nil
}

// finishSegment punches a fully collected segment, or queues the punch
// while live iterators could still dereference into it.
// New readers only ever observe the rewrites, which are newer versions.
func (db *DB) finishSegment(r *vclock.Runner, seg uint32) {
	db.vlog.MarkDead(seg)
	if db.openIters > 0 {
		db.punchQueue = append(db.punchQueue, seg)
		return
	}
	db.vlog.Punch(r, seg)
}

// drainPunchQueue punches deferred segments once no reader can hold a
// pointer into them.
func (db *DB) drainPunchQueue(r *vclock.Runner) {
	if len(db.punchQueue) == 0 || db.openIters > 0 {
		return
	}
	q := db.punchQueue
	db.punchQueue = nil
	for _, seg := range q {
		db.vlog.Punch(r, seg)
	}
}
