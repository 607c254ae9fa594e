package lsm

import (
	"errors"
	"time"

	"kvaccel/internal/encoding"
	"kvaccel/internal/memtable"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
)

// ErrWouldStall is returned by writes carrying WriteOptions.NoStallWait
// when admission would park the writer in a hard write stall. The caller
// (KVACCEL's Controller) treats it as a failover signal: the write is
// redirected to the Dev-LSM instead of blocking behind the flush or
// compaction backlog.
var ErrWouldStall = errors.New("lsm: write would stall")

// WriteOptions carries per-write admission flags through the write path.
type WriteOptions struct {
	// NoStallWait makes the write fail with ErrWouldStall instead of
	// blocking when a hard stall (memtable, L0, or pending-bytes stop
	// condition) is in effect. Slowdown throttling still applies: it is
	// bounded, while a hard stall can hold a writer for the whole flush.
	NoStallWait bool
}

// groupWriter is one writer's membership in the group-commit protocol:
// the staged records it wants committed, and the outcome slot its group
// leader fills in.
type groupWriter struct {
	db        *DB // the DB it commits to, for its waits' predicates
	ops       []batchOp
	bytes     int
	noStall   bool
	userBytes int64 // pre-separation key+value bytes: write-amp's denominator

	// Leader-assigned outcome, valid once done is true.
	seq  uint64          // first sequence number of this writer's records
	mt   *memtable.Table // memtable generation the group committed into
	err  error
	done bool
	// logged is a view of this writer's records in the group's WAL
	// payload, which its memtable entries alias (applyOps); logStart is
	// where they begin in the payload, noted by appendGroupPayload.
	logged   []byte
	logStart int

	single [1]batchOp // backing store for the 1-op (Put/Delete) case
	ptrs   []byte     // the value pointers separateOps encoded, reused
	// group is the backing store for the members this writer claims when
	// it leads; it is what a recycled writer brings back with it.
	group []*groupWriter
}

// newWriter returns a writer from db's free list, or a new one, with
// every field zero but the reusable group and pointer slices. A writer
// is taken by whoever stages a commit and handed back by commit itself,
// after the group protocol is done with it: by then its leader has
// filled in the outcome and holds no reference it will follow again.
func (db *DB) newWriter() *groupWriter {
	n := len(db.freeWriters)
	if n == 0 {
		return new(groupWriter)
	}
	w := db.freeWriters[n-1]
	db.freeWriters = db.freeWriters[:n-1]
	return w
}

// releaseWriter puts w back on db's free list. It forgets the caller's
// key and value memory and the members it led: a free writer pins
// nothing.
func (db *DB) releaseWriter(w *groupWriter) {
	clear(w.group)
	*w = groupWriter{group: w.group[:0], ptrs: w.ptrs[:0]}
	db.freeWriters = append(db.freeWriters, w)
}

// removeAt drops the i-th oldest writer of the group queue, keeping the
// order of the rest.
func removeAt(q *vclock.Ring[*groupWriter], i int) {
	for ; i < q.Len()-1; i++ {
		*q.At(i) = *q.At(i + 1)
	}
	q.PopBack()
}

// commitThroughGroup is the single join point of the write pipeline:
// commit (db.go) is its only caller, so every Put, Delete and Write
// (batch) enters here. The first writer to find the queue head
// free becomes the group leader; it runs the write controller once,
// claims a contiguous sequence range for every queued writer (bounded by
// MaxWriteGroupBytes), issues one WAL append for the whole group, and
// wakes the members. The leader holds the commit section across its
// append, so the next group is whoever queued meanwhile (RocksDB's write
// thread). Each member — leader included — then applies its own records
// to the memtable concurrently and returns only after they are visible
// (read-your-writes).
func (db *DB) commitThroughGroup(r *vclock.Runner, w *groupWriter) error {
	if db.closed {
		return ErrClosed
	}
	if w.noStall && db.stalledWriters > 0 {
		// Writers are parked in a hard stall right now; joining the queue
		// would strand this non-blocking write behind them until the next
		// flush completes. Fail over immediately.
		db.stats.WouldStalls++
		return ErrWouldStall
	}
	w.db = db
	db.groupQueue.Push(w)
	db.groupBytes += int64(w.bytes)

	db.groupCond.WaitUntil(r, groupTurn, w)
	if w.done {
		// A leader committed (or failed) this writer's records.
		if w.err != nil {
			return w.err
		}
		db.applyOps(r, w)
		return nil
	}
	if db.closed && db.removeFromGroupQueue(w) {
		return ErrClosed
	}

	// Leader: one write-controller pass admits everyone queued — the
	// group pays a single admission check. The leader never waits for
	// followers to arrive (RocksDB's write thread does not either): the
	// group is whoever queued while the previous group held the log.
	db.committing = true
	if err := db.makeRoomForWrite(r, w.noStall); err != nil {
		// The queue behind us fails the same way on its own (each member
		// re-elects and re-checks), except ErrWouldStall, where blocking
		// members must proceed: ejectNoStall already failed the
		// non-blocking ones.
		db.removeFromGroupQueue(w)
		db.committing = false
		db.groupCond.Broadcast()
		return err
	}

	group, totalRecs, totalBytes := db.claimGroup(w)
	seq := db.seq + 1
	for _, m := range group {
		m.seq = seq
		m.mt = db.mem
		seq += uint64(len(m.ops))
	}
	db.seq = seq - 1
	lg := db.log
	failInject := db.failNextAppend
	db.failNextAppend = nil
	// Register every member's pending memtable insert at claim time:
	// members apply after leadership passes, so the next leader — or a
	// Flush — can rotate this memtable before they land, and the refcount
	// is what keeps the flush worker from capturing the table before the
	// group's records, by then durable in the WAL, are in it.
	db.beginApply(group[0].mt, len(group))

	gsp := db.opt.Trace.Begin(r, trace.PhaseWriteGroup, "write-group")
	if hook := db.opt.TestHook; hook != nil {
		hook("pre-append") // sequence range claimed, nothing logged yet
	}
	wsp := db.opt.Trace.Begin(r, trace.PhaseWALAppend, "wal-append")
	// The payload is encoded where it will lie, in the log buffer.
	var payload []byte
	werr := failInject
	if werr == nil {
		payload, werr = lg.Append(r, totalBytes+16, func(dst []byte) []byte {
			return appendGroupPayload(dst, group, totalRecs)
		})
	}
	wsp.EndArg(r, int64(len(payload)))

	if werr != nil {
		// No record carrying the claimed range reached the log, and no
		// later group can have claimed past it: release the range so
		// recovery never sees a sequence gap. A Close during the append
		// fails the group like any other error — its records are not
		// logged, so no member may be acknowledged.
		db.seq -= uint64(totalRecs)
		db.stats.WALErrors++
		for _, m := range group {
			m.done, m.err = true, werr
		}
		// The group will never apply; hand its insert registrations back
		// so a pending flush of this memtable can proceed.
		db.releaseApply(group[0].mt, len(group))
		db.committing = false
		db.groupCond.Broadcast()
		gsp.EndArg(r, 0)
		return werr
	}
	db.stats.GroupCommits++
	db.stats.GroupedRecords += int64(totalRecs)
	db.stats.WALAppends++
	for i, m := range group {
		// Each member's memtable entries will be views of its own records
		// in the payload, which the log never writes again.
		end := len(payload)
		if i+1 < len(group) {
			end = group[i+1].logStart
		}
		m.logged = payload[m.logStart:end:end]
		for _, op := range m.ops {
			if op.kind == memtable.KindDelete {
				db.stats.Deletes++
			} else {
				db.stats.Puts++
			}
		}
		db.stats.UserBytes += m.userBytes
		m.done = true
	}
	db.committing = false
	db.groupCond.Broadcast()
	gsp.EndArg(r, int64(totalRecs))

	db.applyOps(r, w)
	return nil
}

// groupTurn is a queued writer's wait: a leader has filled in its
// outcome, or it heads the queue with no commit in progress (leadership),
// or the DB closed while it is still queued. A writer a leader has
// claimed — popped off the queue but not yet marked done — waits for its
// outcome even through Close.
func groupTurn(a any) bool {
	w := a.(*groupWriter)
	db := w.db
	q := &db.groupQueue
	return w.done || q.Len() > 0 && *q.At(0) == w && !db.committing || db.closed && db.groupQueueIndex(w) >= 0
}

// applyOps inserts a committed member's records into the group's
// memtable. Members apply their own records concurrently (RocksDB's
// parallel memtable writes): the leader is back in the next group's way
// for only one WAL append, not N memtable inserts. The entries are views
// of the member's records in the log, not copies: a put's bytes are held
// once in host memory until its memtable flushes.
func (db *DB) applyOps(r *vclock.Runner, w *groupWriter) {
	msp := db.opt.Trace.Begin(r, trace.PhaseMemtableInsert, "memtable-insert")
	db.opt.CPU.Run(r, db.opt.Cost.WriteCPU*time.Duration(len(w.ops)))
	seq, rest := w.seq, w.logged
	for range w.ops {
		op, tail, err := nextLoggedOp(rest)
		if err != nil {
			panic("lsm: a committed writer's logged records do not parse: " + err.Error())
		}
		w.mt.AddView(seq, op.kind, op.kv, op.klen, op.gap)
		seq, rest = seq+1, tail
	}
	msp.EndArg(r, int64(len(w.ops)))
	db.releaseApply(w.mt, 1)
}

// claimGroup pops the leader's group off the queue head into the
// leader's own group slice: as many waiting writers as fit under
// MaxWriteGroupBytes (always at least the leader itself).
func (db *DB) claimGroup(leader *groupWriter) (group []*groupWriter, totalRecs int, totalBytes int) {
	limit := db.opt.MaxWriteGroupBytes
	group = leader.group[:0]
	for db.groupQueue.Len() > 0 {
		m := *db.groupQueue.At(0)
		if len(group) > 0 && int64(totalBytes+m.bytes) > limit {
			break
		}
		group = append(group, db.groupQueue.Pop())
		totalRecs += len(m.ops)
		totalBytes += m.bytes
		db.groupBytes -= int64(m.bytes)
	}
	leader.group = group
	return group, totalRecs, totalBytes
}

// ejectNoStall fails every queued non-blocking writer behind the
// leader with ErrWouldStall. The leader calls it from the write
// controller's stall branches before parking (or failing itself): a
// NoStallWait member must never sit out a flush-length stall behind a
// blocking leader. Called with db.mu held.
func (db *DB) ejectNoStall() {
	q := &db.groupQueue
	ejected := false
	for i := q.Len() - 1; i >= 1; i-- {
		if m := *q.At(i); m.noStall {
			m.done, m.err = true, ErrWouldStall
			db.groupBytes -= int64(m.bytes)
			db.stats.WouldStalls++
			removeAt(q, i)
			ejected = true
		}
	}
	if ejected {
		db.groupCond.Broadcast()
	}
}

// removeFromGroupQueue drops a still-unclaimed writer from the
// queue, reporting whether it was found (false means a leader already
// claimed it).
func (db *DB) removeFromGroupQueue(w *groupWriter) bool {
	i := db.groupQueueIndex(w)
	if i < 0 {
		return false
	}
	removeAt(&db.groupQueue, i)
	db.groupBytes -= int64(w.bytes)
	return true
}

// groupQueueIndex returns w's place in the group queue, or -1 if it is not
// queued.
func (db *DB) groupQueueIndex(w *groupWriter) int {
	for i := 0; i < db.groupQueue.Len(); i++ {
		if *db.groupQueue.At(i) == w {
			return i
		}
	}
	return -1
}

// appendGroupPayload appends to dst one WAL record payload covering every
// record of every group member, in claim order:
//
//	marker, uvarint(count), then per op: kind, uvarint(klen), key,
//	uvarint(vlen), value.
//
// Reopen replays it with consecutive sequence numbers, all or none, so a
// group commit is crash-equivalent to one large atomic batch. This is the
// one copy a put's bytes make on their way into the log and the
// memtable. Each member's logStart is set to where its records begin,
// counted from the payload's first byte.
func appendGroupPayload(dst []byte, group []*groupWriter, totalRecs int) []byte {
	base := len(dst)
	dst = append(dst, walBatchMarker)
	dst = encoding.PutUvarint(dst, uint64(totalRecs))
	for _, m := range group {
		m.logStart = len(dst) - base
		for _, op := range m.ops {
			dst = append(dst, byte(op.kind))
			dst = encoding.PutUvarint(dst, uint64(len(op.key)))
			dst = append(dst, op.key...)
			dst = encoding.PutUvarint(dst, uint64(len(op.value)))
			dst = append(dst, op.value...)
		}
	}
	return dst
}
