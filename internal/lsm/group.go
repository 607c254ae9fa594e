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
	db      *DB // the DB it commits to, for its waits' predicates
	ops     []batchOp
	bytes   int
	noStall bool
	// userBytes is the pre-separation key+value byte count this writer
	// represents (write-amp's denominator); internal marks vlog GC
	// rewrites, which count as GC work, not user writes.
	userBytes int64
	internal  bool

	// Leader-assigned outcome, valid once done is true.
	seq  uint64          // first sequence number of this writer's records
	mt   *memtable.Table // memtable generation the group committed into
	err  error
	done bool
	// ticket is the WAL-lane ticket of the group this writer leads.
	ticket uint64
	// logged is a view of this writer's records in the group's WAL
	// payload, which its memtable entries alias (applyOps); logStart is
	// where they begin in the payload, noted by appendGroupPayload.
	logged   []byte
	logStart int

	single [1]batchOp // backing store for the 1-op (Put/Delete) case
	// group is the backing store for the members this writer claims when
	// it leads; it is what a recycled writer brings back with it.
	group []*groupWriter
}

// newWriter returns a writer from db's free list, or a new one, with
// every field zero but the reusable group slice. A writer is taken by
// whoever stages a commit and handed back by commit itself, after the
// group protocol is done with it: by then its leader has filled in the
// outcome and holds no reference it will follow again.
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
	*w = groupWriter{group: w.group[:0]}
	db.freeWriters = append(db.freeWriters, w)
}

// writerRing is the group queue: a FIFO of writers over a ring buffer
// that grows by doubling and is allocated by the first push, so at a
// steady depth joining and claiming allocate nothing. Vacated slots are
// cleared.
type writerRing struct {
	buf  []*groupWriter // len is zero or a power of two
	head int
	n    int
}

func (q *writerRing) len() int { return q.n }

// at returns the i-th oldest writer, 0 <= i < len.
func (q *writerRing) at(i int) *groupWriter { return q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *writerRing) set(i int, w *groupWriter) { q.buf[(q.head+i)&(len(q.buf)-1)] = w }

func (q *writerRing) push(w *groupWriter) {
	if q.n == len(q.buf) {
		grown := make([]*groupWriter, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	q.n++
	q.set(q.n-1, w)
}

// pop removes the oldest writer; the ring must not be empty.
func (q *writerRing) pop() *groupWriter {
	w := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return w
}

// removeAt drops the i-th oldest writer, preserving the order of the rest.
func (q *writerRing) removeAt(i int) {
	for ; i < q.n-1; i++ {
		q.set(i, q.at(i+1))
	}
	q.set(q.n-1, nil)
	q.n--
}

// commitThroughGroup is the single join point of the write pipeline:
// commit (db.go) is its only caller, so every Put, Delete, Write (batch)
// and GC rewrite enters here. The first writer to find the queue head
// free becomes the group leader; it runs the write controller once,
// claims a contiguous sequence range for every queued writer (bounded by
// MaxWriteGroupBytes), issues one WAL append for the whole group, and
// wakes the members. The next group forms behind it while the leader is
// in the WAL, so groups pipeline back-to-back. Each member — leader included — then applies
// its own records to the memtable concurrently and returns only after
// they are visible (read-your-writes).
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
	db.groupQueue.push(w)
	db.groupBytes += int64(w.bytes)
	// A queue that already holds a full group is exactly what an open
	// linger window waits for — cut it short.
	if db.groupFull() {
		db.linger.CutShort()
	}

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

	// Leader: linger first (if the adaptive policy says a short wait will
	// grow the group), then one write-controller pass admits everyone who
	// joined — the gathered group pays a single admission check.
	db.committing = true
	lingered := false
	if d := db.lingerDuration(); d > 0 {
		lingered = true
		db.lingerFor(r, d)
	}
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

	// Bounded pipeline depth: if walPipelineDepth appends are already in
	// flight, hold the commit slot until the lane drains one. This is the
	// backpressure that makes groups form at all under pipelining — while
	// the leader waits here, writers accumulate behind it and are claimed
	// together below — and it bounds how far acknowledged-but-unappended
	// work can run ahead of the log.
	if !db.opt.DisablePipelinedWAL {
		db.walCond.WaitUntil(r, walLaneOpen, db)
	}

	group, totalRecs, totalBytes := db.claimGroup(w)
	db.linger.Note(len(group), lingered)
	firstSeq := db.seq + 1
	seq := firstSeq
	for _, m := range group {
		m.seq = seq
		m.mt = db.mem
		seq += uint64(len(m.ops))
	}
	db.seq = seq - 1
	lastSeq := db.seq
	lg := db.log
	failInject := db.failNextAppend
	db.failNextAppend = nil
	// Register every member's pending memtable insert at claim time, not
	// after the append: with pipelining, the next leader can rotate this
	// memtable while our append is still in flight, and the refcount is
	// what keeps the flush worker from capturing the table before the
	// group's records — by then durable in the WAL — have landed in it.
	db.beginApply(group[0].mt, len(group))
	w.ticket = db.walTail
	db.walTail++
	pipelined := !db.opt.DisablePipelinedWAL
	if pipelined {
		if w.ticket != db.walHead || db.applyTotal > len(group) {
			// A previous group's append or memtable apply is still in
			// flight: this commit genuinely overlaps it.
			db.stats.PipelinedAppends++
		}
		// Hand leadership over before the append: the next group claims
		// and encodes behind our WAL ticket instead of behind our I/O.
		db.committing = false
	}
	if pipelined {
		db.groupCond.Broadcast()
	}

	gsp := db.opt.Trace.Begin(r, trace.PhaseWriteGroup, "write-group")
	if hook := db.opt.TestHook; hook != nil {
		hook("pre-append") // between leadership handoff and the append
	}
	// The WAL lane: appends must hit the log in ticket (= sequence)
	// order, or replay would reorder groups across a crash.
	db.walCond.WaitUntil(r, walTurn, w)
	wsp := db.opt.Trace.Begin(r, trace.PhaseWALAppend, "wal-append")
	// The payload is encoded where it will lie, in the log buffer, in
	// this group's turn on the lane.
	var payload []byte
	werr := failInject
	if werr == nil {
		payload, werr = lg.Append(r, totalBytes+16, func(dst []byte) []byte {
			return appendGroupPayload(dst, group, totalRecs)
		})
	}
	wsp.EndArg(r, int64(len(payload)))

	// Advance the lane whether the append succeeded or not: the next
	// ticket holder orders behind the attempt, not the outcome.
	db.walHead++
	db.walCond.Broadcast()
	if werr != nil && !db.closed {
		// No record carrying the claimed range reached the log: release
		// the range so recovery never sees a sequence gap — unless a
		// pipelined successor already claimed past it, in which case the
		// gap stands (recovery renumbers replayed records densely).
		if db.seq == lastSeq {
			db.seq -= uint64(totalRecs)
		}
		db.stats.WALErrors++
		for _, m := range group {
			m.done, m.err = true, werr
		}
		// The group will never apply; hand its insert registrations back
		// so a pending flush of this memtable can proceed.
		db.releaseApply(group[0].mt, len(group))
		if !pipelined {
			db.committing = false
		}
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
		if m.internal {
			db.stats.VLogGCRewrites += int64(len(m.ops))
			db.stats.VLogGCBytes += m.userBytes
		} else {
			for _, op := range m.ops {
				if op.kind == memtable.KindDelete {
					db.stats.Deletes++
				} else {
					db.stats.Puts++
				}
			}
			db.stats.UserBytes += m.userBytes
		}
		m.done = true
	}
	if !pipelined {
		db.committing = false
	}
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
	return w.done || q.len() > 0 && q.at(0) == w && !db.committing || db.closed && db.groupQueueIndex(w) >= 0
}

// walLaneOpen: fewer than walPipelineDepth appends are in flight.
func walLaneOpen(a any) bool {
	db := a.(*DB)
	return db.closed || db.walTail-db.walHead < walPipelineDepth
}

// walTurn: the leader w's ticket is at the head of the WAL lane.
func walTurn(a any) bool {
	w := a.(*groupWriter)
	return w.db.walHead == w.ticket
}

// walPipelineDepth bounds outstanding group WAL appends (tickets taken
// but not yet retired): depth 2 lets one group encode and queue behind
// the lane while another's append is on the device, which is all the
// overlap the pipeline needs — deeper lanes only let singleton groups
// leapfrog each other instead of merging.
const walPipelineDepth = 2

// The group-commit constants of the adaptive linger window (package
// linger).
const (
	// lingerGroupTarget: once the recent-group EWMA reaches this many
	// members per commit, arrivals alone sustain grouping and a fresh
	// leader skips the window.
	lingerGroupTarget = 4.0
	// lingerWakeMembers: a queue this deep is already a full group — an
	// open window is cut short and a fresh leader does not wait.
	lingerWakeMembers = 8
)

// groupFull reports whether the queue already holds a full group.
func (db *DB) groupFull() bool {
	return db.groupBytes >= db.opt.MaxWriteGroupBytes || db.groupQueue.len() >= lingerWakeMembers
}

// lingerDuration decides whether a fresh leader should hold the
// commit open so followers can join, and for how long. Called after the
// leader set committing.
func (db *DB) lingerDuration() time.Duration {
	d := db.linger.Len(db.groupFull())
	if d > 0 && (db.stalledWriters > 0 || db.slowdownCondition()) {
		return 0 // never delay the admission pass when a stall is brewing
	}
	return d
}

// lingerFor parks the leader for up to d on the virtual clock so
// followers can join its group; joiners cut the window short once the
// queue holds a full group, and Close wakes it immediately.
func (db *DB) lingerFor(r *vclock.Runner, d time.Duration) {
	db.stats.GroupLingerWaits++
	if hook := db.opt.TestHook; hook != nil {
		hook("in-linger") // inside an open window, before the timed wait
	}
	lsp := db.opt.Trace.Begin(r, trace.PhaseWriteGroup, "group-linger")
	start := r.Now()
	db.linger.Wait(r, d)
	lsp.End(r)
	db.stats.GroupLingerMicros += int64(r.Now().Sub(start) / time.Microsecond)
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
	for db.groupQueue.len() > 0 {
		m := db.groupQueue.at(0)
		if len(group) > 0 && int64(totalBytes+m.bytes) > limit {
			break
		}
		group = append(group, db.groupQueue.pop())
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
	for i := q.len() - 1; i >= 1; i-- {
		if m := q.at(i); m.noStall {
			m.done, m.err = true, ErrWouldStall
			db.groupBytes -= int64(m.bytes)
			db.stats.WouldStalls++
			q.removeAt(i)
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
	db.groupQueue.removeAt(i)
	db.groupBytes -= int64(w.bytes)
	return true
}

// groupQueueIndex returns w's place in the group queue, or -1 if it is not
// queued.
func (db *DB) groupQueueIndex(w *groupWriter) int {
	for i := 0; i < db.groupQueue.len(); i++ {
		if db.groupQueue.at(i) == w {
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
