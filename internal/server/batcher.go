package server

import (
	"fmt"
	"time"

	"kvaccel"
	"kvaccel/internal/rpc"
	"kvaccel/internal/vclock"
)

// Tunables of the batcher's adaptive linger policy — the same shape as
// the engine's group-commit policy (lsm/group.go): an EWMA of recent
// batch sizes decides whether holding the window open is worth the
// latency, joiners past a depth threshold cut the window short, and a
// futile counter turns lingering off when it keeps producing singleton
// batches.
const (
	// batchLingerTarget: once the recent-batch EWMA reaches this many
	// ops, batches are forming from queue depth alone and the extra
	// linger latency buys nothing.
	batchLingerTarget = 16.0
	// batchWakeOps: an inbox this deep is already a full batch — a
	// producer reaching it wakes the lingering batcher immediately.
	batchWakeOps = 32
	// batchFutileLimit: after this many consecutive lingered commits
	// that still went out as singletons, stop lingering until batches
	// form on their own again.
	batchFutileLimit = 3
)

// shardBatcher is the hot path of the serving tier: one runner per shard
// that coalesces writes from every connection into a single engine
// WriteBatch, plus a small reader pool that drains gets in multi-get
// chunks. The linger window reuses the engine group-commit policy's
// adaptive EWMA (see constants above); its point here is amortizing the
// per-commit costs — WAL append (one partial-page program per commit),
// commit-queue entry, controller gate — across clients and tenants.
type shardBatcher struct {
	srv    *Server
	shard  int
	inbox  *mailbox[*pending]   // writes; bounded — full = queue-depth shed
	readq  *mailbox[*pending]   // reads; bounded the same way
	chunkq *mailbox[[]*pending] // claimed multi-get chunks awaiting a reader

	recentOps float64 // EWMA of recent batch sizes
	futile    int
	window    lingerWindow

	// Read-side mirror of the adaptive linger state. Reads coalesce via a
	// single claimer runner (readClaim) for the same reason writes do: a
	// pool of workers parked on pop claims arrivals one at a time and no
	// chunk ever forms, so every get pays a full engine crossing.
	readRecent float64
	readFutile int
	readWindow lingerWindow
	// chunkSpare holds the chunk slices the readers are done with, for the
	// claimer to fill again.
	chunkSpare [][]*pending
}

// lingerWindow is the event a lingering claimer waits on and a producer
// raises to cut the wait short. An event cannot be lowered again: a
// window that was cut short used its event up, one that ran to its
// timeout leaves it as the spare for the next (the engine's group-commit
// linger keeps its spare the same way).
type lingerWindow struct {
	open  *vclock.Event // non-nil while a window is open
	spare *vclock.Event
	label string
}

func newShardBatcher(s *Server, shard int) *shardBatcher {
	b := &shardBatcher{
		srv:    s,
		shard:  shard,
		inbox:  newMailbox[*pending](s.cfg.BatchQueue, fmt.Sprintf("server.batch.%d", shard)),
		readq:  newMailbox[*pending](s.cfg.BatchQueue, fmt.Sprintf("server.readq.%d", shard)),
		chunkq: newMailbox[[]*pending](0, fmt.Sprintf("server.chunkq.%d", shard)),

		window:     lingerWindow{label: fmt.Sprintf("server.linger.%d", shard)},
		readWindow: lingerWindow{label: fmt.Sprintf("server.readlinger.%d", shard)},
	}
	s.clk.Go(fmt.Sprintf("server.batcher.%d", shard), b.run)
	s.clk.Go(fmt.Sprintf("server.readclaim.%d", shard), b.readClaim)
	for w := 0; w < s.cfg.Readers; w++ {
		s.clk.Go(fmt.Sprintf("server.reader.%d.%d", shard, w), b.readLoop)
	}
	return b
}

func (b *shardBatcher) close() {
	b.inbox.close()
	b.readq.close()
	b.chunkq.close()
}

// enqueueWrite hands p to the batcher; false means the inbox is full
// (queue-depth shed). A producer that fills the inbox past the wake
// threshold cuts an open linger window short.
func (b *shardBatcher) enqueueWrite(p *pending) bool {
	p.enq = p.decoded
	if !b.inbox.tryPush(p) {
		return false
	}
	if b.inbox.len() >= batchWakeOps {
		b.cutWindow(&b.window)
	}
	return true
}

// enqueueRead hands p to the read claimer; false means queue-depth shed.
// Like writes, a producer that fills the queue past the wake threshold
// cuts an open read-linger window short.
func (b *shardBatcher) enqueueRead(p *pending) bool {
	p.enq = p.decoded
	if !b.readq.tryPush(p) {
		return false
	}
	if b.readq.len() >= batchWakeOps {
		b.cutWindow(&b.readWindow)
	}
	return true
}

// cutWindow cuts w's linger window short, if one is open: once
// closeWindow has run, nobody can raise its event.
func (b *shardBatcher) cutWindow(w *lingerWindow) {
	if w.open != nil {
		w.open.Set()
	}
}

// openWindow opens w's linger window and returns the event to wait on.
func (b *shardBatcher) openWindow(w *lingerWindow) *vclock.Event {
	if w.open = w.spare; w.open == nil {
		w.open = vclock.NewEvent(w.label)
	}
	w.spare = nil
	return w.open
}

// closeWindow closes w's window, keeping its event for the next one
// unless a producer raised it.
func (b *shardBatcher) closeWindow(w *lingerWindow) {
	if !w.open.IsSet() {
		w.spare = w.open
	}
	w.open = nil
}

// lingerDuration mirrors lsm's lingerDuration: no window when the
// policy is off or futile, none when a full batch is already queued,
// none when recent batches say depth alone is doing the job.
func (b *shardBatcher) lingerDuration(queued int) time.Duration {
	us := b.srv.cfg.LingerMicros
	if us <= 0 || b.futile >= batchFutileLimit {
		return 0
	}
	if queued >= b.srv.cfg.MaxBatchOps || queued >= batchWakeOps {
		return 0
	}
	if b.recentOps >= batchLingerTarget {
		return 0
	}
	return time.Duration(us) * time.Microsecond
}

// noteBatch feeds the adaptive policy after a commit, exactly like lsm's
// noteGroup.
func (b *shardBatcher) noteBatch(ops int, lingered bool) {
	b.recentOps = 0.75*b.recentOps + 0.25*float64(ops)
	if ops > 1 {
		b.futile = 0
	} else if lingered {
		b.futile++
	}
}

// readLingerDuration / noteChunk: the read-side twins, gated on the
// multi-get chunk cap instead of the write-batch cap.
func (b *shardBatcher) readLingerDuration(queued int) time.Duration {
	us := b.srv.cfg.LingerMicros
	if us <= 0 || b.readFutile >= batchFutileLimit {
		return 0
	}
	if queued >= b.srv.cfg.ReadChunk || queued >= batchWakeOps {
		return 0
	}
	if b.readRecent >= batchLingerTarget {
		return 0
	}
	return time.Duration(us) * time.Microsecond
}

func (b *shardBatcher) noteChunk(ops int, lingered bool) {
	b.readRecent = 0.75*b.readRecent + 0.25*float64(ops)
	if ops > 1 {
		b.readFutile = 0
	} else if lingered {
		b.readFutile++
	}
}

// drain moves queued requests from q onto dst until dst holds max.
func drain(q *mailbox[*pending], dst []*pending, max int) []*pending {
	for len(dst) < max {
		p, ok := q.tryPop()
		if !ok {
			break
		}
		dst = append(dst, p)
	}
	return dst
}

// run is the write-batching loop: claim, linger, drain, commit as one
// engine WriteBatch, complete every member. The member list and the
// engine batch are the loop's own and are filled again every round; the
// engine keeps nothing of a batch once WriteBatch has returned, and the
// requests staged into it stay valid until their replies are encoded.
func (b *shardBatcher) run(r *vclock.Runner) {
	shard := b.srv.db.Shard(b.shard)
	var (
		batch []*pending
		wb    kvaccel.Batch
	)
	for {
		first, ok := b.inbox.pop(r)
		if !ok {
			return
		}
		batch = drain(b.inbox, append(batch[:0], first), b.srv.cfg.MaxBatchOps)
		lingered := false
		if d := b.lingerDuration(len(batch)); d > 0 {
			lingered = true
			ev := b.openWindow(&b.window)
			deadline := r.Now().Add(d)
			for len(batch) < b.srv.cfg.MaxBatchOps {
				left := deadline.Sub(r.Now())
				if left <= 0 {
					break
				}
				woken := ev.WaitFor(r, left)
				batch = drain(b.inbox, batch, b.srv.cfg.MaxBatchOps)
				if woken {
					break
				}
			}
			b.closeWindow(&b.window)
		}
		b.noteBatch(len(batch), lingered)

		claimed := r.Now()
		wb.Reset()
		for _, p := range batch {
			p.claimed = claimed
			if p.req.Op == rpc.OpDelete {
				wb.Delete(p.req.Key)
			} else {
				wb.Put(p.req.Key, p.req.Value)
			}
		}
		// One engine crossing for the whole batch — the amortization that
		// per-connection dispatch pays per op.
		b.srv.cpu.Run(r, b.srv.cfg.DispatchCPU)
		err := shard.WriteBatch(r, &wb)
		b.srv.stats.Batches++
		b.srv.stats.BatchedOps += int64(len(batch))
		b.srv.completeBatch(batch, r.Now(), err)
		clear(batch) // the members are their connections' again
	}
}

// newChunk returns an empty chunk slice, one a reader has handed back
// when there is one.
func (b *shardBatcher) newChunk() []*pending {
	if n := len(b.chunkSpare); n > 0 {
		chunk := b.chunkSpare[n-1]
		b.chunkSpare = b.chunkSpare[:n-1]
		return chunk
	}
	return make([]*pending, 0, b.srv.cfg.ReadChunk)
}

// readClaim is the single per-shard read claimer: it forms multi-get
// chunks with the adaptive linger and hands each to the reader pool via
// chunkq. One claimer exists precisely so arrivals can pile up behind it
// — a pool parked directly on readq claims each get the instant it
// lands and the mean chunk size collapses to 1, which puts a full
// engine crossing back on every read.
func (b *shardBatcher) readClaim(r *vclock.Runner) {
	max := b.srv.cfg.ReadChunk
	for {
		first, ok := b.readq.pop(r)
		if !ok {
			return
		}
		chunk := drain(b.readq, append(b.newChunk(), first), max)
		lingered := false
		if d := b.readLingerDuration(len(chunk)); d > 0 {
			lingered = true
			ev := b.openWindow(&b.readWindow)
			deadline := r.Now().Add(d)
			for len(chunk) < max {
				left := deadline.Sub(r.Now())
				if left <= 0 {
					break
				}
				woken := ev.WaitFor(r, left)
				chunk = drain(b.readq, chunk, max)
				if woken {
					break
				}
			}
			b.closeWindow(&b.readWindow)
		}
		b.noteChunk(len(chunk), lingered)
		claimed := r.Now()
		for _, p := range chunk {
			p.claimed = claimed
		}
		b.srv.stats.ReadChunks++
		b.srv.stats.ReadOps += int64(len(chunk))
		b.chunkq.push(chunk)
	}
}

// readLoop is one reader worker: it takes a claimed chunk, pays one
// engine crossing for the whole chunk, then resolves each get against
// the shard, delivering as it goes. Execution stays parallel across the
// pool even though chunk formation is serialized in readClaim.
func (b *shardBatcher) readLoop(r *vclock.Runner) {
	shard := b.srv.db.Shard(b.shard)
	for {
		chunk, ok := b.chunkq.pop(r)
		if !ok {
			return
		}
		// One engine crossing per multi-get chunk.
		b.srv.cpu.Run(r, b.srv.cfg.DispatchCPU)
		for _, p := range chunk {
			resp := p.reply(rpc.StatusOK)
			value, found, err := shard.Get(r, p.req.Key)
			switch {
			case err != nil:
				b.srv.stats.EngineErrors++
				resp.Status = rpc.StatusErr
			case !found:
				resp.Status = rpc.StatusNotFound
			default:
				resp.Value = value
			}
			p.engDone = r.Now()
			b.srv.tenant(p).Answered++
			p.conn.deliver(p)
		}
		clear(chunk)
		b.chunkSpare = append(b.chunkSpare, chunk[:0])
	}
}
