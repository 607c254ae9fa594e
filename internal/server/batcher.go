package server

import (
	"fmt"
	"time"

	"kvaccel"
	"kvaccel/internal/core"
	"kvaccel/internal/rpc"
	"kvaccel/internal/vclock"
)

// The read claimer's window.
const (
	// readWindow is how long a read claim that is not yet a full chunk may
	// stay open for more gets to join it.
	readWindow = 100 * time.Microsecond
	// futileLimit is how many windows in a row may end with the chunk
	// still alone before the claimer stops opening them: a lone client
	// stops paying the window after three gets.
	futileLimit = 3
)

// shardBatcher is the hot path of the serving tier: one runner per shard
// that coalesces writes from every connection into a single engine
// WriteBatch, plus a small reader pool that drains gets in multi-get
// chunks. Its point is amortizing the per-commit costs — WAL append (one
// partial-page program per commit), commit-queue entry, controller gate —
// and the per-crossing dispatch charge across clients and tenants.
//
// A write batch forms behind the engine crossing: the batcher pays the
// crossing for the first write it pops, and whatever queued meanwhile
// joins the same WriteBatch. No timer holds a batch open. A read chunk
// forms under a short window (readWindow) that a full chunk ends at once.
type shardBatcher struct {
	srv    *Server
	shard  int
	inbox  *mailbox[*pending]   // writes; bounded — full = queue-depth shed
	readq  *mailbox[*pending]   // reads; bounded the same way
	chunkq *mailbox[[]*pending] // claimed multi-get chunks awaiting a reader

	// The read claimer's window (readClaim).
	windowEv  *vclock.Event // raised to end the open window
	room      int           // gets that fill the open window's chunk; 0 with none open
	futile    int           // windows in a row whose chunk went out alone
	lastClaim vclock.Time   // when the last chunk left
	// chunkSpare holds the chunk slices the readers are done with, for the
	// claimer to fill again.
	chunkSpare [][]*pending
}

func newShardBatcher(s *Server, shard int) *shardBatcher {
	b := &shardBatcher{
		srv:      s,
		shard:    shard,
		inbox:    newMailbox[*pending](batchQueue, fmt.Sprintf("server.batch.%d", shard)),
		readq:    newMailbox[*pending](batchQueue, fmt.Sprintf("server.readq.%d", shard)),
		chunkq:   newMailbox[[]*pending](0, fmt.Sprintf("server.chunkq.%d", shard)),
		windowEv: vclock.NewEvent(fmt.Sprintf("server.readlinger.%d", shard)),
	}
	s.clk.Go(fmt.Sprintf("server.batcher.%d", shard), b.run)
	s.clk.Go(fmt.Sprintf("server.readclaim.%d", shard), b.readClaim)
	for w := 0; w < readers; w++ {
		s.clk.GoTask(fmt.Sprintf("server.reader.%d.%d", shard, w), stepRead, &reader{b: b})
	}
	return b
}

func (b *shardBatcher) close() {
	b.inbox.close()
	b.readq.close()
	b.chunkq.close()
}

// enqueueWrite hands p to the batcher; false means the inbox is full
// (queue-depth shed).
func (b *shardBatcher) enqueueWrite(p *pending) bool {
	p.enq = p.decoded
	return b.inbox.tryPush(p)
}

// enqueueRead hands p to the read claimer; false means queue-depth shed.
// The get that completes the open window's chunk ends the window.
func (b *shardBatcher) enqueueRead(p *pending) bool {
	p.enq = p.decoded
	if !b.readq.tryPush(p) {
		return false
	}
	if b.room > 0 && b.readq.items.Len() >= b.room {
		b.windowEv.Set()
	}
	return true
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

// run is the write-batching loop: pop, pay the engine crossing, drain
// what queued meanwhile, commit as one engine WriteBatch, complete every
// member. The member list and the engine batch are the loop's own and
// are filled again every round; the engine keeps nothing of a batch once
// WriteBatch has returned, and the requests staged into it stay valid
// until their replies are encoded.
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
		// One engine crossing for the whole batch — the amortization that
		// per-connection dispatch pays per op. The writes that queue while
		// it is paid join the batch.
		b.srv.cpu.Run(r, dispatchCPU)
		batch = drain(b.inbox, append(batch[:0], first), maxBatchOps)

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
		err := shard.WriteBatch(r, &wb)
		b.srv.stats.Batches++
		b.srv.stats.BatchedOps += int64(len(batch))
		for _, p := range batch {
			p.reply(rpc.StatusOK)
			b.srv.finish(p, r.Now(), err)
		}
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
	return make([]*pending, 0, readChunk)
}

// readClaim is the single per-shard read claimer: it forms multi-get
// chunks and hands each to the reader pool via chunkq. One claimer exists
// precisely so arrivals can pile up behind it — a pool parked directly on
// readq claims each get the instant it lands and the mean chunk size
// collapses to 1, which puts a full engine crossing back on every read.
//
// A claim that is not a full chunk holds a window of readWindow open,
// which the get that fills the chunk ends at once. An idle claimer opens
// its claim with the first get to arrive; a busy one opens the next claim
// as soon as a chunk leaves, before its first get, and goes idle when a
// window ends with nothing to hand off. After futileLimit windows in a
// row whose chunk still went out alone, no window opens until a get
// arrives within readWindow of the last claim: one a window would have
// put in the same chunk.
func (b *shardBatcher) readClaim(r *vclock.Runner) {
	var chunk []*pending
	busy := false // a chunk has just left
	for {
		if chunk == nil {
			chunk = b.newChunk()
		}
		if !busy {
			first, ok := b.readq.pop(r)
			if !ok {
				return
			}
			chunk = append(chunk, first)
		}
		chunk = drain(b.readq, chunk, readChunk)
		lingered := len(chunk) < readChunk && b.futile < futileLimit
		if lingered {
			// One event times every window: lowered here, whether the last
			// window was cut short or ran to its end.
			b.room = readChunk - len(chunk)
			b.windowEv.Reset()
			b.windowEv.WaitFor(r, readWindow)
			b.room = 0
			chunk = drain(b.readq, chunk, readChunk)
		}
		if busy = len(chunk) > 0; !busy {
			continue
		}
		claimed := r.Now()
		switch {
		case len(chunk) >= 2 || !lingered && chunk[0].enq.Sub(b.lastClaim) < readWindow:
			b.futile = 0
		case lingered:
			b.futile++
		}
		b.lastClaim = claimed
		for _, p := range chunk {
			p.claimed = claimed
		}
		b.srv.stats.ReadChunks++
		b.srv.stats.ReadOps += int64(len(chunk))
		b.chunkq.push(chunk)
		chunk = nil
	}
}

// reader is one reader task's state (stepRead): the claimed chunk in
// hand (nil with none), the next of its gets, -1 while the chunk's engine
// crossing is being paid, and the get in progress.
type reader struct {
	b     *shardBatcher
	chunk []*pending
	next  int
	get   core.Read
}

// stepRead is one reader, a task: it takes a claimed chunk, pays one
// engine crossing for the whole chunk, then resolves each get against
// the shard (core.DB.GetStep), delivering as it goes. Execution stays
// parallel across the pool even though chunk formation is serialized in
// readClaim.
func stepRead(r *vclock.Runner, arg any) (done bool) {
	w := arg.(*reader)
	b, g := w.b, &w.get
	for {
		if w.chunk == nil {
			chunk, ok, done := b.chunkq.popStep(r)
			if !done || !ok {
				return done // parked, or closed and drained
			}
			w.chunk, w.next = chunk, -1
		}
		if w.next < 0 {
			if !b.srv.cpu.RunStep(r, dispatchCPU) {
				return false
			}
			w.next = 0
		}
		for ; w.next < len(w.chunk); w.next++ {
			p := w.chunk[w.next]
			if g.Key = p.req.Key; !b.srv.db.Shard(b.shard).GetStep(r, g) {
				return false
			}
			resp := p.reply(rpc.StatusOK)
			if resp.Value, g.Value = g.Value, nil; g.Err == nil && !g.OK {
				resp.Status = rpc.StatusNotFound
			}
			b.srv.finish(p, r.Now(), g.Err)
		}
		clear(w.chunk)
		b.chunkSpare = append(b.chunkSpare, w.chunk[:0])
		w.chunk = nil
	}
}
