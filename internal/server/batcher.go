package server

import (
	"fmt"
	"time"

	"kvaccel"
	"kvaccel/internal/linger"
	"kvaccel/internal/rpc"
	"kvaccel/internal/vclock"
)

// The batcher's constants of the adaptive linger window (package linger),
// which write batches and multi-get chunks each keep one of.
const (
	// batchLingerTarget: once the recent-batch EWMA reaches this many
	// ops, batches are forming from queue depth alone and the extra
	// linger latency buys nothing.
	batchLingerTarget = 16.0
	// batchWakeOps: a queue this deep is already a full batch — a
	// producer reaching it cuts an open window short.
	batchWakeOps = 32
)

// shardBatcher is the hot path of the serving tier: one runner per shard
// that coalesces writes from every connection into a single engine
// WriteBatch, plus a small reader pool that drains gets in multi-get
// chunks. Both claim under an adaptive linger window (package linger);
// its point here is amortizing the
// per-commit costs — WAL append (one partial-page program per commit),
// commit-queue entry, controller gate — across clients and tenants.
type shardBatcher struct {
	srv    *Server
	shard  int
	inbox  *mailbox[*pending]   // writes; bounded — full = queue-depth shed
	readq  *mailbox[*pending]   // reads; bounded the same way
	chunkq *mailbox[[]*pending] // claimed multi-get chunks awaiting a reader

	// window is the write batches' linger window, readWindow the
	// multi-get chunks'. Reads coalesce via a single claimer runner
	// (readClaim) for the same reason writes do: a pool of workers parked
	// on pop claims arrivals one at a time and no chunk ever forms, so
	// every get pays a full engine crossing.
	window     *linger.Window
	readWindow *linger.Window
	// chunkSpare holds the chunk slices the readers are done with, for the
	// claimer to fill again.
	chunkSpare [][]*pending
}

func newShardBatcher(s *Server, shard int) *shardBatcher {
	b := &shardBatcher{
		srv:    s,
		shard:  shard,
		inbox:  newMailbox[*pending](batchQueue, fmt.Sprintf("server.batch.%d", shard)),
		readq:  newMailbox[*pending](batchQueue, fmt.Sprintf("server.readq.%d", shard)),
		chunkq: newMailbox[[]*pending](0, fmt.Sprintf("server.chunkq.%d", shard)),

		window:     linger.New(fmt.Sprintf("server.linger.%d", shard), lingerMicros*time.Microsecond, batchLingerTarget),
		readWindow: linger.New(fmt.Sprintf("server.readlinger.%d", shard), lingerMicros*time.Microsecond, batchLingerTarget),
	}
	s.clk.Go(fmt.Sprintf("server.batcher.%d", shard), b.run)
	s.clk.Go(fmt.Sprintf("server.readclaim.%d", shard), b.readClaim)
	for w := 0; w < readers; w++ {
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
		b.window.CutShort()
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
		b.readWindow.CutShort()
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

// claim fills dst, which holds the request just popped, from q up to max:
// with what is queued, then, if w finds the wait worth it, with what
// arrives before its window ends or is cut short.
func claim(r *vclock.Runner, w *linger.Window, q *mailbox[*pending], dst []*pending, max int) []*pending {
	dst = drain(q, dst, max)
	d := w.Len(len(dst) >= max || len(dst) >= batchWakeOps)
	if d > 0 {
		w.Wait(r, d)
		dst = drain(q, dst, max)
	}
	w.Note(len(dst), d > 0)
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
		batch = claim(r, b.window, b.inbox, append(batch[:0], first), maxBatchOps)

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
		b.srv.cpu.Run(r, dispatchCPU)
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
	return make([]*pending, 0, readChunk)
}

// readClaim is the single per-shard read claimer: it forms multi-get
// chunks with the adaptive linger and hands each to the reader pool via
// chunkq. One claimer exists precisely so arrivals can pile up behind it
// — a pool parked directly on readq claims each get the instant it
// lands and the mean chunk size collapses to 1, which puts a full
// engine crossing back on every read.
func (b *shardBatcher) readClaim(r *vclock.Runner) {
	for {
		first, ok := b.readq.pop(r)
		if !ok {
			return
		}
		chunk := claim(r, b.readWindow, b.readq, append(b.newChunk(), first), readChunk)
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
		b.srv.cpu.Run(r, dispatchCPU)
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
