package server

import (
	"kvaccel"
	"kvaccel/internal/rpc"
	"kvaccel/internal/vclock"
)

// nsBetween returns b-a in nanoseconds, clamped at zero (a frame's
// nominal arrival can postdate its decode when the handler drains a
// burst that was buffered behind it).
func nsBetween(a, b vclock.Time) uint64 {
	if b <= a {
		return 0
	}
	return uint64(b.Sub(a))
}

// connState is the server side of one accepted connection: a handler
// task that decodes request frames and dispatches them, and a reply-writer
// task that sends responses back **in per-client request order** — a
// reorder buffer heals the out-of-order completions that cross-shard,
// cross-batch execution produces, so a client always observes its own
// requests answered in the order it sent them, exactly once.
//
// The connection also owns the memory of its requests. A request is
// decoded in place, out of the frame the rpc.Conn lent, into a pending
// that comes from this connection's free list; both go back — the frame
// to the rpc.Conn, the pending to the list — only once the reply writer
// has encoded the reply. Nothing in between (the batcher's linger window,
// an engine call, the reorder buffer) can therefore outlive the bytes it
// reads.
type connState struct {
	srv  *Server
	conn *rpc.Conn
	id   int64

	nextSeq  uint64 // assigned at decode, in arrival order
	sendSeq  uint64 // next seq the reply writer may transmit
	reorder  map[uint64]*pending
	inflight int        // decoded but not yet handed to the reply mailbox
	done     bool       // handler exited
	spare    []*pending // free list: pendings whose replies have been encoded
	replies  *mailbox[*pending]

	// Handler-only state: the stream's decoder, the requests decoded from
	// the chunk in hand, the next of them to dispatch and how far its
	// dispatch has got, whether the stream tore, and the batch an inline
	// OpBatch stages into.
	dec   rpc.Decoder
	burst []*pending
	next  int
	stage dispatchStage
	torn  bool
	batch kvaccel.Batch

	out []byte // reply-writer state: the encoded reply being sent
}

func newConnState(s *Server, conn *rpc.Conn, id int64) *connState {
	return &connState{
		srv:     s,
		conn:    conn,
		id:      id,
		reorder: make(map[uint64]*pending),
		replies: newMailbox[*pending](0, "server.replies"),
	}
}

// newPending takes a pending off the free list, or makes the list one
// longer: a connection allocates as many as it ever has in flight.
func (c *connState) newPending() *pending {
	if n := len(c.spare); n > 0 {
		p := c.spare[n-1]
		c.spare = c.spare[:n-1]
		return p
	}
	p := new(pending)
	p.conn = c
	return p
}

// recycle ends p's life: its frame, if it holds one, goes back to the
// connection, and p to the free list. Only the reply writer calls it,
// after the reply is encoded — or the handler, for a frame that did not
// decode. What p pointed into (the frame, engine memory behind a Get's
// value, a scan's copies) is let go of here, so an idle pending pins
// nothing.
func (c *connState) recycle(p *pending) {
	if p.frame != nil {
		c.conn.Release(p.frame)
		p.frame = nil
	}
	p.req.Key, p.req.Value = nil, nil
	clear(p.req.Ops)
	p.resp.Value = nil
	clear(p.resp.Entries)
	c.spare = append(c.spare, p)
}

// stepHandler is the connection's handler, a task (vclock.Clock.GoTask):
// it receives request chunks, decodes each into the burst of requests it
// completes, and dispatches them one by one (Server.dispatchStep). When
// the peer closes, or a torn frame ends the stream, the connection is done.
func stepHandler(r *vclock.Runner, arg any) (done bool) {
	c := arg.(*connState)
	for {
		if c.next < len(c.burst) {
			if !c.srv.dispatchStep(r, c, c.burst[c.next]) {
				return false
			}
			c.next, c.stage = c.next+1, dispatchNew
			continue
		}
		clear(c.burst)
		c.burst, c.next = c.burst[:0], 0
		if !c.torn {
			data, sentAt, ok, done := c.conn.RecvStep(r)
			if !done {
				return false
			}
			if ok {
				c.decode(data, sentAt.Add(hop.Latency))
				continue
			}
		}
		c.done = true
		if c.inflight == 0 {
			c.replies.close()
		}
		return true
	}
}

// decode feeds a received chunk to the connection's decoder and collects
// every request it completes into the burst before any is served: they
// all alias the chunk, and the last of them — the last the reply writer
// will get to, since replies go out in request order — carries it back to
// the connection.
func (c *connState) decode(data []byte, arrived vclock.Time) {
	c.dec.Feed(data)
	for {
		payload, ok, err := c.dec.Next()
		if err != nil {
			// Torn or corrupt frame: the stream is unrecoverable, as in WAL
			// replay. Serve what decoded, then drop the connection.
			c.srv.stats.TornFrames++
			c.torn = true
			break
		}
		if !ok {
			break
		}
		p := c.newPending()
		if err := rpc.DecodeRequest(payload, &p.req); err != nil {
			c.srv.stats.BadRequests++
			c.recycle(p)
			continue
		}
		p.arrived = arrived
		c.burst = append(c.burst, p)
	}
	if n := len(c.burst); n > 0 {
		c.burst[n-1].frame = data
	} else {
		c.conn.Release(data)
	}
}

// deliver queues p's response for transmission, releasing it (and any
// successors it unblocks) to the reply writer only in seq order. Safe to
// call from any runner: handlers, batchers, readers.
func (c *connState) deliver(p *pending) {
	c.reorder[p.seq] = p
	for {
		q, ok := c.reorder[c.sendSeq]
		if !ok {
			break
		}
		delete(c.reorder, c.sendSeq)
		c.sendSeq++
		c.inflight--
		c.replies.push(q)
	}
	closeNow := c.done && c.inflight == 0
	if closeNow {
		c.replies.close()
	}
}

// stepReplies is the connection's reply writer, a task: it drains the
// reply mailbox in order, stamps the reply-queue phase, encodes the reply
// into a buffer of the connection's and transmits it, keeping the encoded
// frame (out) across a park on a full socket buffer. Encoding is the last
// read of the request and of whatever the response points into (a Get's
// value is engine memory until this copy), so the pending and its frame
// are recycled right after it. When the mailbox closes (handler done, no
// requests in flight) it closes the connection and reports the connection
// finished.
func stepReplies(r *vclock.Runner, arg any) (done bool) {
	c := arg.(*connState)
	for {
		if c.out == nil { // an encoded reply is never empty
			p, ok, done := c.replies.popStep(r)
			if !done {
				return false
			}
			if !ok {
				c.conn.Close()
				c.srv.connDone()
				return true
			}
			sendStart := r.Now()
			p.resp.Timing = rpc.Timing{
				AcceptNS: nsBetween(p.arrived, p.decoded),
				LingerNS: nsBetween(p.enq, p.claimed),
				EngineNS: nsBetween(p.claimed, p.engDone),
				ReplyNS:  nsBetween(p.engDone, sendStart),
			}
			c.srv.tracePhases(r, p, sendStart)
			c.srv.stats.Phases.add(p, sendStart)
			c.out = rpc.AppendResponse(c.conn.Buffer(), &p.resp)
			c.recycle(p)
		}
		done, err := c.conn.SendStep(r, c.out)
		if !done {
			return false
		}
		c.out = nil
		if err != nil {
			c.srv.stats.DroppedReplies++
		} else {
			c.srv.stats.Replies++
		}
	}
}
