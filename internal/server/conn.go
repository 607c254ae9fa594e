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
// runner that decodes request frames and dispatches them, and a reply
// writer that sends responses back **in per-client request order** — a
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

	// Handler-only state: the requests decoded from the chunk in hand, and
	// the batch an inline OpBatch stages into.
	burst []*pending
	batch kvaccel.Batch
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

// handle is the per-connection request loop.
func (c *connState) handle(r *vclock.Runner) {
	dec := &rpc.Decoder{}
	latency := c.srv.cfg.Net.Latency
	for torn := false; !torn; {
		data, sentAt, ok := c.conn.Recv(r)
		if !ok {
			break
		}
		arrived := sentAt.Add(latency)
		// Decode every request the chunk completes before serving any:
		// they all alias the chunk, and the last of them — the last the
		// reply writer will get to, since replies go out in request
		// order — carries it back to the connection.
		dec.Feed(data)
		for {
			payload, ok, err := dec.Next()
			if err != nil {
				// Torn or corrupt frame: the stream is unrecoverable, as
				// in WAL replay. Drop the connection.
				c.srv.stats.TornFrames++
				torn = true
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
		for _, p := range c.burst {
			// The full decode charge is paid in dispatch, after admission:
			// the gate reads only the fixed request prelude, so shed
			// requests cost (nearly) nothing — under overload the tier
			// must be able to refuse load it cannot afford to parse.
			p.decoded = r.Now()
			p.seq = c.nextSeq
			c.nextSeq++
			c.inflight++
			c.srv.dispatch(r, p)
		}
		clear(c.burst)
		c.burst = c.burst[:0]
	}
	c.done = true
	idle := c.inflight == 0
	if idle {
		c.replies.close()
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

// writeReplies is the per-connection reply writer: it drains the reply
// mailbox in order, stamps the reply-queue phase, encodes the reply into
// a buffer of the connection's and transmits it. Encoding is the last
// read of the request and of whatever the response points into (a Get's
// value is engine memory until this copy), so the pending and its frame
// are recycled right after it. When the mailbox closes (handler done, no
// requests in flight) it closes the connection and reports the
// connection finished.
func (c *connState) writeReplies(r *vclock.Runner) {
	for {
		p, ok := c.replies.pop(r)
		if !ok {
			break
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
		data := rpc.AppendResponse(c.conn.Buffer(), &p.resp)
		c.recycle(p)
		if err := c.conn.Send(r, data); err != nil {
			c.srv.stats.DroppedReplies++
		} else {
			c.srv.stats.Replies++
		}
	}
	c.conn.Close()
	c.srv.connDone()
}
