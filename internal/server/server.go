// Package server is KVACCEL's serving tier: a virtual-clock-native RPC
// front-end over kvaccel.DB. Two listener runners accept simulated
// connections (internal/rpc); each connection gets a handler that decodes
// CRC-framed requests and a reply writer that returns responses in
// per-client request order. Both are kernel tasks (vclock.Clock.GoTask):
// their parks switch no goroutine, and the one place a handler blocks,
// the direct engine call, runs through vclock.Runner.Call. The hot path
// is the per-shard cross-connection batcher (batcher.go): requests from
// different clients coalesce into one WriteBatch / one multi-get chunk per
// shard — writes behind the engine crossing, with no timer, gets under a
// short window that a full chunk ends — so per-op WAL and queue costs
// amortize across tenants exactly like group commit amortizes across
// writers. Admission control (admission.go) sheds load with RETRY_LATER
// before the engine stalls.
package server

import (
	"fmt"
	"slices"
	"time"

	"kvaccel"
	"kvaccel/internal/cpu"
	"kvaccel/internal/rpc"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
)

// Config tunes the serving tier.
type Config struct {
	// Batch enables the per-shard cross-connection batcher; false is the
	// per-connection dispatch baseline (thread-per-connection, every op
	// executed inline on its handler).
	Batch bool
	// AdmitRate is the token-bucket refill rate in ops per virtual
	// second; 0 disables rate admission (queue-depth gating remains). The
	// bucket holds AdmitRate/100 tokens, at least 64.
	AdmitRate float64
	// Tenants sizes the per-tenant accounting tables; at least 1.
	Tenants int
	// FrontCores sizes the serving tier's own worker-core pool. Request
	// decode and engine-dispatch CPU are charged to it, so it is the
	// resource thread-per-request dispatch saturates first; at least 1.
	FrontCores int
	// Tracer, when non-nil, records the serving phases (accept-queue,
	// serve-linger, serve-engine, serve-reply) per request.
	Tracer *trace.Tracer
}

// DefaultConfig returns the serving defaults: batching on, one tenant,
// four front cores.
func DefaultConfig() Config {
	return Config{Batch: true, Tenants: 1, FrontCores: 4}
}

// The serving tier's fixed shape.
const (
	// listeners is the number of accept-loop runners.
	listeners = 2
	// acceptQueue is the pending-connection backlog per listener.
	acceptQueue = 128
	// maxBatchOps caps one committed write batch.
	maxBatchOps = 64
	// batchQueue bounds each shard's batcher inbox; a full inbox sheds
	// with RETRY_LATER (the queue-depth admission gate).
	batchQueue = 256
	// readers is the per-shard read-worker pool size in batched mode. A
	// single claimer runner coalesces gets into multi-get chunks — the
	// amortized cost here is the per-crossing dispatch CPU — and the pool
	// executes the claimed chunks in parallel.
	readers = 8
	// readChunk caps one multi-get chunk.
	readChunk = 8
	// decodeCPU is charged per admitted request for frame parse,
	// validation, and reply encode. The admission gate decides from the
	// fixed 10-byte request prelude, so a shed request skips this charge —
	// shedding must stay cheaper than serving, or the gate itself
	// saturates the front cores under overload.
	decodeCPU = time.Microsecond
	// dispatchCPU is charged per engine crossing — the lock acquisition,
	// wakeup, and submission overhead one call into the engine costs
	// regardless of how many ops it carries. Per-connection dispatch pays
	// it once per op; the batcher pays it once per committed batch or
	// multi-get chunk — the cost batching exists to amortize.
	dispatchCPU = 8 * time.Microsecond
)

// hop models the client<->server network: a datacenter hop.
var hop = rpc.DefaultNetConfig()

// pending is one in-flight request inside the server: the request and
// its response by value, the virtual timestamps the phase decomposition
// is built from, and — on the last request decoded from a received chunk
// — the chunk itself. req's keys and values alias that chunk; it stays
// lent to this connection until the reply writer has encoded the last
// reply that could read it (connState.recycle).
type pending struct {
	req   rpc.Request
	resp  rpc.Response
	frame []byte // the received chunk, on the last request decoded from it
	conn  *connState
	seq   uint64 // per-connection reply order

	arrived vclock.Time // frame arrival at the server NIC
	decoded vclock.Time // handler picked it up (accept = decoded-arrived)
	enq     vclock.Time // entered a batcher/read queue
	claimed vclock.Time // batch/chunk claimed it (linger = claimed-enq)
	engDone vclock.Time // engine call finished (engine = engDone-claimed)
}

// reply starts p's response over: the request's id, the given status,
// nothing else but the entry array a scan can fill again.
func (p *pending) reply(status byte) *rpc.Response {
	p.resp = rpc.Response{ID: p.req.ID, Status: status, Entries: p.resp.Entries[:0]}
	return &p.resp
}

// Server serves a kvaccel.DB over simulated connections.
type Server struct {
	db  *kvaccel.DB
	cfg Config
	clk *vclock.Clock
	adm *admission
	cpu *cpu.Pool // frontend worker cores (decode + dispatch charges)

	accept   []*mailbox[*rpc.Conn]
	nextLsnr int64
	batchers []*shardBatcher

	liveConns int
	connsDone *vclock.Cond
	connSeq   int64
	closed    bool

	// stats holds the counters Stats returns; the admission gate's
	// per-tenant counts and the front cores' busy time are filled in
	// there.
	stats Stats
}

// New builds a server over db and starts its listener (and, in batched
// mode, per-shard batcher and reader) runners on db's clock.
// It panics, naming the field, on a Config it cannot run with.
func New(db *kvaccel.DB, cfg Config) *Server {
	if cfg.Tenants < 1 {
		panic("server: Config needs Tenants >= 1")
	}
	if cfg.FrontCores < 1 {
		panic("server: Config needs FrontCores >= 1")
	}
	s := &Server{db: db, cfg: cfg, clk: db.Clock()}
	s.cpu = cpu.NewPool(cfg.FrontCores, "server.cpu")
	s.connsDone = vclock.NewCond("server.conns-done")
	s.adm = newAdmission(cfg.AdmitRate, cfg.Tenants)
	s.stats.Tenants = make([]TenantStats, cfg.Tenants)

	s.accept = make([]*mailbox[*rpc.Conn], listeners)
	for i := range s.accept {
		s.accept[i] = newMailbox[*rpc.Conn](acceptQueue, fmt.Sprintf("server.accept.%d", i))
		i := i
		s.clk.Go(fmt.Sprintf("server.listener.%d", i), func(r *vclock.Runner) {
			s.listen(r, s.accept[i])
		})
	}
	if cfg.Batch {
		s.batchers = make([]*shardBatcher, db.NumShards())
		for i := range s.batchers {
			s.batchers[i] = newShardBatcher(s, i)
		}
	}
	return s
}

// Config returns the server's configuration.
func (s *Server) Config() Config { return s.cfg }

// Connect establishes a new connection from the caller's side: it pays
// the TCP-handshake RTT, enqueues the server endpoint on a listener's
// accept queue (parking if the backlog is full is not modeled — a full
// backlog refuses, like a SYN drop), and returns the client endpoint.
// It returns nil once the server is shut down or the backlog is full.
func (s *Server) Connect(r *vclock.Runner, label string) *rpc.Conn {
	if s.closed {
		return nil
	}
	client, srvEnd := rpc.NewPair(hop, label)
	// SYN + SYN-ACK: one round trip before the first byte.
	r.Sleep(2 * hop.Latency)
	s.nextLsnr++
	i := int(s.nextLsnr) % len(s.accept)
	if !s.accept[i].tryPush(srvEnd) {
		s.stats.ConnRefused++
		return nil
	}
	return client
}

// listen accepts connections until shutdown.
func (s *Server) listen(r *vclock.Runner, box *mailbox[*rpc.Conn]) {
	for {
		conn, ok := box.pop(r)
		if !ok {
			return
		}
		s.liveConns++
		s.stats.Accepted++
		s.connSeq++
		id := s.connSeq
		c := newConnState(s, conn, id)
		s.clk.GoTask(fmt.Sprintf("server.conn.%d", id), stepHandler, c)
		s.clk.GoTask(fmt.Sprintf("server.reply.%d", id), stepReplies, c)
	}
}

// connDone is called once per connection after its reply writer exits.
func (s *Server) connDone() {
	s.liveConns--
	s.connsDone.Broadcast()
}

func connsClosed(s any) bool { return s.(*Server).liveConns <= 0 }

// Shutdown waits for every accepted connection to finish, then stops the
// batcher, reader, and listener runners. Call it after all clients have
// closed their connections; afterwards the clock can drain.
func (s *Server) Shutdown(r *vclock.Runner) {
	s.closed = true
	s.connsDone.WaitUntil(r, connsClosed, s)
	for _, b := range s.batchers {
		b.close()
	}
	for _, box := range s.accept {
		box.close()
	}
}

// dispatchStage is how far the handler has taken the request it is
// dispatching.
type dispatchStage uint8

const (
	dispatchNew    dispatchStage = iota // not yet stamped or admitted
	dispatchDecode                      // admitted, paying decodeCPU
	dispatchCalled                      // handed to execDirect (vclock.Runner.Call)
)

// dispatchStep routes one decoded request — admission first, then the
// batched or direct execution path — as far as it goes without blocking,
// and reports whether p is dispatched. The handler calls it again for the
// same p after each park, and after the direct engine call it asks for,
// and sets c.stage back to dispatchNew for the next request.
func (s *Server) dispatchStep(r *vclock.Runner, c *connState, p *pending) bool {
	switch c.stage {
	case dispatchNew:
		// The full decode charge is paid after admission: the gate reads
		// only the fixed request prelude, so shed requests cost (nearly)
		// nothing — under overload the tier must be able to refuse load
		// it cannot afford to parse.
		p.decoded = r.Now()
		p.seq = c.nextSeq
		c.nextSeq++
		c.inflight++
		s.stats.Requests++
		if !s.adm.admit(p.decoded, int(p.req.Tenant)) {
			s.shed(r, p)
			return true
		}
		c.stage = dispatchDecode
		fallthrough
	case dispatchDecode:
		// Admitted: pay the full frame parse + validation + reply encode.
		if !s.cpu.RunStep(r, decodeCPU) {
			return false
		}
		p.decoded = r.Now()
		op := p.req.Op
		switch {
		case s.cfg.Batch && (op == rpc.OpPut || op == rpc.OpDelete):
			if !s.batchers[s.db.ShardIndex(p.req.Key)].enqueueWrite(p) {
				s.shed(r, p)
			}
		case s.cfg.Batch && op == rpc.OpGet:
			if !s.batchers[s.db.ShardIndex(p.req.Key)].enqueueRead(p) {
				s.shed(r, p)
			}
		default:
			// Without batching every op runs on the handler; scans span
			// shards and batches carry their own amortization, so they do
			// anyway.
			c.stage = dispatchCalled
			r.Call(execDirect, p)
			return false
		}
	}
	return true
}

// shed refuses p with RETRY_LATER; the response still flows through the
// ordered reply path, so a shed is never a silent drop.
func (s *Server) shed(r *vclock.Runner, p *pending) {
	s.stats.Shed++
	s.tenant(p).Shed++
	s.cfg.Tracer.Instant(r, trace.PhaseServeShed, rpc.OpName(p.req.Op), 0)
	p.enq = p.decoded
	p.claimed = p.decoded
	p.engDone = p.decoded
	p.reply(rpc.StatusRetryLater)
	p.conn.deliver(p)
}

// execDirect runs p's operation on its connection's handler, in the
// handler's blocking call (vclock.Runner.Call) — the per-connection
// dispatch baseline, and the path scans/batches always take.
func execDirect(r *vclock.Runner, arg any) {
	p := arg.(*pending)
	s := p.conn.srv
	s.stats.DirectOps++
	p.enq = p.decoded
	p.claimed = p.decoded
	// One full engine crossing per op: the overhead the batcher amortizes.
	s.cpu.Run(r, dispatchCPU)
	resp := p.reply(rpc.StatusOK)
	var err error
	switch p.req.Op {
	case rpc.OpPut:
		err = s.db.Put(r, p.req.Key, p.req.Value)
	case rpc.OpDelete:
		err = s.db.Delete(r, p.req.Key)
	case rpc.OpGet:
		var ok bool
		resp.Value, ok, err = s.db.Get(r, p.req.Key)
		if err == nil && !ok {
			resp.Status = rpc.StatusNotFound
		}
	case rpc.OpScan:
		resp.Entries = s.scan(r, resp.Entries, p.req.Key, int(p.req.Limit))
	case rpc.OpBatch:
		b := &p.conn.batch // execDirect runs on the connection's handler
		b.Reset()
		for _, op := range p.req.Ops {
			if op.Op == rpc.OpDelete {
				b.Delete(op.Key)
			} else {
				b.Put(op.Key, op.Value)
			}
		}
		err = s.db.WriteBatch(r, b)
	default:
		resp.Status = rpc.StatusErr
	}
	s.finish(p, r.Now(), err)
}

// scan appends to out up to limit entries at and after key from the
// merged cross-shard cursor. The cursor's key and value are valid only
// until it moves, so each entry is a copy.
func (s *Server) scan(r *vclock.Runner, out []rpc.ScanEntry, key []byte, limit int) []rpc.ScanEntry {
	if limit <= 0 {
		limit = 1
	}
	it := s.db.NewIterator(r)
	defer it.Close()
	for it.Seek(key); it.Valid() && len(out) < limit; it.Next() {
		out = append(out, rpc.ScanEntry{
			Key:   append([]byte(nil), it.Key()...),
			Value: append([]byte(nil), it.Value()...),
		})
	}
	return out
}

// finish ends p's engine call at done, its response built: an error
// answers StatusErr instead. The response goes on in per-client order.
func (s *Server) finish(p *pending, done vclock.Time, err error) {
	if err != nil {
		s.stats.EngineErrors++
		p.resp.Status = rpc.StatusErr
	}
	p.engDone = done
	s.tenant(p).Answered++
	p.conn.deliver(p)
}

// tracePhases records p's serving phases once its reply is being written.
func (s *Server) tracePhases(r *vclock.Runner, p *pending, sendStart vclock.Time) {
	tr := s.cfg.Tracer
	if tr == nil {
		return
	}
	name := rpc.OpName(p.req.Op)
	if d := p.decoded.Sub(p.arrived); d > 0 {
		tr.Complete(r, trace.PhaseAcceptQueue, name, p.arrived, d, 0, 0)
	}
	if d := p.claimed.Sub(p.enq); d > 0 {
		tr.Complete(r, trace.PhaseServeLinger, name, p.enq, d, 0, 0)
	}
	if d := p.engDone.Sub(p.claimed); d > 0 {
		tr.Complete(r, trace.PhaseServeEngine, name, p.claimed, d, 0, 0)
	}
	if d := sendStart.Sub(p.engDone); d > 0 {
		tr.Complete(r, trace.PhaseServeReply, name, p.engDone, d, 0, 0)
	}
}

// tenant returns the accounting row of p's tenant.
func (s *Server) tenant(p *pending) *TenantStats {
	return &s.stats.Tenants[int(p.req.Tenant)%len(s.stats.Tenants)]
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	st := s.stats
	st.FrontCPUBusy = time.Duration(s.cpu.BusyNS())
	st.Tenants = slices.Clone(s.stats.Tenants)
	for i := range st.Tenants {
		st.Tenants[i].Admitted = s.adm.admitted[i]
		st.Tenants[i].Shed += s.adm.shed[i]
	}
	return st
}
