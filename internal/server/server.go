// Package server is KVACCEL's serving tier: a virtual-clock-native RPC
// front-end over kvaccel.ShardedDB. N listener runners accept simulated
// connections (internal/rpc); each connection gets a handler runner that
// decodes CRC-framed requests and a reply-writer runner that returns
// responses in per-client request order. The hot path is the per-shard
// cross-connection batcher (batcher.go): requests from different clients
// coalesce — under an adaptive linger window borrowed from the engine's
// group-commit policy — into one WriteBatch / one multi-get chunk per
// shard, so per-op WAL and queue costs amortize across tenants exactly
// like group commit amortizes across writers. Admission control
// (admission.go) sheds load with RETRY_LATER before the engine stalls.
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
	// Listeners is the number of accept-loop runners (default 2).
	Listeners int
	// AcceptQueue is the pending-connection backlog per listener.
	AcceptQueue int
	// Batch enables the per-shard cross-connection batcher; false is the
	// per-connection dispatch baseline (thread-per-connection, every op
	// executed inline on its handler).
	Batch bool
	// LingerMicros is the batcher's base linger window in virtual
	// microseconds (the adaptive policy may skip it; see batcher.go).
	LingerMicros int64
	// MaxBatchOps caps one committed write batch (default 64).
	MaxBatchOps int
	// BatchQueue bounds each shard's batcher inbox; a full inbox sheds
	// with RETRY_LATER (the queue-depth admission gate; default 256).
	BatchQueue int
	// Readers is the per-shard read-worker pool size in batched mode
	// (default 8). A single claimer runner coalesces gets into multi-get
	// chunks under the same adaptive linger as writes — the amortized
	// cost here is the per-crossing dispatch CPU — and the pool executes
	// the claimed chunks in parallel.
	Readers int
	// ReadChunk caps one multi-get chunk (default 8).
	ReadChunk int
	// AdmitRate is the token-bucket refill rate in ops per virtual
	// second; 0 disables rate admission (queue-depth gating remains).
	AdmitRate float64
	// AdmitBurst is the bucket capacity (default AdmitRate/100, min 64).
	AdmitBurst int
	// Tenants sizes the per-tenant accounting tables (default 1).
	Tenants int
	// FrontCores sizes the serving tier's own worker-core pool. Request
	// decode and engine-dispatch CPU are charged to it, so it is the
	// resource thread-per-request dispatch saturates first (default 4).
	FrontCores int
	// DecodeCPU is charged per admitted request for frame parse,
	// validation, and reply encode (default 1µs). The admission gate
	// decides from the fixed 10-byte request prelude, so a shed request
	// skips this charge — shedding must stay cheaper than serving, or
	// the gate itself saturates the front cores under overload.
	DecodeCPU time.Duration
	// DispatchCPU is charged per engine crossing — the lock acquisition,
	// wakeup, and submission overhead one call into the engine costs
	// regardless of how many ops it carries (default 8µs). Per-connection
	// dispatch pays it once per op; the batcher pays it once per
	// committed batch or multi-get chunk — the cost batching exists to
	// amortize.
	DispatchCPU time.Duration
	// Net models the client<->server hop.
	Net rpc.NetConfig
	// Tracer, when non-nil, records the serving phases (accept-queue,
	// serve-linger, serve-engine, serve-reply) per request.
	Tracer *trace.Tracer
}

// DefaultConfig returns the serving defaults: batching on, a 100µs base
// linger, 64-op batches, and datacenter-hop networking.
func DefaultConfig() Config {
	return Config{
		Listeners:    2,
		AcceptQueue:  128,
		Batch:        true,
		LingerMicros: 100,
		MaxBatchOps:  64,
		BatchQueue:   256,
		Readers:      8,
		ReadChunk:    8,
		Tenants:      1,
		FrontCores:   4,
		DecodeCPU:    time.Microsecond,
		DispatchCPU:  8 * time.Microsecond,
		Net:          rpc.DefaultNetConfig(),
	}
}

func (c Config) normalize() Config {
	if c.Listeners < 1 {
		c.Listeners = 1
	}
	if c.AcceptQueue < 1 {
		c.AcceptQueue = 128
	}
	if c.MaxBatchOps < 1 {
		c.MaxBatchOps = 64
	}
	if c.BatchQueue < 1 {
		c.BatchQueue = 256
	}
	if c.Readers < 1 {
		c.Readers = 8
	}
	if c.ReadChunk < 1 {
		c.ReadChunk = 8
	}
	if c.Tenants < 1 {
		c.Tenants = 1
	}
	if c.FrontCores < 1 {
		c.FrontCores = 4
	}
	if c.DecodeCPU <= 0 {
		c.DecodeCPU = time.Microsecond
	}
	if c.DispatchCPU <= 0 {
		c.DispatchCPU = 8 * time.Microsecond
	}
	if c.AdmitRate > 0 && c.AdmitBurst < 1 {
		c.AdmitBurst = int(c.AdmitRate / 100)
		if c.AdmitBurst < 64 {
			c.AdmitBurst = 64
		}
	}
	return c
}

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

// Server serves a ShardedDB over simulated connections.
type Server struct {
	db  *kvaccel.ShardedDB
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
func New(db *kvaccel.ShardedDB, cfg Config) *Server {
	cfg = cfg.normalize()
	s := &Server{db: db, cfg: cfg, clk: db.Clock()}
	s.cpu = cpu.NewPool(cfg.FrontCores, "server.cpu")
	s.connsDone = vclock.NewCond("server.conns-done")
	s.adm = newAdmission(cfg.AdmitRate, cfg.AdmitBurst, cfg.Tenants)
	s.stats.Tenants = make([]TenantStats, cfg.Tenants)

	s.accept = make([]*mailbox[*rpc.Conn], cfg.Listeners)
	for i := range s.accept {
		s.accept[i] = newMailbox[*rpc.Conn](cfg.AcceptQueue, fmt.Sprintf("server.accept.%d", i))
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

// Config returns the server's normalized configuration.
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
	client, srvEnd := rpc.NewPair(s.cfg.Net, label)
	// SYN + SYN-ACK: one round trip before the first byte.
	r.Sleep(2 * s.cfg.Net.Latency)
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
		s.clk.Go(fmt.Sprintf("server.conn.%d", id), c.handle)
		s.clk.Go(fmt.Sprintf("server.reply.%d", id), c.writeReplies)
	}
}

// connDone is called once per connection after its reply writer exits.
func (s *Server) connDone() {
	s.liveConns--
	s.connsDone.Broadcast()
}

// Shutdown waits for every accepted connection to finish, then stops the
// batcher, reader, and listener runners. Call it after all clients have
// closed their connections; afterwards the clock can drain.
func (s *Server) Shutdown(r *vclock.Runner) {
	s.closed = true
	for s.liveConns > 0 {
		s.connsDone.Wait(r)
	}
	for _, b := range s.batchers {
		b.close()
	}
	for _, box := range s.accept {
		box.close()
	}
}

// dispatch routes one decoded request: admission first, then the batched
// or direct execution path.
func (s *Server) dispatch(r *vclock.Runner, p *pending) {
	s.stats.Requests++
	tenant := int(p.req.Tenant)
	if !s.adm.admit(p.decoded, tenant) {
		s.shed(r, p)
		return
	}
	// Admitted: pay the full frame parse + validation + reply encode.
	s.cpu.Run(r, s.cfg.DecodeCPU)
	p.decoded = r.Now()
	if !s.cfg.Batch {
		s.execDirect(r, p)
		return
	}
	switch p.req.Op {
	case rpc.OpPut, rpc.OpDelete:
		b := s.batchers[s.db.ShardIndex(p.req.Key)]
		if !b.enqueueWrite(p) {
			s.shed(r, p)
		}
	case rpc.OpGet:
		b := s.batchers[s.db.ShardIndex(p.req.Key)]
		if !b.enqueueRead(p) {
			s.shed(r, p)
		}
	default:
		// Scans span shards and batches carry their own amortization;
		// both run inline on the handler.
		s.execDirect(r, p)
	}
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

// execDirect runs p's operation inline on the calling runner — the
// per-connection dispatch baseline, and the path scans/batches always
// take.
func (s *Server) execDirect(r *vclock.Runner, p *pending) {
	s.stats.DirectOps++
	p.enq = p.decoded
	p.claimed = p.decoded
	// One full engine crossing per op: the overhead the batcher amortizes.
	s.cpu.Run(r, s.cfg.DispatchCPU)
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
	if err != nil {
		s.stats.EngineErrors++
		resp.Status = rpc.StatusErr
	}
	p.engDone = r.Now()
	s.tenant(p).Answered++
	p.conn.deliver(p)
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

// completeBatch finalizes a slice of pendings that shared one engine
// call: stamps, status, ordered delivery.
func (s *Server) completeBatch(batch []*pending, done vclock.Time, err error) {
	for _, p := range batch {
		p.engDone = done
		status := rpc.StatusOK
		if err != nil {
			status = rpc.StatusErr
		}
		p.reply(status)
		s.tenant(p).Answered++
		p.conn.deliver(p)
	}
	if err != nil {
		s.stats.EngineErrors += int64(len(batch))
	}
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
