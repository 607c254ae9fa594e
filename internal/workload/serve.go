package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"kvaccel/internal/metrics"
	"kvaccel/internal/rpc"
	"kvaccel/internal/vclock"
)

// Dialer opens simulated connections to a serving tier; server.Server
// satisfies it. A nil return means the connection was refused (backlog
// full) or the server is shut down.
type Dialer interface {
	Connect(r *vclock.Runner, label string) *rpc.Conn
}

// ServeConfig shapes a serving-tier load run: N client runners issue a
// YCSB mix over RPC connections instead of calling the engine directly,
// so every op pays the network, accept-queue, linger, engine, and reply
// phases the serving tier models.
type ServeConfig struct {
	// Clients is the number of concurrent client connections.
	Clients int
	// Tenants spreads clients round-robin over tenant IDs (default 1).
	Tenants int
	// Mix is the YCSB operation mix each client draws from.
	Mix MixSpec
	// KeySpace and ValueSize shape keys and values, as in Config.
	KeySpace  int
	ValueSize int
	// Duration is the virtual measurement window per client.
	Duration time.Duration
	// Seed feeds the per-client generators.
	Seed int64
	// OpenLoop switches from closed-loop (send, await reply, repeat —
	// throughput finds the system's capacity) to open-loop (send every
	// Interval regardless of replies — offered load is fixed and overload
	// surfaces as shed or queueing, never as generator back-off).
	OpenLoop bool
	// Interval is the open-loop per-client interarrival time.
	Interval time.Duration
}

// drainGrace bounds how long an open-loop client waits for straggler
// replies after its send window closes. Replies still missing after the
// grace count as Dropped.
const drainGrace = 2 * time.Second

// DefaultServeConfig returns a 1024-client closed-loop YCSB-A run with
// serving-sized values (small enough that batching, not value transfer,
// dominates the per-op cost).
func DefaultServeConfig() ServeConfig {
	mix, _ := Mix("ycsb-a")
	return ServeConfig{
		Clients:   1024,
		Tenants:   4,
		Mix:       mix,
		KeySpace:  100_000,
		ValueSize: 128,
		Duration:  10 * time.Second,
		Seed:      1,
	}
}

func (c ServeConfig) normalize() ServeConfig {
	if c.Clients < 1 {
		c.Clients = 1
	}
	if c.Tenants < 1 {
		c.Tenants = 1
	}
	if c.KeySpace < 1 {
		c.KeySpace = 1
	}
	if c.OpenLoop && c.Interval <= 0 {
		c.Interval = time.Millisecond
	}
	return c
}

// ServeTenantStats is one tenant's client-side accounting.
type ServeTenantStats struct {
	Sent  int64
	OK    int64 // OK + NOT_FOUND: requests the engine answered
	Retry int64 // RETRY_LATER responses
}

// ServeRecorder accumulates client-observed measurements across all
// clients of a serving run.
type ServeRecorder struct {
	// Latency is the client-observed request latency: send start to
	// response decode, network and all server phases included.
	Latency *metrics.Histogram

	// stats holds the counters Snapshot returns. Its per-phase residency
	// totals cover answered requests, in virtual nanoseconds:
	// accept/linger/engine/reply come from the response's timing annex,
	// network is the remainder of the client-observed total, so the five
	// phases sum to it exactly.
	//
	// stats.AckedPuts samples the PUTs answered OK by key number: the
	// first ackedSample of them, then every ackedEvery-th over the oldest
	// kept. Whoever runs the load reads these keys back once the window
	// has closed — an acked write that is not there is the serving tier's
	// worst failure, and no counter of the tier's own shows it.
	stats     ServeStats
	ackedPuts int64
	ackedAt   int // next slot to overwrite once the sample is full
}

const (
	ackedSample = 1024
	ackedEvery  = 16
)

// noteAcked books a PUT of key number put (negative: not a PUT) answered
// with status, keeping it in the sample when its turn comes.
func (rec *ServeRecorder) noteAcked(put int, status byte) {
	if put < 0 || status != rpc.StatusOK {
		return
	}
	rec.ackedPuts++
	if n := rec.ackedPuts; n > ackedSample && n%ackedEvery != 0 {
		return
	}
	if acked := &rec.stats.AckedPuts; len(*acked) < ackedSample {
		*acked = append(*acked, put)
	} else {
		(*acked)[rec.ackedAt] = put
		rec.ackedAt = (rec.ackedAt + 1) % ackedSample
	}
}

// NewServeRecorder returns an empty recorder sized for tenants.
func NewServeRecorder(tenants int) *ServeRecorder {
	if tenants < 1 {
		tenants = 1
	}
	rec := &ServeRecorder{Latency: metrics.NewHistogram()}
	rec.stats.Tenants = make([]ServeTenantStats, tenants)
	return rec
}

// record books one answered request.
func (rec *ServeRecorder) record(total time.Duration, resp *rpc.Response, tenant int) {
	rec.Latency.Observe(total)
	annex := resp.Timing.Sum()
	tot := uint64(total)
	if annex > tot {
		annex = tot // server phases can round past a tiny client total
	}
	s := &rec.stats
	s.NetNS += int64(tot - annex)
	s.AcceptNS += int64(resp.Timing.AcceptNS)
	s.LingerNS += int64(resp.Timing.LingerNS)
	s.EngineNS += int64(resp.Timing.EngineNS)
	s.ReplyNS += int64(resp.Timing.ReplyNS)
	row := &s.Tenants[tenant%len(s.Tenants)]
	switch resp.Status {
	case rpc.StatusOK:
		s.OK++
		row.OK++
	case rpc.StatusNotFound:
		s.NotFound++
		row.OK++
	case rpc.StatusRetryLater:
		s.Retry++
		row.Retry++
	default:
		s.Errs++
	}
}

// ServeStats is a snapshot of a serving run's client-side accounting.
type ServeStats struct {
	Sent       int64
	OK         int64 // StatusOK responses
	NotFound   int64
	Retry      int64 // RETRY_LATER (shed) responses
	Errs       int64
	Dropped    int64 // open-loop sends never answered (conn torn down)
	ConnFailed int64 // refused connections
	TornFrames int64

	Latency *metrics.Histogram

	NetNS    int64
	AcceptNS int64
	LingerNS int64
	EngineNS int64
	ReplyNS  int64

	Tenants []ServeTenantStats

	// AckedPuts is a sample of the key numbers whose PUT was answered OK;
	// each must read back as MakeValue(n, ValueSize) after the run (the
	// mixes delete nothing, and every writer of a key writes that value).
	AckedPuts []int
}

// Snapshot captures the recorder's current totals.
func (rec *ServeRecorder) Snapshot() ServeStats {
	s := rec.stats
	s.Latency = rec.Latency
	s.Tenants = slices.Clone(rec.stats.Tenants)
	s.AckedPuts = slices.Clone(rec.stats.AckedPuts)
	return s
}

// Answered is how many requests received any response.
func (s ServeStats) Answered() int64 { return s.OK + s.NotFound + s.Retry + s.Errs }

// Goodput is engine-answered (non-shed, non-error) ops per second.
func (s ServeStats) Goodput(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(s.OK+s.NotFound) / elapsed.Seconds()
}

// ShedRate is the fraction of answered requests that were shed.
func (s ServeStats) ShedRate() float64 {
	a := s.Answered()
	if a == 0 {
		return 0
	}
	return float64(s.Retry) / float64(a)
}

// PhaseCoverage reports what fraction of the total client-observed
// latency mass the five-phase decomposition explains (1.0 up to
// clamping, by construction: network is measured as the remainder).
func (s ServeStats) PhaseCoverage() float64 {
	mass := float64(s.Latency.Mean().Nanoseconds()) * float64(s.Latency.Count())
	if mass <= 0 {
		return 0
	}
	return float64(s.NetNS+s.AcceptNS+s.LingerNS+s.EngineNS+s.ReplyNS) / mass
}

// ServeLoad is the shared cross-client state of one serving run: the
// config, one request generator (its zipfian tables read-only after
// construction, its insert frontier shared), and the recorder.
type ServeLoad struct {
	cfg ServeConfig
	gen *mixGen
	Rec *ServeRecorder
	// closed holds the closed-loop clients' states, made with the load so
	// that a client's start allocates none.
	closed []closedClient
}

// NewServeLoad builds the shared state for a run whose keyspace was
// preloaded with `preloaded` sequential keys.
func NewServeLoad(cfg ServeConfig, preloaded int) *ServeLoad {
	cfg = cfg.normalize()
	l := &ServeLoad{
		cfg: cfg,
		gen: newMixGen(cfg.Mix, cfg.KeySpace, NewMixedState(preloaded)),
		Rec: NewServeRecorder(cfg.Tenants),
	}
	if !cfg.OpenLoop {
		l.closed = make([]closedClient, cfg.Clients)
	}
	return l
}

// Config returns the normalized config the load was built with.
func (l *ServeLoad) Config() ServeConfig { return l.cfg }

// buildRequest fills req with the request q draws: a GET, a SCAN, or a
// PUT for the rest (an RMW's update half; its caller issues the read).
// The request's key and value lie in the client's scratch buffers: it
// must be framed (rpc.AppendRequest copies them into the frame) before
// the client builds another. put is the key number a PUT writes, -1 for
// the rest.
func (l *ServeLoad) buildRequest(req *rpc.Request, buf *scratch, q request, id uint64, tenant uint8) (put int) {
	*req = rpc.Request{ID: id, Tenant: tenant, Key: buf.key(q.key)}
	switch q.kind {
	case opRead:
		req.Op = rpc.OpGet
		return -1
	case opScan:
		req.Op = rpc.OpScan
		req.Limit = uint32(q.scanLen)
		return -1
	}
	req.Op = rpc.OpPut
	req.Value = buf.value(q.key, l.cfg.ValueSize)
	return q.key
}

// Client runs one client (id, 0 <= id < Clients) against the dialer until
// the duration elapses, closed- or open-loop per the config. clk starts
// the open-loop receiver task; the closed loop never uses it.
func (l *ServeLoad) Client(r *vclock.Runner, clk *vclock.Clock, d Dialer, id int) {
	conn := d.Connect(r, fmt.Sprintf("client.%d", id))
	if conn == nil {
		l.Rec.stats.ConnFailed++
		return
	}
	if l.cfg.OpenLoop {
		l.openLoop(r, clk, conn, id)
		return
	}
	c := &l.closed[id]
	*c = closedClient{
		l:        l,
		id:       id,
		tenant:   id % l.cfg.Tenants,
		replies:  replyStream{conn: conn},
		rng:      rand.New(rand.NewSource(l.cfg.Seed + int64(id)*7919)),
		deadline: r.Now().Add(l.cfg.Duration),
	}
	r.Lend(stepClosed, c)
	conn.Close()
}

// frame frames req into a buffer of the connection's and books it as
// sent. The connection owns the frame once it is sent, which is what lets
// a client send its next request before this one is answered.
func (l *ServeLoad) frame(conn *rpc.Conn, req *rpc.Request, tenant int) []byte {
	l.Rec.stats.Sent++
	l.Rec.stats.Tenants[tenant].Sent++
	return rpc.AppendRequest(conn.Buffer(), req)
}

// replyStream is a client's receive side: a decoder over the frames the
// connection lends, and one Response every reply is decoded into.
type replyStream struct {
	conn  *rpc.Conn
	dec   rpc.Decoder
	chunk []byte // the frame on loan that dec is reading
	resp  rpc.Response
}

// errStreamEnded reports a reply stream that ended cleanly (peer closed).
var errStreamEnded = errors.New("workload: reply stream ended")

// nextStep reads the next reply as a stepped primitive (see
// vclock.Clock.GoTask): done once a reply has come or the stream has
// ended, and otherwise r is parked until one may have. The response
// aliases the frame it came in and is valid until the following call,
// which is where that frame goes back to the connection — once the
// decoder has nothing left to read in it. The error is errStreamEnded at
// EOF, anything else for a corrupt stream.
func (s *replyStream) nextStep(r *vclock.Runner) (resp *rpc.Response, done bool, err error) {
	for {
		payload, ok, err := s.dec.Next()
		if err != nil {
			return nil, true, err
		}
		if ok {
			if err := rpc.DecodeResponse(payload, &s.resp); err != nil {
				return nil, true, err
			}
			return &s.resp, true, nil
		}
		s.conn.Release(s.chunk)
		s.chunk = nil
		data, _, alive, done := s.conn.RecvStep(r)
		if !done {
			return nil, false, nil
		}
		if !alive {
			return nil, true, errStreamEnded
		}
		s.dec.Feed(data)
		s.chunk = data
	}
}

// closedClient is the capacity-probing client, lent its runner's turns
// (stepClosed): one op in flight, the next issued when the reply lands.
// Everything a request needs — the struct, its key and value, the reply —
// is the client's own and built over again for each request; the frames
// are the connection's.
type closedClient struct {
	l          *ServeLoad
	id, tenant int
	replies    replyStream
	rng        *rand.Rand
	deadline   vclock.Time
	buf        scratch
	req        rpc.Request
	seq        uint64
	// The request in flight: its frame until the connection takes it, when
	// it was sent, the key number it PUTs (-1 for the rest), and whether
	// its reply is awaited. With update set, rmw's update half is due once
	// its read half is answered.
	frame   []byte
	t0      vclock.Time
	put     int
	waiting bool
	update  bool
	rmw     request
}

// issue builds q as the client's next request and frames it.
func (c *closedClient) issue(r *vclock.Runner, q request) {
	c.put = c.l.buildRequest(&c.req, &c.buf, q, reqID(c.id, c.seq), uint8(c.tenant))
	c.seq++
	c.t0 = r.Now()
	c.frame = c.l.frame(c.replies.conn, &c.req, c.tenant)
}

// stepClosed is the closed loop as a step: send the request in flight,
// await and book its reply, then issue the next — an RMW's update half,
// or, until the deadline, a fresh draw. It is done at the deadline or
// when the connection dies.
func stepClosed(r *vclock.Runner, arg any) (done bool) {
	c := arg.(*closedClient)
	rec := c.l.Rec
	for {
		switch {
		case c.frame != nil:
			sent, err := c.replies.conn.SendStep(r, c.frame)
			if !sent {
				return false
			}
			if c.frame = nil; err != nil {
				rec.stats.Dropped++
				return true
			}
			c.waiting = true
		case c.waiting:
			resp, got, err := c.replies.nextStep(r)
			if !got {
				return false
			}
			if c.waiting = false; err != nil {
				if err != errStreamEnded {
					rec.stats.TornFrames++
				}
				rec.stats.Dropped++
				return true
			}
			rec.record(r.Now().Sub(c.t0), resp, c.tenant)
			rec.noteAcked(c.put, resp.Status)
		case c.update:
			c.update = false
			c.issue(r, c.rmw)
		case c.deadline.Sub(r.Now()) <= 0:
			return true
		default:
			q := c.l.gen.next(c.rng)
			if q.kind == opRMW {
				// The read half first: a GET of the key the update half writes.
				c.rmw, c.update = q, true
				q = request{kind: opRead, key: q.key}
			}
			c.issue(r, q)
		}
	}
}

// openState is an open-loop client's receive side, a task
// (stepOpenRecv): its replies, and its requests in flight.
type openState struct {
	l           *ServeLoad
	tenant      int
	replies     replyStream
	outstanding map[uint64]openRequest // by request ID
}

// openRequest is what the receiver needs to book a reply: when the
// request was sent, and the key number it PUT (-1 for the rest).
type openRequest struct {
	t0  vclock.Time
	put int
}

// stepOpenRecv books replies as they arrive, in any order, until the
// stream ends.
func stepOpenRecv(r *vclock.Runner, arg any) (done bool) {
	st := arg.(*openState)
	rec := st.l.Rec
	for {
		resp, got, err := st.replies.nextStep(r)
		if !got {
			return false
		}
		if err != nil {
			if err != errStreamEnded {
				rec.stats.TornFrames++
			}
			return true
		}
		sent, known := st.outstanding[resp.ID]
		delete(st.outstanding, resp.ID)
		if known {
			rec.record(r.Now().Sub(sent.t0), resp, st.tenant)
			rec.noteAcked(sent.put, resp.Status)
		}
	}
}

// openLoop is the offered-load client: a sender issuing one request per
// interval on schedule (with catch-up, so the offered rate holds through
// server-side queueing) and a receiver task booking replies as they
// arrive, any order.
func (l *ServeLoad) openLoop(r *vclock.Runner, clk *vclock.Clock, conn *rpc.Conn, id int) {
	tenant := id % l.cfg.Tenants
	st := &openState{l: l, tenant: tenant, replies: replyStream{conn: conn}, outstanding: make(map[uint64]openRequest)}
	clk.GoTask(fmt.Sprintf("client.%d.recv", id), stepOpenRecv, st)

	rng := rand.New(rand.NewSource(l.cfg.Seed + int64(id)*7919))
	start := r.Now()
	deadline := start.Add(l.cfg.Duration)
	var (
		buf scratch
		req rpc.Request
		seq uint64
	)
	for i := 0; ; i++ {
		due := start.Add(l.cfg.Interval * time.Duration(i))
		if due.Sub(deadline) >= 0 {
			break
		}
		if w := due.Sub(r.Now()); w > 0 {
			r.Sleep(w)
		}
		q := l.gen.next(rng)
		if q.kind == opRMW {
			q.kind = opUpdate // open loop keeps one request per slot
		}
		put := l.buildRequest(&req, &buf, q, reqID(id, seq), uint8(tenant))
		seq++
		st.outstanding[req.ID] = openRequest{t0: r.Now(), put: put}
		// Requests pipeline: this frame may still be queued, or in the
		// server's hands, when the next is built over the same scratch —
		// the frame is a copy, and it is the connection's.
		if err := conn.Send(r, l.frame(conn, &req, tenant)); err != nil {
			delete(st.outstanding, req.ID)
			l.Rec.stats.Dropped++
			return
		}
	}

	// Drain: wait for stragglers up to the grace, then cut the
	// connection; whatever is still outstanding counts as dropped.
	graceEnd := r.Now().Add(drainGrace)
	for {
		n := len(st.outstanding)
		if n == 0 {
			break
		}
		if graceEnd.Sub(r.Now()) <= 0 {
			l.Rec.stats.Dropped += int64(n)
			break
		}
		r.Sleep(200 * time.Microsecond)
	}
	conn.Close()
}

// reqID packs a globally unique request ID from client and sequence.
func reqID(client int, seq uint64) uint64 {
	return uint64(client)<<40 | (seq & (1<<40 - 1))
}
