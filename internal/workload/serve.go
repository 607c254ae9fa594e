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
}

// NewServeLoad builds the shared state for a run whose keyspace was
// preloaded with `preloaded` sequential keys.
func NewServeLoad(cfg ServeConfig, preloaded int) *ServeLoad {
	cfg = cfg.normalize()
	return &ServeLoad{
		cfg: cfg,
		gen: newMixGen(cfg.Mix, cfg.KeySpace, NewMixedState(preloaded)),
		Rec: NewServeRecorder(cfg.Tenants),
	}
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

// Client runs one client (id) against the dialer until the duration
// elapses, closed- or open-loop per the config. clk spawns the open-loop
// receiver runner; the closed loop never uses it.
func (l *ServeLoad) Client(r *vclock.Runner, clk *vclock.Clock, d Dialer, id int) {
	if l.cfg.OpenLoop {
		l.openLoop(r, clk, d, id)
	} else {
		l.closedLoop(r, d, id)
	}
}

// send frames req into a buffer of the connection's and transmits it,
// booking it as sent. The connection owns the frame from here, which is
// what lets a client send its next request before this one is answered.
func (l *ServeLoad) send(r *vclock.Runner, conn *rpc.Conn, req *rpc.Request, tenant int) error {
	frame := rpc.AppendRequest(conn.Buffer(), req)
	l.Rec.stats.Sent++
	l.Rec.stats.Tenants[tenant].Sent++
	return conn.Send(r, frame)
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

// next parks for the next reply. The response aliases the frame it came
// in and is valid until the following call, which is where that frame
// goes back to the connection — once the decoder has nothing left to read
// in it. The error is errStreamEnded at EOF, anything else for a corrupt
// stream.
func (s *replyStream) next(r *vclock.Runner) (*rpc.Response, error) {
	for {
		payload, ok, err := s.dec.Next()
		if err != nil {
			return nil, err
		}
		if ok {
			if err := rpc.DecodeResponse(payload, &s.resp); err != nil {
				return nil, err
			}
			return &s.resp, nil
		}
		s.conn.Release(s.chunk)
		s.chunk = nil
		data, _, alive := s.conn.Recv(r)
		if !alive {
			return nil, errStreamEnded
		}
		s.dec.Feed(data)
		s.chunk = data
	}
}

// call sends req and blocks for its response — the closed-loop inner
// step — returning the response's status. ok is false when the
// connection died.
func (l *ServeLoad) call(r *vclock.Runner, replies *replyStream, req *rpc.Request, tenant int) (status byte, ok bool) {
	t0 := r.Now()
	if err := l.send(r, replies.conn, req, tenant); err != nil {
		l.Rec.stats.Dropped++
		return 0, false
	}
	resp, err := replies.next(r)
	if err != nil {
		if err != errStreamEnded {
			l.Rec.stats.TornFrames++
		}
		l.Rec.stats.Dropped++
		return 0, false
	}
	l.Rec.record(r.Now().Sub(t0), resp, tenant)
	return resp.Status, true
}

// closedLoop is the capacity-probing client: one op in flight, the next
// issued when the reply lands. Everything a request needs — the struct,
// its key and value, the reply — is the client's own and built over
// again for each request; the frames are the connection's.
func (l *ServeLoad) closedLoop(r *vclock.Runner, d Dialer, id int) {
	conn := d.Connect(r, fmt.Sprintf("client.%d", id))
	if conn == nil {
		l.Rec.stats.ConnFailed++
		return
	}
	defer conn.Close()
	replies := &replyStream{conn: conn}
	rng := rand.New(rand.NewSource(l.cfg.Seed + int64(id)*7919))
	tenant := id % l.cfg.Tenants
	deadline := r.Now().Add(l.cfg.Duration)
	var (
		buf scratch
		req rpc.Request
		seq uint64
	)
	for deadline.Sub(r.Now()) > 0 {
		q := l.gen.next(rng)
		if q.kind == opRMW {
			// The read half first: a GET of the key the update half writes.
			l.buildRequest(&req, &buf, request{kind: opRead, key: q.key}, reqID(id, seq), uint8(tenant))
			seq++
			if _, ok := l.call(r, replies, &req, tenant); !ok {
				return
			}
		}
		put := l.buildRequest(&req, &buf, q, reqID(id, seq), uint8(tenant))
		seq++
		status, ok := l.call(r, replies, &req, tenant)
		if !ok {
			return
		}
		l.Rec.noteAcked(put, status)
	}
}

// openState tracks an open-loop client's in-flight requests.
type openState struct {
	outstanding map[uint64]openRequest // by request ID
}

// openRequest is what the receiver needs to book a reply: when the
// request was sent, and the key number it PUT (-1 for the rest).
type openRequest struct {
	t0  vclock.Time
	put int
}

// openLoop is the offered-load client: a sender issuing one request per
// interval on schedule (with catch-up, so the offered rate holds through
// server-side queueing) and a receiver runner booking replies as they
// arrive, any order.
func (l *ServeLoad) openLoop(r *vclock.Runner, clk *vclock.Clock, d Dialer, id int) {
	conn := d.Connect(r, fmt.Sprintf("client.%d", id))
	if conn == nil {
		l.Rec.stats.ConnFailed++
		return
	}
	tenant := id % l.cfg.Tenants
	st := &openState{outstanding: make(map[uint64]openRequest)}

	clk.Go(fmt.Sprintf("client.%d.recv", id), func(rr *vclock.Runner) {
		replies := &replyStream{conn: conn}
		for {
			resp, err := replies.next(rr)
			if err != nil {
				if err != errStreamEnded {
					l.Rec.stats.TornFrames++
				}
				return
			}
			sent, known := st.outstanding[resp.ID]
			delete(st.outstanding, resp.ID)
			if known {
				l.Rec.record(rr.Now().Sub(sent.t0), resp, tenant)
				l.Rec.noteAcked(sent.put, resp.Status)
			}
		}
	})

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
		if err := l.send(r, conn, &req, tenant); err != nil {
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
