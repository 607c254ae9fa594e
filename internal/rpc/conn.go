package rpc

import (
	"errors"
	"time"

	"kvaccel/internal/vclock"
)

// ErrClosed is returned by Send on a closed connection.
var ErrClosed = errors.New("rpc: connection closed")

// NetConfig models one network hop between a client and the serving
// host: per-direction propagation latency, serialization bandwidth, and
// a bounded in-flight frame buffer (the socket buffer — a full buffer
// backpressures the sender in virtual time).
type NetConfig struct {
	// Latency is the one-way propagation delay added to every frame.
	Latency time.Duration
	// Bandwidth is the per-direction serialization rate in bytes/second;
	// 0 means infinite (no transmit time).
	Bandwidth float64
	// Buffer is the per-direction in-flight frame capacity (minimum 1).
	Buffer int
}

// DefaultNetConfig models an intra-datacenter hop: 50µs one-way, 10GbE,
// a 64-frame socket buffer.
func DefaultNetConfig() NetConfig {
	return NetConfig{Latency: 50 * time.Microsecond, Bandwidth: 1.25e9, Buffer: 64}
}

func (c NetConfig) normalize() NetConfig {
	if c.Buffer < 1 {
		c.Buffer = 1
	}
	return c
}

// transmitTime returns the serialization delay for n bytes.
func (c NetConfig) transmitTime(n int) time.Duration {
	if c.Bandwidth <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / c.Bandwidth * float64(time.Second))
}

// frame is one in-flight wire frame.
type frame struct {
	data []byte
	// sentAt is when the last byte leaves the sender; readyAt is when it
	// arrives at the receiver (sentAt + propagation).
	sentAt  vclock.Time
	readyAt vclock.Time
}

// halfConn is one direction of a connection: a bounded frame queue with
// close-tolerant semantics (a parked sender wakes with ErrClosed instead
// of panicking, a parked receiver drains the queue then sees EOF).
type halfConn struct {
	cfg NetConfig

	items vclock.Ring[frame] // at most cfg.Buffer; nothing until the first frame
	// nicFree is when the sender's NIC has serialized every frame handed
	// to it so far. Transmit time is booked against it instead of slept:
	// the sender's next frame starts no earlier, and the sender itself
	// goes on, as a process does once the socket buffer has its bytes.
	nicFree  vclock.Time
	closed   bool
	notEmpty *vclock.Cond
	notFull  *vclock.Cond
}

func newHalfConn(cfg NetConfig, label string) *halfConn {
	h := &halfConn{cfg: cfg}
	h.notEmpty = vclock.NewCond(label + ".recv")
	h.notFull = vclock.NewCond(label + ".send")
	return h
}

func sendRoom(half any) bool {
	h := half.(*halfConn)
	return h.items.Len() < h.cfg.Buffer || h.closed
}

// close marks the half closed. In-flight frames stay deliverable (like
// data queued before a FIN); truncate additionally tears the newest one
// mid-frame — the abrupt-drop model the torn tail tests exercise. The torn
// frame is the same buffer, shortened: it still has exactly one owner.
func (h *halfConn) close(truncate bool) {
	if !h.closed {
		h.closed = true
		if truncate && h.items.Len() > 0 {
			last := h.items.At(h.items.Len() - 1)
			if len(last.data) > 1 {
				last.data = last.data[:len(last.data)/2]
			}
		}
	}
	h.notEmpty.Broadcast()
	h.notFull.Broadcast()
}

// Conn is one endpoint of a simulated full-duplex connection. Both
// endpoints share the two directional halves; every frame is charged
// transmit and propagation time on the virtual clock.
//
// The connection owns the wire buffers. A frame has one owner at a time:
// the sender while it encodes, the connection from Send until Recv, the
// receiver until Release — and Release files the buffer with the
// receiving endpoint, whose next Buffer call takes it to encode into. In
// a request/response exchange one buffer thus travels client → server,
// another server → client, and neither side allocates per message.
type Conn struct {
	out *halfConn
	in  *halfConn

	free [][]byte // released frames, empty, for this endpoint's next encodes
}

// NewPair returns the two endpoints of a new connection over cfg.
func NewPair(cfg NetConfig, label string) (client, server *Conn) {
	cfg = cfg.normalize()
	c2s := newHalfConn(cfg, label+".c2s")
	s2c := newHalfConn(cfg, label+".s2c")
	return &Conn{out: c2s, in: s2c}, &Conn{out: s2c, in: c2s}
}

// Buffer returns an empty buffer to encode the next outgoing frame into:
// one the peer's frames arrived in and this endpoint has released, or nil
// (append allocates) when none is free. The caller owns it until it hands
// it to Send.
func (c *Conn) Buffer() []byte {
	n := len(c.free)
	if n == 0 {
		return nil
	}
	b := c.free[n-1]
	c.free[n-1] = nil
	c.free = c.free[:n-1]
	return b
}

// Send transmits one wire frame (already CRC-framed by the codec) and
// takes ownership of it: the caller must not read or write data again,
// whatever Send returns. Transmit time is booked on the connection, not
// slept, so Send parks only while the socket buffer is full. It returns
// ErrClosed once either side has closed the direction.
func (c *Conn) Send(r *vclock.Runner, data []byte) error {
	for {
		if done, err := c.SendStep(r, data); done {
			return err
		}
		r.Park()
	}
}

// SendStep is Send as a stepped primitive (see vclock.Clock.GoTask): it
// reports done, with Send's result, once data is queued or refused, and
// otherwise parks r while the buffer is full; the caller hands the baton
// on and calls again with the same data. data is the connection's only
// once SendStep is done.
func (c *Conn) SendStep(r *vclock.Runner, data []byte) (done bool, err error) {
	h := c.out
	if !h.notFull.WaitUntilStep(r, sendRoom, h) {
		return false, nil
	}
	if h.closed {
		return true, ErrClosed
	}
	// Serialization: the frame leaves once the NIC is through with the
	// connection's earlier frames and with this one, so a connection's
	// frames rate-limit naturally.
	sentAt := max(r.Now(), h.nicFree).Add(h.cfg.transmitTime(len(data)))
	h.nicFree = sentAt
	readyAt := sentAt.Add(h.cfg.Latency)
	h.items.Push(frame{data: data, sentAt: sentAt, readyAt: readyAt})
	// Propagation: a receiver parked on the empty queue sleeps straight
	// through to the arrival, in the park it is already in.
	h.notEmpty.SignalAt(readyAt)
	return true, nil
}

// Recv returns the next frame's bytes and the virtual time its last byte
// left the sender. ok is false at EOF (peer closed and queue drained).
// Recv parks until the frame has arrived, propagation delay included — in
// one park when the receiver was already waiting as the frame was sent.
//
// The frame is lent, not given: the receiver may read it, and whatever it
// decoded out of it, until it calls Release; it must not write to it.
func (c *Conn) Recv(r *vclock.Runner) (data []byte, sentAt vclock.Time, ok bool) {
	for {
		if data, sentAt, ok, done := c.RecvStep(r); done {
			return data, sentAt, ok
		}
		r.Park()
	}
}

// RecvStep is Recv as a stepped primitive: it reports done, with Recv's
// results, once a frame has arrived or the connection is at EOF, and
// otherwise parks r until something may have changed; the caller hands the
// baton on and calls again.
func (c *Conn) RecvStep(r *vclock.Runner) (data []byte, sentAt vclock.Time, ok, done bool) {
	h := c.in
	if h.items.Len() > 0 {
		// Propagation: the frame is not visible before it arrives. A
		// receiver that was busy when it was sent had no wake scheduled
		// for it and sleeps out the remainder here.
		if readyAt := h.items.At(0).readyAt; r.Now() < readyAt {
			r.SleepUntilStep(readyAt)
			return nil, 0, false, false
		}
		fr := h.items.Pop()
		h.notFull.Signal()
		return fr.data, fr.sentAt, true, true
	}
	if h.closed {
		return nil, 0, false, true
	}
	h.notEmpty.WaitStep(r)
	return nil, 0, false, false
}

// Release ends the loan of a frame Recv returned: every message decoded
// from it is invalid from here on. The buffer is kept for this endpoint's
// next Buffer call; at most NetConfig.Buffer are kept, the rest are left
// to the garbage collector. A receiver that never releases leaks nothing —
// its peer's encodes allocate instead.
func (c *Conn) Release(data []byte) {
	if cap(data) == 0 {
		return
	}
	if len(c.free) < c.out.cfg.Buffer {
		c.free = append(c.free, data[:0])
	}
}

// Close shuts both directions down cleanly: frames already in flight
// remain deliverable, then receivers see EOF.
func (c *Conn) Close() {
	c.out.close(false)
	c.in.close(false)
}

// Abort models an abrupt connection drop: both directions close, and the
// newest undelivered frame in each is truncated mid-frame, so the peer's
// decoder exercises its torn-tail path.
func (c *Conn) Abort() {
	c.out.close(true)
	c.in.close(true)
}
