// Package rpc is the wire layer of the KVACCEL serving tier: a
// length-prefixed binary codec for KV requests and responses, plus a
// virtual-clock-native simulated connection (conn.go) that charges
// per-hop latency and bandwidth on the shared clock.
//
// Every message travels in the checksummed frame the WAL and the value
// log use (encoding.BeginFrame, SealFrame, NextFrame):
//
//	u32 payload-len | u32 crc32c(payload) | payload
//
// and a stream decoder keeps the longest checksummed prefix — a torn
// tail (connection cut mid-frame) yields the frames fully received, then
// a clean stop, never a garbage message, just as WAL replay keeps the
// longest checked prefix of a torn log.
package rpc

import (
	"errors"
	"fmt"

	"kvaccel/internal/encoding"
)

// Opcodes. One request frame carries one opcode; OpBatch nests a list of
// write sub-ops that commit atomically per shard.
const (
	OpPut byte = iota + 1
	OpGet
	OpDelete
	OpScan
	OpBatch
)

// OpName returns the opcode's wire name.
func OpName(op byte) string {
	switch op {
	case OpPut:
		return "PUT"
	case OpGet:
		return "GET"
	case OpDelete:
		return "DELETE"
	case OpScan:
		return "SCAN"
	case OpBatch:
		return "BATCH"
	}
	return fmt.Sprintf("OP(%d)", op)
}

// Response status codes.
const (
	StatusOK byte = iota
	StatusNotFound
	// StatusRetryLater is the admission-control shed signal: the server
	// refused the request before it touched the engine. The client should
	// back off and retry; nothing was written.
	StatusRetryLater
	StatusErr
)

// StatusName returns the status code's wire name.
func StatusName(s byte) string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusRetryLater:
		return "RETRY_LATER"
	case StatusErr:
		return "ERR"
	}
	return fmt.Sprintf("STATUS(%d)", s)
}

// BatchOp is one write inside an OpBatch request: OpPut or OpDelete.
type BatchOp struct {
	Op    byte
	Key   []byte
	Value []byte
}

// Request is one client request. ID is a client-chosen correlation id
// echoed in the response; Tenant labels the request for per-tenant
// admission accounting.
type Request struct {
	ID     uint64
	Tenant uint8
	Op     byte
	Key    []byte
	Value  []byte    // OpPut payload
	Limit  uint32    // OpScan: max entries returned
	Ops    []BatchOp // OpBatch sub-operations
}

// ScanEntry is one key/value pair in a scan response.
type ScanEntry struct {
	Key   []byte
	Value []byte
}

// Timing is the server-side residency breakdown a response carries back
// to the client (nanoseconds of virtual time): time waiting in the
// accept/socket queue before the handler decoded the request, time
// lingering in the cross-connection batcher, time inside the engine
// call, and time queued for the reply writer. The client adds the two
// network hops as (observed latency − sum), so the per-phase
// decomposition sums to the client-observed latency exactly.
type Timing struct {
	AcceptNS uint64
	LingerNS uint64
	EngineNS uint64
	ReplyNS  uint64
}

// Sum returns the total server-side residency in nanoseconds.
func (t Timing) Sum() uint64 { return t.AcceptNS + t.LingerNS + t.EngineNS + t.ReplyNS }

// Response is one server response. Value is set for a successful OpGet;
// Entries for an OpScan.
type Response struct {
	ID      uint64
	Status  byte
	Value   []byte
	Entries []ScanEntry
	Timing  Timing
}

// MaxFrame bounds a frame payload; a length prefix beyond it is treated
// as corruption. The bound is rpc's own, not the frame format's: a
// length prefix read off the network is untrusted input.
const MaxFrame = 1 << 20

// AppendRequest appends req's frame to dst, encoding it in place: with
// room in dst it allocates nothing. It keeps no reference to req.
func AppendRequest(dst []byte, req *Request) []byte {
	start := len(dst)
	dst = encoding.BeginFrame(dst)
	dst = append(dst, req.Op, req.Tenant)
	dst = encoding.PutU64(dst, req.ID)
	switch req.Op {
	case OpPut:
		dst = encoding.AppendRecord(dst, req.Key, req.Value)
	case OpGet, OpDelete:
		dst = encoding.AppendRecord(dst, req.Key, nil)
	case OpScan:
		dst = encoding.AppendRecord(dst, req.Key, nil)
		dst = encoding.PutUvarint(dst, uint64(req.Limit))
	case OpBatch:
		dst = encoding.PutUvarint(dst, uint64(len(req.Ops)))
		for i := range req.Ops {
			op := &req.Ops[i]
			dst = append(dst, op.Op)
			dst = encoding.AppendRecord(dst, op.Key, op.Value)
		}
	}
	encoding.SealFrame(dst, start)
	return dst
}

// minBatchOpBytes and minScanEntryBytes are the smallest encodings of a
// batch sub-op (opcode, two length varints) and a scan entry (two length
// varints). A count field is untrusted: it may promise no more elements
// than the bytes behind it could hold, and only then sizes anything.
const (
	minBatchOpBytes   = 3
	minScanEntryBytes = 2
)

// DecodeRequest parses one request payload (a frame body whose CRC the
// stream decoder has verified) into req, overwriting every field. Key,
// Value and the sub-ops' keys and values alias payload, so req is valid
// only as long as payload is; req.Ops reuses its backing array, which
// lets one Request decode any number of frames without allocating. After
// an error req holds nothing meaningful.
func DecodeRequest(payload []byte, req *Request) error {
	ops := req.Ops[:0]
	*req = Request{}
	if len(payload) < 10 {
		return encoding.ErrCorrupt
	}
	req.Op, req.Tenant = payload[0], payload[1]
	id, rest, err := encoding.U64(payload[2:])
	if err != nil {
		return err
	}
	req.ID = id
	switch req.Op {
	case OpPut:
		req.Key, req.Value, _, err = encoding.DecodeRecord(rest)
	case OpGet, OpDelete:
		req.Key, _, _, err = encoding.DecodeRecord(rest)
	case OpScan:
		var limit uint64
		req.Key, _, rest, err = encoding.DecodeRecord(rest)
		if err == nil {
			limit, _, err = encoding.Uvarint(rest)
			req.Limit = uint32(limit)
		}
	case OpBatch:
		var n uint64
		n, rest, err = encoding.Uvarint(rest)
		if err != nil {
			return err
		}
		if n > uint64(len(rest))/minBatchOpBytes {
			return encoding.ErrCorrupt
		}
		if uint64(cap(ops)) < n {
			ops = make([]BatchOp, 0, n)
		}
		for i := uint64(0); i < n; i++ {
			if len(rest) < 1 {
				return encoding.ErrCorrupt
			}
			op := BatchOp{Op: rest[0]}
			op.Key, op.Value, rest, err = encoding.DecodeRecord(rest[1:])
			if err != nil {
				return err
			}
			ops = append(ops, op)
		}
		req.Ops = ops
	default:
		return encoding.ErrCorrupt
	}
	return err
}

// AppendResponse appends resp's frame to dst, encoding it in place: with
// room in dst it allocates nothing. The value and the entries are copied
// into the frame here, and no reference to resp is kept.
func AppendResponse(dst []byte, resp *Response) []byte {
	start := len(dst)
	dst = encoding.BeginFrame(dst)
	dst = append(dst, resp.Status)
	dst = encoding.PutU64(dst, resp.ID)
	dst = encoding.PutUvarint(dst, resp.Timing.AcceptNS)
	dst = encoding.PutUvarint(dst, resp.Timing.LingerNS)
	dst = encoding.PutUvarint(dst, resp.Timing.EngineNS)
	dst = encoding.PutUvarint(dst, resp.Timing.ReplyNS)
	dst = encoding.AppendRecord(dst, nil, resp.Value)
	dst = encoding.PutUvarint(dst, uint64(len(resp.Entries)))
	for i := range resp.Entries {
		dst = encoding.AppendRecord(dst, resp.Entries[i].Key, resp.Entries[i].Value)
	}
	encoding.SealFrame(dst, start)
	return dst
}

// DecodeResponse parses one response payload into resp, overwriting
// every field. Value and the entries' keys and values alias payload, so
// resp is valid only as long as payload is; resp.Entries reuses its
// backing array. After an error resp holds nothing meaningful.
func DecodeResponse(payload []byte, resp *Response) error {
	entries := resp.Entries[:0]
	*resp = Response{}
	if len(payload) < 9 {
		return encoding.ErrCorrupt
	}
	resp.Status = payload[0]
	id, rest, err := encoding.U64(payload[1:])
	if err != nil {
		return err
	}
	resp.ID = id
	if resp.Timing.AcceptNS, rest, err = encoding.Uvarint(rest); err != nil {
		return err
	}
	if resp.Timing.LingerNS, rest, err = encoding.Uvarint(rest); err != nil {
		return err
	}
	if resp.Timing.EngineNS, rest, err = encoding.Uvarint(rest); err != nil {
		return err
	}
	if resp.Timing.ReplyNS, rest, err = encoding.Uvarint(rest); err != nil {
		return err
	}
	if _, resp.Value, rest, err = encoding.DecodeRecord(rest); err != nil {
		return err
	}
	n, rest, err := encoding.Uvarint(rest)
	if err != nil {
		return err
	}
	if n > uint64(len(rest))/minScanEntryBytes {
		return encoding.ErrCorrupt
	}
	if n > 0 {
		if uint64(cap(entries)) < n {
			entries = make([]ScanEntry, 0, n)
		}
		for i := uint64(0); i < n; i++ {
			var e ScanEntry
			if e.Key, e.Value, rest, err = encoding.DecodeRecord(rest); err != nil {
				return err
			}
			entries = append(entries, e)
		}
		resp.Entries = entries
	}
	return nil
}

// ErrTornFrame is returned by Decoder.Next for a frame whose bytes are
// present but whose checksum does not match — mid-stream corruption, as
// opposed to a cleanly incomplete tail.
var ErrTornFrame = errors.New("rpc: torn or corrupt frame")

// Decoder is an incremental frame decoder over a byte stream. Feed hands
// it the next chunk of received bytes; Next yields complete,
// checksum-verified frame payloads. An incomplete tail simply waits for
// more bytes; a frame that fails its CRC (or an absurd length prefix)
// poisons the stream — every later Next returns ErrTornFrame, exactly
// like WAL replay refusing to read past a torn record.
//
// The decoder copies only what it must. A frame that lies whole inside
// one chunk — every frame, when the sender hands whole frames to a Conn —
// is yielded in place, out of the chunk. Only the bytes of a frame that
// straddles chunks are copied, into memory the decoder allocates for
// that frame and never writes again once it has yielded it.
type Decoder struct {
	chunk  []byte // unread rest of the chunk fed last; the caller's memory
	carry  []byte // head of a frame that began in an earlier chunk; a copy
	poison bool
}

// Feed hands the decoder the next chunk of the stream. The decoder reads
// p in place until Next has reported ok=false (or an error); from then on
// it holds no reference to p.
func (d *Decoder) Feed(p []byte) {
	if len(d.chunk) > 0 {
		// Fed again before the last chunk was drained: keep its rest.
		d.carry = append(d.carry, d.chunk...)
	}
	d.chunk = p
}

// Buffered returns the number of unconsumed bytes held.
func (d *Decoder) Buffered() int { return len(d.carry) + len(d.chunk) }

// frameExtent reports how many bytes the frame at the head of b occupies
// as far as b tells (encoding.FrameLen). bad flags a length prefix
// beyond MaxFrame.
func frameExtent(b []byte) (n int, bad bool) {
	n64 := encoding.FrameLen(b)
	return int(n64), n64 > encoding.FrameHeader+MaxFrame
}

// Next returns the next complete frame payload. ok is false when the
// bytes fed so far hold no further complete frame (cleanly torn tail:
// feed more or stop); err is ErrTornFrame when the stream is corrupt.
//
// The payload is a capacity-clipped view of the chunk it arrived in — or,
// for a frame that straddled chunks, of memory of its own — and the
// decoder never writes to either: a payload stays byte-stable for as
// long as the caller keeps the chunk intact, however many chunks are fed
// after it.
func (d *Decoder) Next() (payload []byte, ok bool, err error) {
	if d.poison {
		return nil, false, ErrTornFrame
	}
	src := &d.chunk
	if len(d.carry) > 0 {
		// Finish the straddling frame from the chunk, a header's worth
		// first (the header says how much more the frame needs).
		src = &d.carry
		for {
			want, bad := frameExtent(d.carry)
			if bad {
				break
			}
			k := min(want-len(d.carry), len(d.chunk))
			if k <= 0 {
				break
			}
			d.carry = append(d.carry, d.chunk[:k]...)
			d.chunk = d.chunk[k:]
		}
	}
	n, bad := frameExtent(*src)
	if bad {
		d.poison = true
		return nil, false, ErrTornFrame
	}
	if len(*src) < n {
		// The bytes fed so far end inside a frame. Whatever the chunk
		// still held of it is copied, and the chunk let go.
		if len(d.carry) == 0 && len(d.chunk) > 0 {
			d.carry = append([]byte(nil), d.chunk...)
		}
		d.chunk = nil
		return nil, false, nil
	}
	payload, *src, ok = encoding.NextFrame(*src)
	if !ok { // the frame is whole, so its checksum failed
		d.poison = true
		return nil, false, ErrTornFrame
	}
	if len(d.carry) == 0 {
		d.carry = nil // the frame just yielded owns that memory now
	}
	return payload, true, nil
}
