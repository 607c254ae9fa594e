package rpc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"kvaccel/internal/encoding"
)

// randRequest builds a random request of any opcode. Keys are non-empty;
// values may be empty.
func randRequest(rng *rand.Rand) *Request {
	req := &Request{
		ID:     rng.Uint64(),
		Tenant: uint8(rng.Intn(8)),
		Op:     byte(rng.Intn(5)) + OpPut,
	}
	switch req.Op {
	case OpPut:
		req.Key = randBytes(rng, 1, 32)
		req.Value = randBytes(rng, 0, 128)
	case OpGet, OpDelete:
		req.Key = randBytes(rng, 1, 32)
	case OpScan:
		req.Key = randBytes(rng, 1, 32)
		req.Limit = uint32(rng.Intn(1000))
	case OpBatch:
		n := rng.Intn(8)
		for i := 0; i < n; i++ {
			op := BatchOp{Key: randBytes(rng, 1, 32)}
			if rng.Intn(2) == 0 {
				op.Op = OpPut
				op.Value = randBytes(rng, 0, 64)
			} else {
				op.Op = OpDelete
			}
			req.Ops = append(req.Ops, op)
		}
	}
	return req
}

func randResponse(rng *rand.Rand) *Response {
	resp := &Response{
		ID:     rng.Uint64(),
		Status: byte(rng.Intn(4)),
		Timing: Timing{
			AcceptNS: rng.Uint64() >> uint(rng.Intn(64)),
			LingerNS: rng.Uint64() >> uint(rng.Intn(64)),
			EngineNS: rng.Uint64() >> uint(rng.Intn(64)),
			ReplyNS:  rng.Uint64() >> uint(rng.Intn(64)),
		},
	}
	switch rng.Intn(3) {
	case 0:
		resp.Value = randBytes(rng, 0, 128)
	case 1:
		n := rng.Intn(6)
		for i := 0; i < n; i++ {
			resp.Entries = append(resp.Entries, ScanEntry{
				Key:   randBytes(rng, 1, 32),
				Value: randBytes(rng, 0, 64),
			})
		}
	}
	return resp
}

func randBytes(rng *rand.Rand, min, max int) []byte {
	n := min
	if max > min {
		n += rng.Intn(max - min + 1)
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// bytes.Equal, not DeepEqual: the decoder returns empty slices where the
// encoder saw nil, and that difference is not a wire-format defect.
func equalRequests(a, b *Request) bool {
	if a.ID != b.ID || a.Tenant != b.Tenant || a.Op != b.Op || a.Limit != b.Limit {
		return false
	}
	if !bytes.Equal(a.Key, b.Key) || !bytes.Equal(a.Value, b.Value) {
		return false
	}
	if len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		if a.Ops[i].Op != b.Ops[i].Op ||
			!bytes.Equal(a.Ops[i].Key, b.Ops[i].Key) ||
			!bytes.Equal(a.Ops[i].Value, b.Ops[i].Value) {
			return false
		}
	}
	return true
}

func equalResponses(a, b *Response) bool {
	if a.ID != b.ID || a.Status != b.Status || a.Timing != b.Timing {
		return false
	}
	if !bytes.Equal(a.Value, b.Value) {
		return false
	}
	if len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if !bytes.Equal(a.Entries[i].Key, b.Entries[i].Key) ||
			!bytes.Equal(a.Entries[i].Value, b.Entries[i].Value) {
			return false
		}
	}
	return true
}

// TestCodecRoundTripProperty: for 20 seeds, a stream of random requests
// and responses encoded back-to-back decodes — through the incremental
// Decoder, fed in random-sized chunks — to the same messages in order.
func TestCodecRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		var reqs []*Request
		var resps []*Response
		var wire []byte
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				req := randRequest(rng)
				reqs = append(reqs, req)
				wire = AppendRequest(wire, req)
			} else {
				reqs = append(reqs, nil)
				resp := randResponse(rng)
				resps = append(resps, resp)
				wire = AppendResponse(wire, resp)
			}
		}

		var dec Decoder
		ri, pi := 0, 0
		for off := 0; off < len(wire); {
			chunk := 1 + rng.Intn(64)
			if off+chunk > len(wire) {
				chunk = len(wire) - off
			}
			dec.Feed(wire[off : off+chunk])
			off += chunk
			for {
				payload, ok, err := dec.Next()
				if err != nil {
					t.Fatalf("seed %d: unexpected decode error: %v", seed, err)
				}
				if !ok {
					break
				}
				if ri < len(reqs) && reqs[ri] != nil {
					got := &Request{}
					if derr := DecodeRequest(payload, got); derr != nil {
						t.Fatalf("seed %d msg %d: DecodeRequest: %v", seed, ri, derr)
					}
					if !equalRequests(reqs[ri], got) {
						t.Fatalf("seed %d msg %d: request mismatch:\nsent %+v\ngot  %+v", seed, ri, reqs[ri], got)
					}
				} else {
					got := &Response{}
					if derr := DecodeResponse(payload, got); derr != nil {
						t.Fatalf("seed %d msg %d: DecodeResponse: %v", seed, ri, derr)
					}
					if !equalResponses(resps[pi], got) {
						t.Fatalf("seed %d msg %d: response mismatch:\nsent %+v\ngot  %+v", seed, ri, resps[pi], got)
					}
					pi++
				}
				ri++
			}
		}
		if ri != n {
			t.Fatalf("seed %d: decoded %d of %d messages", seed, ri, n)
		}
		if dec.Buffered() != 0 {
			t.Fatalf("seed %d: %d stray bytes left buffered", seed, dec.Buffered())
		}
	}
}

// TestDecoderTornTail: cut the wire stream at an arbitrary byte. Every
// frame that fits entirely before the cut decodes; then the decoder
// reports a clean stop (ok=false, err=nil) — a torn tail is an
// incomplete message, never an error and never garbage.
func TestDecoderTornTail(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		n := 3 + rng.Intn(10)
		var wire []byte
		var ends []int // cumulative end offset of each frame
		for i := 0; i < n; i++ {
			wire = AppendRequest(wire, randRequest(rng))
			ends = append(ends, len(wire))
		}
		cut := 1 + rng.Intn(len(wire)-1)
		wantFrames := 0
		for _, end := range ends {
			if end <= cut {
				wantFrames++
			}
		}

		var dec Decoder
		// Feed the truncated stream in random chunks.
		for off := 0; off < cut; {
			chunk := 1 + rng.Intn(32)
			if off+chunk > cut {
				chunk = cut - off
			}
			dec.Feed(wire[off : off+chunk])
			off += chunk
		}
		got := 0
		for {
			_, ok, err := dec.Next()
			if err != nil {
				t.Fatalf("seed %d: torn tail must not error, got %v", seed, err)
			}
			if !ok {
				break
			}
			got++
		}
		if got != wantFrames {
			t.Fatalf("seed %d: cut=%d decoded %d frames, want %d", seed, cut, got, wantFrames)
		}
		// The stop is stable: more Next calls keep reporting a clean wait.
		if _, ok, err := dec.Next(); ok || err != nil {
			t.Fatalf("seed %d: stop not stable: ok=%v err=%v", seed, ok, err)
		}
	}
}

// TestDecoderCorruptPoison: a flipped byte inside a frame payload yields
// every frame before it, then ErrTornFrame forever — the stream never
// resynchronizes past corruption, exactly like WAL replay.
func TestDecoderCorruptPoison(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		n := 3 + rng.Intn(8)
		var wire []byte
		var starts, lens []int
		for i := 0; i < n; i++ {
			start := len(wire)
			wire = AppendRequest(wire, randRequest(rng))
			starts = append(starts, start)
			lens = append(lens, len(wire)-start-encoding.FrameHeader)
		}
		victim := rng.Intn(n)
		// Flip a byte strictly inside the victim's payload so the CRC check
		// is what trips (corrupting the length prefix could instead look
		// like an incomplete frame).
		pos := starts[victim] + encoding.FrameHeader + rng.Intn(lens[victim])
		wire[pos] ^= 0x5a

		var dec Decoder
		dec.Feed(wire)
		got := 0
		var gotErr error
		for {
			_, ok, err := dec.Next()
			if err != nil {
				gotErr = err
				break
			}
			if !ok {
				break
			}
			got++
		}
		if got != victim {
			t.Fatalf("seed %d: decoded %d frames before corruption at frame %d", seed, got, victim)
		}
		if !errors.Is(gotErr, ErrTornFrame) {
			t.Fatalf("seed %d: want ErrTornFrame, got %v", seed, gotErr)
		}
		// Poison is permanent.
		for i := 0; i < 3; i++ {
			if _, ok, err := dec.Next(); ok || !errors.Is(err, ErrTornFrame) {
				t.Fatalf("seed %d: poison not sticky: ok=%v err=%v", seed, ok, err)
			}
		}
	}
}
