package rpc

import (
	"fmt"
	"testing"

	"kvaccel/internal/encoding"
)

// raceEnabled is set by race_test.go when the race detector is on: its
// instrumentation allocates, so allocation counts mean nothing.
var raceEnabled bool

func gateMessages(valueSize int) (*Request, *Response) {
	value := make([]byte, valueSize)
	req := &Request{ID: 1<<40 | 7, Tenant: 3, Op: OpPut, Key: []byte("0000000000000042"), Value: value}
	resp := &Response{ID: 1<<40 | 7, Status: StatusOK, Value: value, Timing: Timing{AcceptNS: 1200, LingerNS: 67000, EngineNS: 31000, ReplyNS: 150}}
	return req, resp
}

// TestAllocsCodec pins the codec's garbage at none: a frame is encoded
// where it will lie, so into a buffer with room AppendRequest and
// AppendResponse allocate nothing; a message decodes into a struct the
// caller reuses, aliasing the frame; and the stream decoder yields a
// frame that lies whole in its chunk out of that chunk. A batch and a
// scan reuse their struct's arrays the same way.
func TestAllocsCodec(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	req, resp := gateMessages(128)
	batch := &Request{ID: 9, Op: OpBatch}
	scan := &Response{ID: 9}
	for i := 0; i < 16; i++ {
		batch.Ops = append(batch.Ops, BatchOp{Op: OpPut, Key: []byte("key"), Value: []byte("value")})
		scan.Entries = append(scan.Entries, ScanEntry{Key: []byte("key"), Value: []byte("value")})
	}
	buf := make([]byte, 0, 4096)
	var (
		dec     Decoder
		gotReq  Request
		gotResp Response
	)
	steps := []struct {
		name string
		fn   func()
	}{
		{"AppendRequest", func() { buf = AppendRequest(buf[:0], req) }},
		{"AppendResponse", func() { buf = AppendResponse(buf[:0], resp) }},
		{"AppendRequest, 16-op batch", func() { buf = AppendRequest(buf[:0], batch) }},
		{"request round trip through the Decoder", func() {
			dec.Feed(AppendRequest(buf[:0], req))
			payload, ok, err := dec.Next()
			if !ok || err != nil || DecodeRequest(payload, &gotReq) != nil || gotReq.ID != req.ID {
				t.Fatal("request did not round-trip")
			}
			if _, ok, _ := dec.Next(); ok {
				t.Fatal("a second frame")
			}
		}},
		{"response round trip through the Decoder", func() {
			dec.Feed(AppendResponse(buf[:0], resp))
			payload, ok, err := dec.Next()
			if !ok || err != nil || DecodeResponse(payload, &gotResp) != nil || gotResp.ID != resp.ID {
				t.Fatal("response did not round-trip")
			}
			dec.Next()
		}},
		{"batch and scan into reused arrays", func() {
			frame := AppendRequest(buf[:0], batch)
			if DecodeRequest(frame[encoding.FrameHeader:], &gotReq) != nil || len(gotReq.Ops) != 16 {
				t.Fatal("batch did not round-trip")
			}
			frame = AppendResponse(buf[:0], scan)
			if DecodeResponse(frame[encoding.FrameHeader:], &gotResp) != nil || len(gotResp.Entries) != 16 {
				t.Fatal("scan did not round-trip")
			}
		}},
	}
	for _, s := range steps {
		s.fn() // arrays reach their size
		if allocs := testing.AllocsPerRun(100, s.fn); allocs != 0 {
			t.Errorf("%s: %v allocations, want 0", s.name, allocs)
		}
	}
}

// BenchmarkCodec is one message through the codec: encoded into a reused
// buffer, its frame checksummed by the stream decoder, decoded into a
// reused struct.
func BenchmarkCodec(b *testing.B) {
	for _, size := range []int{128, 4096} {
		req, resp := gateMessages(size)
		buf := make([]byte, 0, size+256)
		var dec Decoder
		b.Run(fmt.Sprintf("request/value=%d", size), func(b *testing.B) {
			var got Request
			b.ReportAllocs()
			b.SetBytes(int64(len(AppendRequest(nil, req))))
			for i := 0; i < b.N; i++ {
				dec.Feed(AppendRequest(buf[:0], req))
				payload, _, _ := dec.Next()
				if err := DecodeRequest(payload, &got); err != nil {
					b.Fatal(err)
				}
				dec.Next()
			}
		})
		b.Run(fmt.Sprintf("response/value=%d", size), func(b *testing.B) {
			var got Response
			b.ReportAllocs()
			b.SetBytes(int64(len(AppendResponse(nil, resp))))
			for i := 0; i < b.N; i++ {
				dec.Feed(AppendResponse(buf[:0], resp))
				payload, _, _ := dec.Next()
				if err := DecodeResponse(payload, &got); err != nil {
					b.Fatal(err)
				}
				dec.Next()
			}
		})
	}
}
