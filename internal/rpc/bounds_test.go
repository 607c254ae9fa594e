package rpc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"kvaccel/internal/encoding"
)

// batchPayloadWithCount returns the payload of a BATCH request whose count
// field promises n sub-ops and that carries none.
func batchPayloadWithCount(n uint64) []byte {
	p := []byte{OpBatch, 0}
	p = encoding.PutU64(p, 7)
	return encoding.PutUvarint(p, n)
}

// scanPayloadWithCount is the same lie in a response's entry count.
func scanPayloadWithCount(n uint64) []byte {
	p := []byte{StatusOK}
	p = encoding.PutU64(p, 7)
	for i := 0; i < 4; i++ {
		p = encoding.PutUvarint(p, 0) // timing
	}
	p = encoding.AppendRecord(p, nil, nil) // value
	return encoding.PutUvarint(p, n)
}

// TestDecodeRejectsImpossibleCounts: a count field is an untrusted
// uvarint. Sized as read, 1<<62 panicked the connection's handler
// (makeslice: cap out of range) and 1<<33 asked the runtime for hundreds
// of gigabytes — from a frame of 19 bytes with a correct checksum. A
// count may promise only what the bytes behind it could hold.
func TestDecodeRejectsImpossibleCounts(t *testing.T) {
	for _, n := range []uint64{1, 2, 1 << 20, 1 << 33, 1 << 62, 1<<64 - 1} {
		var req Request
		if err := DecodeRequest(batchPayloadWithCount(n), &req); !errors.Is(err, encoding.ErrCorrupt) {
			t.Errorf("BATCH promising %d sub-ops in 0 bytes: err=%v, want ErrCorrupt", n, err)
		}
		if cap(req.Ops) != 0 {
			t.Errorf("BATCH promising %d sub-ops sized an array of %d", n, cap(req.Ops))
		}
		var resp Response
		if err := DecodeResponse(scanPayloadWithCount(n), &resp); !errors.Is(err, encoding.ErrCorrupt) {
			t.Errorf("response promising %d entries in 0 bytes: err=%v, want ErrCorrupt", n, err)
		}
		if cap(resp.Entries) != 0 {
			t.Errorf("response promising %d entries sized an array of %d", n, cap(resp.Entries))
		}
	}
	// The same frames through the stream decoder, as a connection's handler
	// sees them: the checksum is fine, so it is the message decoder that
	// must refuse.
	var dec Decoder
	dec.Feed(refFrame(nil, batchPayloadWithCount(1<<62)))
	payload, ok, err := dec.Next()
	if !ok || err != nil {
		t.Fatalf("a checksummed frame did not come through: ok=%v err=%v", ok, err)
	}
	if err := DecodeRequest(payload, &Request{}); err == nil {
		t.Error("the 19-byte BATCH frame decoded")
	}
	// A count that is exactly what the bytes hold still decodes.
	honest := &Request{ID: 1, Op: OpBatch, Ops: []BatchOp{{Op: OpDelete, Key: []byte{}}, {Op: OpPut, Key: []byte{}, Value: []byte{}}}}
	var got Request
	if err := DecodeRequest(AppendRequest(nil, honest)[encoding.FrameHeader:], &got); err != nil || len(got.Ops) != 2 {
		t.Errorf("two minimal sub-ops: err=%v ops=%d", err, len(got.Ops))
	}
}

// fuzzSeeds adds the frames of the codec round-trip corpus, whole and
// mutated, to f.
func fuzzSeeds(f *testing.F, requests bool) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 24; i++ {
		var frame []byte
		if requests {
			frame = AppendRequest(nil, randRequest(rng))
		} else {
			frame = AppendResponse(nil, randResponse(rng))
		}
		f.Add(frame[encoding.FrameHeader:])
		cut := append([]byte(nil), frame[encoding.FrameHeader:len(frame)-rng.Intn(len(frame)-encoding.FrameHeader)]...)
		f.Add(cut)
	}
	f.Add(batchPayloadWithCount(1 << 62))
	f.Add(scanPayloadWithCount(1 << 33))
}

// unclipped returns the first of views whose capacity reaches past its
// length — a view through which an append would overwrite the bytes
// behind it — or -1.
func unclipped(views ...[]byte) int {
	for i, v := range views {
		if cap(v) != len(v) {
			return i
		}
	}
	return -1
}

// FuzzDecodeRequest: any payload decodes to a request or an error —
// never a panic, never an array sized beyond what the payload could hold —
// every key and value is a capacity-clipped view of the payload, and a
// request that decodes re-encodes to a payload that decodes to the same
// request.
func FuzzDecodeRequest(f *testing.F) {
	fuzzSeeds(f, true)
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req Request
		if err := DecodeRequest(payload, &req); err != nil {
			return
		}
		if cap(req.Ops) > len(payload)/minBatchOpBytes {
			t.Fatalf("%d-byte payload sized an array of %d sub-ops", len(payload), cap(req.Ops))
		}
		views := [][]byte{req.Key, req.Value}
		for _, op := range req.Ops {
			views = append(views, op.Key, op.Value)
		}
		if i := unclipped(views...); i >= 0 {
			t.Fatalf("%s view %d: len %d, cap %d", OpName(req.Op), i, len(views[i]), cap(views[i]))
		}
		var again Request
		if err := DecodeRequest(AppendRequest(nil, &req)[encoding.FrameHeader:], &again); err != nil || !equalRequests(&req, &again) {
			t.Fatalf("re-encoded request does not round-trip: err=%v\n got %+v\nwant %+v", err, again, req)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for responses.
func FuzzDecodeResponse(f *testing.F) {
	fuzzSeeds(f, false)
	f.Fuzz(func(t *testing.T, payload []byte) {
		var resp Response
		if err := DecodeResponse(payload, &resp); err != nil {
			return
		}
		if cap(resp.Entries) > len(payload)/minScanEntryBytes {
			t.Fatalf("%d-byte payload sized an array of %d entries", len(payload), cap(resp.Entries))
		}
		views := [][]byte{resp.Value}
		for _, e := range resp.Entries {
			views = append(views, e.Key, e.Value)
		}
		if i := unclipped(views...); i >= 0 {
			t.Fatalf("response view %d: len %d, cap %d", i, len(views[i]), cap(views[i]))
		}
		var again Response
		if err := DecodeResponse(AppendResponse(nil, &resp)[encoding.FrameHeader:], &again); err != nil || !equalResponses(&resp, &again) {
			t.Fatalf("re-encoded response does not round-trip: err=%v\n got %+v\nwant %+v", err, again, resp)
		}
	})
}

// drainDecoder feeds stream to a fresh decoder in the chunks the cut
// points give (each byte of cuts is the next chunk's length, 0 meaning
// 256; the rest goes in one chunk) and returns a copy of every payload
// yielded, whether the stream poisoned, the most memory the decoder
// held of its own, and how many payloads were yielded with capacity past
// their length.
func drainDecoder(stream, cuts []byte) (frames [][]byte, poisoned bool, held, unclippedFrames int) {
	var dec Decoder
	feed := func(chunk []byte) {
		dec.Feed(chunk)
		for !poisoned {
			payload, ok, err := dec.Next()
			if err != nil {
				poisoned = true
				return
			}
			if !ok {
				break
			}
			if unclipped(payload) >= 0 {
				unclippedFrames++
			}
			frames = append(frames, append([]byte(nil), payload...))
		}
		held = max(held, cap(dec.carry))
	}
	for _, c := range cuts {
		n := int(c)
		if n == 0 {
			n = 256
		}
		if n >= len(stream) {
			break
		}
		feed(stream[:n])
		stream = stream[n:]
	}
	feed(stream)
	return frames, poisoned, held, unclippedFrames
}

// FuzzDecoderStream: the same bytes fed whole and split at fuzzer-chosen
// points yield the same frames and the same verdict (clean stop or
// poison), never panic, never make the decoder hold more than it was
// fed — a length prefix is untrusted too, and sizes nothing — and every
// payload is a capacity-clipped view that cannot reach the next frame.
func FuzzDecoderStream(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 12; i++ {
		var stream []byte
		for j, n := 0, 1+rng.Intn(6); j < n; j++ {
			if rng.Intn(2) == 0 {
				stream = AppendRequest(stream, randRequest(rng))
			} else {
				stream = AppendResponse(stream, randResponse(rng))
			}
		}
		f.Add(stream, randBytes(rng, 0, 16))
		torn := append([]byte(nil), stream[:len(stream)-1-rng.Intn(len(stream)-1)]...)
		f.Add(torn, randBytes(rng, 0, 16))
		flipped := append([]byte(nil), stream...)
		flipped[rng.Intn(len(flipped))] ^= 0x40
		f.Add(flipped, randBytes(rng, 0, 16))
	}
	f.Add([]byte{0xff, 0xff, 0x0f, 0x00, 1, 2, 3, 4, 5}, []byte{3}) // 1 MiB promised, 1 byte sent
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		whole, wholePoison, _, wholeUnclipped := drainDecoder(stream, nil)
		split, splitPoison, held, splitUnclipped := drainDecoder(stream, cuts)
		if wholeUnclipped+splitUnclipped > 0 {
			t.Fatalf("%d payloads fed whole and %d fed in chunks are not capacity clipped", wholeUnclipped, splitUnclipped)
		}
		if wholePoison != splitPoison || len(whole) != len(split) {
			t.Fatalf("fed whole: %d frames, poisoned=%v; fed in chunks %v: %d frames, poisoned=%v",
				len(whole), wholePoison, cuts, len(split), splitPoison)
		}
		for i := range whole {
			if !bytes.Equal(whole[i], split[i]) {
				t.Fatalf("frame %d differs between whole and chunked feeding", i)
			}
		}
		// append's growth may round a copy up; it never doubles past what
		// arrived, and a length prefix alone buys nothing.
		if held > 2*len(stream)+64 {
			t.Fatalf("decoder held %d bytes of its own for a %d-byte stream", held, len(stream))
		}
	})
}
