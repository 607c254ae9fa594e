package rpc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"kvaccel/internal/encoding"
)

// The reference encoders are the ones this package had before frames were
// encoded in place: build the payload in a buffer of its own, then copy
// it behind a header into a second. They are the definition of the wire
// format the golden test holds the in-place encoders to.

func refFrame(dst, payload []byte) []byte {
	dst = encoding.PutU32(dst, uint32(len(payload)))
	dst = encoding.PutU32(dst, encoding.Checksum(payload))
	return append(dst, payload...)
}

func refAppendRequest(dst []byte, req *Request) []byte {
	p := append([]byte(nil), req.Op, req.Tenant)
	p = encoding.PutU64(p, req.ID)
	switch req.Op {
	case OpPut:
		p = encoding.AppendRecord(p, req.Key, req.Value)
	case OpGet, OpDelete:
		p = encoding.AppendRecord(p, req.Key, nil)
	case OpScan:
		p = encoding.AppendRecord(p, req.Key, nil)
		p = encoding.PutUvarint(p, uint64(req.Limit))
	case OpBatch:
		p = encoding.PutUvarint(p, uint64(len(req.Ops)))
		for _, op := range req.Ops {
			p = append(p, op.Op)
			p = encoding.AppendRecord(p, op.Key, op.Value)
		}
	}
	return refFrame(dst, p)
}

func refAppendResponse(dst []byte, resp *Response) []byte {
	p := append([]byte(nil), resp.Status)
	p = encoding.PutU64(p, resp.ID)
	p = encoding.PutUvarint(p, resp.Timing.AcceptNS)
	p = encoding.PutUvarint(p, resp.Timing.LingerNS)
	p = encoding.PutUvarint(p, resp.Timing.EngineNS)
	p = encoding.PutUvarint(p, resp.Timing.ReplyNS)
	p = encoding.AppendRecord(p, nil, resp.Value)
	p = encoding.PutUvarint(p, uint64(len(resp.Entries)))
	for _, e := range resp.Entries {
		p = encoding.AppendRecord(p, e.Key, e.Value)
	}
	return refFrame(dst, p)
}

// goldenCorpus is the fixed 200-message corpus: every opcode and every
// status several times over, empty and 4 KiB values, batches of 0 to 7
// sub-ops, scans with and without entries. Even indices are requests.
func goldenCorpus() (reqs []*Request, resps []*Response) {
	rng := rand.New(rand.NewSource(18))
	big := bytes.Repeat([]byte{0xA5}, 4096)
	for i := 0; i < 100; i++ {
		req := corpusRequest(rng, byte(i%5)+OpPut)
		switch i % 10 {
		case 0:
			req.Value = big // OpPut
		case 5:
			req.Value = nil // OpPut, empty value
		}
		reqs = append(reqs, req)

		resp := randResponse(rng)
		resp.Status = byte(i % 4)
		switch i % 10 {
		case 1:
			resp.Value, resp.Entries = big, nil
		case 2:
			resp.Value, resp.Entries = []byte{}, nil
		case 3:
			resp.Entries = []ScanEntry{{Key: []byte("k"), Value: big}, {Key: []byte("l")}}
		}
		resps = append(resps, resp)
	}
	return reqs, resps
}

// corpusRequest builds a random request of the given opcode.
func corpusRequest(rng *rand.Rand, op byte) *Request {
	req := &Request{ID: rng.Uint64(), Tenant: uint8(rng.Intn(8)), Op: op, Key: randBytes(rng, 1, 32)}
	switch op {
	case OpPut:
		req.Value = randBytes(rng, 1, 128)
	case OpScan:
		req.Limit = uint32(rng.Intn(1000))
	case OpBatch:
		req.Key = nil
		for i, n := 0, rng.Intn(8); i < n; i++ {
			sub := BatchOp{Op: OpDelete, Key: randBytes(rng, 1, 32)}
			if i%2 == 0 {
				sub.Op, sub.Value = OpPut, randBytes(rng, 0, 64)
			}
			req.Ops = append(req.Ops, sub)
		}
	}
	return req
}

// TestGoldenFrameBytes holds AppendRequest and AppendResponse to the wire
// format: every frame of the corpus is byte-identical to the reference
// encoders' — appended to an empty buffer, behind other frames in a
// shared one, and into a recycled buffer that still holds old bytes.
func TestGoldenFrameBytes(t *testing.T) {
	reqs, resps := goldenCorpus()
	var covered struct {
		ops      [OpBatch + 1]int
		statuses [StatusErr + 1]int
		big      int
		entries  int
	}
	var stream, refStream []byte
	recycled := bytes.Repeat([]byte{0xFF}, 8192)
	check := func(name string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: frame differs from the reference encoder's\n got %x\nwant %x", name, got, want)
		}
	}
	for i := range reqs {
		req, resp := reqs[i], resps[i]
		covered.ops[req.Op]++
		covered.statuses[resp.Status]++
		if len(req.Value) == 4096 || len(resp.Value) == 4096 {
			covered.big++
		}
		if len(resp.Entries) > 0 {
			covered.entries++
		}
		want := refAppendRequest(nil, req)
		check(fmt.Sprintf("request %d (%s)", i, OpName(req.Op)), AppendRequest(nil, req), want)
		check(fmt.Sprintf("request %d into a recycled buffer", i), AppendRequest(recycled[:0], req), want)
		stream, refStream = AppendRequest(stream, req), refAppendRequest(refStream, req)

		want = refAppendResponse(nil, resp)
		check(fmt.Sprintf("response %d (%s)", i, StatusName(resp.Status)), AppendResponse(nil, resp), want)
		check(fmt.Sprintf("response %d into a recycled buffer", i), AppendResponse(recycled[:0], resp), want)
		stream, refStream = AppendResponse(stream, resp), refAppendResponse(refStream, resp)
	}
	check("the 200 frames back to back", stream, refStream)
	for op := OpPut; op <= OpBatch; op++ {
		if covered.ops[op] == 0 {
			t.Errorf("corpus has no %s request", OpName(op))
		}
	}
	for st := StatusOK; st <= StatusErr; st++ {
		if covered.statuses[st] == 0 {
			t.Errorf("corpus has no %s response", StatusName(st))
		}
	}
	if covered.big == 0 || covered.entries == 0 {
		t.Errorf("corpus covers %d 4 KiB values and %d scans with entries, want some of each", covered.big, covered.entries)
	}
	if n := len(reqs) + len(resps); n != 200 {
		t.Errorf("corpus has %d messages, want 200", n)
	}
}
