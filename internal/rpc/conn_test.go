package rpc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"kvaccel/internal/vclock"
)

// runOn runs body on a runner of a fresh clock and waits for the clock to
// drain.
func runOn(body func(clk *vclock.Clock, r *vclock.Runner)) {
	clk := vclock.New()
	clk.Go("test", func(r *vclock.Runner) { body(clk, r) })
	clk.Wait()
}

// TestConnTimesFramesAsSerializeThenPropagate pins the network model the
// booked transmit time must reproduce: a frame's last byte leaves
// max(now, NIC free) + size/bandwidth after it is sent, arrives one
// latency later, and is never seen before that — whether the receiver was
// parked on the empty connection (its wake is scheduled for the arrival)
// or busy (it sleeps out the remainder). The sender is not held up.
func TestConnTimesFramesAsSerializeThenPropagate(t *testing.T) {
	cfg := NetConfig{Latency: 50 * time.Microsecond, Bandwidth: 1e9, Buffer: 8} // 1 ns per byte
	runOn(func(clk *vclock.Clock, r *vclock.Runner) {
		client, server := NewPair(cfg, "t")
		type arrival struct {
			at, sentAt vclock.Time
			n          int
		}
		var got []arrival
		done := vclock.NewEvent("receiver.done")
		clk.Go("receiver", func(rr *vclock.Runner) {
			defer done.Set()
			for i := 0; ; i++ {
				if i == 3 {
					rr.Sleep(time.Millisecond) // busy while frames 3 and 4 are sent and arrive
				}
				data, sentAt, ok := server.Recv(rr)
				if !ok {
					return
				}
				got = append(got, arrival{rr.Now(), sentAt, len(data)})
			}
		})
		r.Sleep(time.Microsecond) // the receiver is parked on the empty connection
		start := r.Now()
		send := func(n int) {
			if err := client.Send(r, make([]byte, n)); err != nil {
				t.Errorf("send: %v", err)
			}
		}
		// Three frames back to back: they queue on the NIC.
		send(1000)
		send(500)
		send(200)
		if r.Now() != start {
			t.Errorf("Send held the sender for %v", r.Now().Sub(start))
		}
		r.Sleep(300 * time.Microsecond)
		// Two more while the receiver is busy.
		second := r.Now()
		send(100)
		r.Sleep(10 * time.Microsecond)
		third := r.Now()
		send(100)
		client.Close()
		done.WaitFor(r, time.Second)

		us, ns := time.Microsecond, time.Nanosecond
		want := []arrival{
			{start.Add(1000*ns + 50*us), start.Add(1000 * ns), 1000},
			{start.Add(1500*ns + 50*us), start.Add(1500 * ns), 500},
			{start.Add(1700*ns + 50*us), start.Add(1700 * ns), 200},
			// Both arrived while the receiver slept; it sees them when it
			// comes back, with the send times they had.
			{got[2].at.Add(time.Millisecond), second.Add(100 * ns), 100},
			{got[2].at.Add(time.Millisecond), third.Add(100 * ns), 100},
		}
		if len(got) != len(want) {
			t.Fatalf("received %d frames, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("frame %d: seen at %v, sent at %v, %d bytes; want %v, %v, %d",
					i, got[i].at, got[i].sentAt, got[i].n, want[i].at, want[i].sentAt, want[i].n)
			}
		}
	})
}

// TestConnBusyReceiverSleepsOutPropagation: a frame sent while the
// receiver is away, and still in flight when it comes back, is seen at
// its arrival time — the receiver had no wake scheduled and sleeps the
// remainder itself.
func TestConnBusyReceiverSleepsOutPropagation(t *testing.T) {
	cfg := NetConfig{Latency: 50 * time.Microsecond, Buffer: 8}
	runOn(func(clk *vclock.Clock, r *vclock.Runner) {
		client, server := NewPair(cfg, "t")
		sent := r.Now()
		if err := client.Send(r, []byte("x")); err != nil {
			t.Fatal(err)
		}
		r.Sleep(20 * time.Microsecond)
		if _, _, ok := server.Recv(r); !ok || r.Now() != sent.Add(50*time.Microsecond) {
			t.Errorf("frame seen at %v, want %v", r.Now(), sent.Add(50*time.Microsecond))
		}
		client.Close()
	})
}

// bufID names a buffer by where its array starts, however it has been
// resliced.
func bufID(b []byte) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(b)) }

// TestConnFramesHaveOneOwner drives a seeded exchange over one
// connection — both sides beingEncoded into Buffer()'s buffers, holding a
// random number of received frames before releasing them, the client
// finally aborting or closing with frames in flight — and tracks every
// buffer by identity. At no point may a buffer be in two places (free at
// an endpoint, in flight, held by a receiver, being encoded), and a
// released buffer may come back to the endpoint that sent it only as a
// frame its peer encoded and sent.
func TestConnFramesHaveOneOwner(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runOn(func(clk *vclock.Clock, r *vclock.Runner) {
				rng := rand.New(rand.NewSource(seed))
				ends := [2]*Conn{}
				ends[0], ends[1] = NewPair(NetConfig{Latency: time.Microsecond, Bandwidth: 1e9, Buffer: 4}, "t")
				const (
					free = iota // in an endpoint's free list (or never seen)
					beingEncoded
					inFlight
					held
				)
				type where struct {
					state int
					end   int // the endpoint that holds it (free, beingEncoded, held) or sent it (inFlight)
				}
				owner := map[unsafe.Pointer]where{}
				move := func(b []byte, from, to where) {
					t.Helper()
					if cap(b) == 0 {
						return
					}
					if got, known := owner[bufID(b)]; known && got != from {
						t.Fatalf("buffer %p moves %v -> %v but is at %v", bufID(b), from, to, got)
					}
					owner[bufID(b)] = to
				}
				var holding [2][][]byte
				var queued [2]int // frames sent by each end, not yet received
				msg := 0
				step := func(e int) {
					peer := 1 - e
					switch rng.Intn(3) {
					case 0: // encode and send, unless the socket buffer would park us
						if queued[e] >= 4 {
							return
						}
						b := ends[e].Buffer()
						if cap(b) > 0 {
							// A recycled buffer: it must be one this end
							// released, which it can only have received from
							// its peer.
							move(b, where{free, e}, where{beingEncoded, e})
						}
						msg++
						old := bufID(b)
						b = AppendRequest(b, &Request{ID: uint64(msg), Op: OpPut, Key: []byte("k"), Value: bytes.Repeat([]byte{byte(msg)}, rng.Intn(300))})
						if bufID(b) != old {
							delete(owner, old) // outgrown: append moved the frame, the old array is garbage
						}
						owner[bufID(b)] = where{inFlight, e}
						if err := ends[e].Send(r, b); err != nil {
							t.Fatalf("send: %v", err)
						}
						queued[e]++
					case 1: // receive what the peer sent
						if queued[peer] == 0 {
							return
						}
						b, _, ok := ends[e].Recv(r)
						if !ok {
							t.Fatalf("EOF with %d frames queued", queued[peer])
						}
						queued[peer]--
						move(b, where{inFlight, peer}, where{held, e})
						holding[e] = append(holding[e], b)
					case 2: // release the oldest frame held
						if len(holding[e]) == 0 {
							return
						}
						b := holding[e][0]
						holding[e] = holding[e][1:]
						move(b, where{held, e}, where{free, e})
						ends[e].Release(b)
					}
				}
				for i := 0; i < 400; i++ {
					step(rng.Intn(2))
				}
				// Tear down with frames in flight: an abort truncates the
				// newest one in each direction, a close leaves them whole;
				// either way each is still delivered once, to one owner.
				if seed%2 == 0 {
					ends[0].Abort()
				} else {
					ends[0].Close()
				}
				for e := 0; e < 2; e++ {
					for _, b := range holding[e] {
						move(b, where{held, e}, where{free, e})
						ends[e].Release(b)
					}
					for {
						b, _, ok := ends[e].Recv(r)
						if !ok {
							break
						}
						move(b, where{inFlight, 1 - e}, where{held, e})
						ends[e].Release(b)
						move(b, where{held, e}, where{free, e})
					}
					// What an endpoint has free is what the tracking says it
					// has free: nothing in flight or held hides in a free list.
					for b := ends[e].Buffer(); cap(b) > 0; b = ends[e].Buffer() {
						move(b, where{free, e}, where{beingEncoded, e})
					}
				}
				for id, w := range owner {
					if w.state == inFlight || w.state == held {
						t.Errorf("buffer %p ended %v: neither delivered nor released", id, w)
					}
				}
			})
		})
	}
}

// TestDecodedRequestStableWhileChunksArrive is the rule the server's
// handler stands on: a request decoded from chunk k aliases chunk k and
// nothing else, so it stays byte-stable while the decoder is fed chunks
// k+1 … k+64 — including when frames straddle chunks and the decoder has
// to keep copies of its own.
func TestDecodedRequestStableWhileChunksArrive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var stream []byte
	var want []*Request
	for i := 0; i < 200; i++ {
		req := randRequest(rng)
		want = append(want, req)
		stream = AppendRequest(stream, req)
	}
	for _, chunking := range []string{"one frame a chunk", "random cuts"} {
		var dec Decoder
		type live struct {
			req Request
			idx int
			age int
		}
		var window []*live
		next := 0
		feed := func(chunk []byte) {
			// The chunk is the receiver's to keep intact; the decoder gets
			// its own copy of the stream's bytes, as from Conn.Recv.
			dec.Feed(append([]byte(nil), chunk...))
			for _, l := range window {
				l.age++
			}
			for {
				payload, ok, err := dec.Next()
				if err != nil {
					t.Fatalf("%s: %v", chunking, err)
				}
				if !ok {
					break
				}
				l := &live{idx: next}
				if err := DecodeRequest(payload, &l.req); err != nil {
					t.Fatalf("%s: request %d: %v", chunking, next, err)
				}
				window = append(window, l)
				next++
			}
			for len(window) > 0 && window[0].age > 64 {
				window = window[1:]
			}
			for _, l := range window {
				if !equalRequests(&l.req, want[l.idx]) {
					t.Fatalf("%s: request %d changed %d chunks after it was decoded", chunking, l.idx, l.age)
				}
			}
		}
		for off := 0; off < len(stream); {
			n := 1 + rng.Intn(48)
			if chunking == "one frame a chunk" {
				length, _ := frameExtent(stream[off:])
				n = length
			}
			n = min(n, len(stream)-off)
			feed(stream[off : off+n])
			off += n
		}
		if next != len(want) {
			t.Fatalf("%s: decoded %d of %d requests", chunking, next, len(want))
		}
	}
}

// BenchmarkConnPingPong is one request/response exchange over
// DefaultNetConfig with nothing behind it: one frame each way, encoded
// into the connection's buffers, decoded into reused structs, released.
func BenchmarkConnPingPong(b *testing.B) {
	b.ReportAllocs()
	runOn(func(clk *vclock.Clock, r *vclock.Runner) {
		client, server := NewPair(DefaultNetConfig(), "bench")
		clk.Go("server", func(sr *vclock.Runner) {
			var dec Decoder
			var req Request
			for {
				data, _, ok := server.Recv(sr)
				if !ok {
					server.Close()
					return
				}
				dec.Feed(data)
				payload, _, _ := dec.Next()
				if err := DecodeRequest(payload, &req); err != nil {
					b.Error(err)
				}
				out := AppendResponse(server.Buffer(), &Response{ID: req.ID, Value: req.Value})
				dec.Next() // lets go of the chunk
				server.Release(data)
				if err := server.Send(sr, out); err != nil {
					b.Error(err)
				}
			}
		})
		var dec Decoder
		var resp Response
		req := Request{Op: OpPut, Key: []byte("0000000000000042"), Value: make([]byte, 128)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req.ID = uint64(i)
			if err := client.Send(r, AppendRequest(client.Buffer(), &req)); err != nil {
				b.Fatal(err)
			}
			data, _, ok := client.Recv(r)
			if !ok {
				b.Fatal("EOF")
			}
			dec.Feed(data)
			payload, _, _ := dec.Next()
			if err := DecodeResponse(payload, &resp); err != nil || resp.ID != req.ID {
				b.Fatalf("reply %d: id=%d err=%v", i, resp.ID, err)
			}
			dec.Next()
			client.Release(data)
		}
		b.StopTimer()
		client.Close()
	})
}
