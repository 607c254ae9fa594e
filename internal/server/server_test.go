package server

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"kvaccel"
	"kvaccel/internal/rpc"
)

// TestServeExactlyOnceOrderedUnderAborts is the batcher's end-to-end
// correctness property: with many clients interleaving through the
// cross-connection batcher and read claimer — and some connections
// aborting mid-stream, tearing their newest frame — every surviving
// client receives exactly one response per request, in the order it
// submitted them. The reorder buffer in connState is what is under
// test: cross-shard, cross-batch execution completes out of order and
// the client must never see that. db.Wait() returning is the no-hang
// half of the property.
func TestServeExactlyOnceOrderedUnderAborts(t *testing.T) {
	for _, batch := range []bool{true, false} {
		for seed := int64(0); seed < 3; seed++ {
			name := fmt.Sprintf("batch=%v/seed=%d", batch, seed)
			t.Run(name, func(t *testing.T) {
				runAbortProperty(t, batch, seed)
			})
		}
	}
}

func runAbortProperty(t *testing.T, batch bool, seed int64) {
	const (
		clients  = 12
		requests = 30
		abortMod = 4 // every 4th client aborts...
		abortAt  = requests / 2
		keyspace = 200
	)
	opt := kvaccel.DefaultShardedOptions()
	opt.Shards = 2
	opt.Rollback = kvaccel.RollbackDisabled
	db := kvaccel.OpenSharded(opt)
	srv := New(db, Config{Batch: batch, LingerMicros: 100})

	var (
		remaining atomic.Int32
		errs      []string
	)
	remaining.Store(clients)
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	for c := 0; c < clients; c++ {
		c := c
		db.Run(fmt.Sprintf("client.%d", c), func(r *kvaccel.Runner) {
			defer func() {
				if remaining.Add(-1) == 0 {
					srv.Shutdown(r)
					db.Close()
				}
			}()
			rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
			conn := srv.Connect(r, fmt.Sprintf("client.%d", c))
			if conn == nil {
				fail("client %d: connect refused", c)
				return
			}
			aborter := c%abortMod == abortMod-1
			var sentIDs []uint64
			for i := 0; i < requests; i++ {
				if aborter && i == abortAt {
					// Abrupt drop: the newest undelivered frame is torn
					// mid-frame; the server's decoder must stop cleanly and
					// the server must keep serving everyone else.
					conn.Abort()
					return
				}
				id := uint64(c)<<16 | uint64(i)
				req := &rpc.Request{ID: id, Op: rpc.OpGet}
				key := []byte(fmt.Sprintf("k%04d", rng.Intn(keyspace)))
				switch rng.Intn(5) {
				case 0, 1:
					req.Op = rpc.OpPut
					req.Key = key
					req.Value = []byte(fmt.Sprintf("v%d.%d", c, i))
				case 2:
					req.Op = rpc.OpDelete
					req.Key = key
				case 3:
					req.Op = rpc.OpScan
					req.Key = key
					req.Limit = 4
				default:
					req.Key = key
				}
				if err := conn.Send(r, rpc.AppendRequest(nil, req)); err != nil {
					fail("client %d: send %d: %v", c, i, err)
					return
				}
				sentIDs = append(sentIDs, id)
			}
			// Collect exactly one response per request, in submission order.
			dec := &rpc.Decoder{}
			got := 0
			for got < len(sentIDs) {
				data, _, ok := conn.Recv(r)
				if !ok {
					fail("client %d: EOF after %d of %d responses", c, got, len(sentIDs))
					return
				}
				dec.Feed(data)
				for {
					payload, ok, err := dec.Next()
					if err != nil {
						fail("client %d: reply stream corrupt: %v", c, err)
						return
					}
					if !ok {
						break
					}
					var resp rpc.Response
					if derr := rpc.DecodeResponse(payload, &resp); derr != nil {
						fail("client %d: bad response: %v", c, derr)
						return
					}
					if got >= len(sentIDs) {
						fail("client %d: duplicate response id=%#x past the last request", c, resp.ID)
						return
					}
					if resp.ID != sentIDs[got] {
						fail("client %d: response %d out of order: got id=%#x want %#x",
							c, got, resp.ID, sentIDs[got])
						return
					}
					if resp.Status == rpc.StatusRetryLater {
						fail("client %d: unexpected shed with admission off (id=%#x)", c, resp.ID)
						return
					}
					got++
				}
			}
			conn.Close()
		})
	}
	db.Wait()

	for _, e := range errs {
		t.Error(e)
	}
	st := srv.Stats()
	survivors := clients - clients/abortMod
	wantReplies := int64(survivors * requests)
	if st.Replies < wantReplies {
		t.Errorf("server delivered %d replies, want >= %d", st.Replies, wantReplies)
	}
	// An abort truncates the newest in-flight frame to a prefix — which
	// the decoder must treat as a cleanly incomplete tail, never decode
	// as a garbage request. (A mid-stream CRC failure would show up as
	// TornFrames; a misparse as BadRequests.)
	if st.BadRequests != 0 {
		t.Errorf("server decoded %d garbage requests from truncated streams", st.BadRequests)
	}
}
