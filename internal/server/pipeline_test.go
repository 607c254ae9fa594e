package server

import (
	"fmt"
	"sync/atomic"
	"testing"

	"kvaccel"
	"kvaccel/internal/rpc"
	"kvaccel/internal/vclock"
)

// testReplies reads a connection's replies in order, one per call.
type testReplies struct {
	conn  *rpc.Conn
	dec   rpc.Decoder
	chunk []byte
	resp  rpc.Response
}

// next parks for the next reply; it is valid until the following call.
func (s *testReplies) next(r *vclock.Runner) (*rpc.Response, error) {
	for {
		payload, ok, err := s.dec.Next()
		if err != nil {
			return nil, err
		}
		if ok {
			return &s.resp, rpc.DecodeResponse(payload, &s.resp)
		}
		s.conn.Release(s.chunk)
		data, _, alive := s.conn.Recv(r)
		if !alive {
			return nil, fmt.Errorf("EOF")
		}
		s.dec.Feed(data)
		s.chunk = data
	}
}

// TestPipelinedRequestsKeepTheirBytes is the durability promise at the
// RPC boundary: a write the server acked is there to be read. Each
// connection sends a burst of PUTs of distinct keys and self-identifying
// values back to back, before reading any reply — so every request after
// the first arrives while its predecessors still wait in the batcher,
// behind its engine crossing (or, unbatched, behind the handler's engine
// call) — then
// reads every key back. A request's key and value alias the frame it
// arrived in; with the next frame decoded into the same memory, all 16
// PUTs were acked and 15 of the 16 keys were NOT_FOUND, the last key
// having been written 16 times. The 4-connection variant interleaves
// DELETEs of keys written earlier in the same burst, so a request that
// reads another's bytes also shows as a key that should be gone.
func TestPipelinedRequestsKeepTheirBytes(t *testing.T) {
	for _, batch := range []bool{true, false} {
		for _, conns := range []int{1, 4} {
			t.Run(fmt.Sprintf("batch=%v/conns=%d", batch, conns), func(t *testing.T) {
				runPipelined(t, batch, conns)
			})
		}
	}
}

func runPipelined(t *testing.T, batch bool, conns int) {
	const burst = 16
	opt := kvaccel.DefaultOptions()
	opt.Shards = 2
	opt.Rollback = kvaccel.RollbackDisabled
	db := kvaccel.Open(opt)
	cfg := DefaultConfig()
	cfg.Batch = batch
	srv := New(db, cfg)

	var (
		remaining atomic.Int32
		errs      []string
	)
	remaining.Store(int32(conns))
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}
	keyOf := func(c, i int) []byte { return []byte(fmt.Sprintf("conn%d-key%02d", c, i)) }
	valueOf := func(c, i int) []byte { return []byte(fmt.Sprintf("value of key %02d on connection %d", i, c)) }
	// With several connections, every fourth request deletes the key
	// written three requests before it.
	deletes := func(i int) bool { return conns > 1 && i%4 == 3 }

	for c := 0; c < conns; c++ {
		c := c
		db.Run(fmt.Sprintf("client.%d", c), func(r *kvaccel.Runner) {
			defer func() {
				if remaining.Add(-1) == 0 {
					srv.Shutdown(r)
					db.Close()
				}
			}()
			conn := srv.Connect(r, fmt.Sprintf("client.%d", c))
			if conn == nil {
				fail("client %d: connect refused", c)
				return
			}
			defer conn.Close()
			replies := &testReplies{conn: conn}
			// One request struct and one key and value buffer for the whole
			// burst: what Send is given is the connection's, the rest is
			// the client's to reuse at once.
			var (
				req   rpc.Request
				key   []byte
				value []byte
			)
			gone := map[int]bool{}
			for i := 0; i < burst; i++ {
				req = rpc.Request{ID: uint64(c)<<16 | uint64(i), Op: rpc.OpPut}
				if deletes(i) {
					req.Op = rpc.OpDelete
					key = append(key[:0], keyOf(c, i-3)...)
					gone[i-3] = true
				} else {
					key = append(key[:0], keyOf(c, i)...)
					value = append(value[:0], valueOf(c, i)...)
					req.Value = value
				}
				req.Key = key
				if err := conn.Send(r, rpc.AppendRequest(conn.Buffer(), &req)); err != nil {
					fail("client %d: send %d: %v", c, i, err)
					return
				}
			}
			for i := 0; i < burst; i++ {
				resp, err := replies.next(r)
				if err != nil || resp.Status != rpc.StatusOK {
					fail("client %d: write %d not acked: %v %v", c, i, resp, err)
					return
				}
			}
			// Every write was acked: read them all back.
			for i := 0; i < burst; i++ {
				if deletes(i) {
					continue
				}
				req = rpc.Request{ID: uint64(c)<<16 | uint64(burst+i), Op: rpc.OpGet, Key: append(key[:0], keyOf(c, i)...)}
				if err := conn.Send(r, rpc.AppendRequest(conn.Buffer(), &req)); err != nil {
					fail("client %d: send get %d: %v", c, i, err)
					return
				}
				resp, err := replies.next(r)
				switch {
				case err != nil:
					fail("client %d: get %d: %v", c, i, err)
					return
				case gone[i] && resp.Status != rpc.StatusNotFound:
					fail("client %d: key %d was deleted after it was written, and reads %s %q", c, i, rpc.StatusName(resp.Status), resp.Value)
				case !gone[i] && resp.Status != rpc.StatusOK:
					fail("client %d: acked key %d reads %s", c, i, rpc.StatusName(resp.Status))
				case !gone[i] && string(resp.Value) != string(valueOf(c, i)):
					fail("client %d: acked key %d reads %q, want %q", c, i, resp.Value, valueOf(c, i))
				}
			}
		})
	}
	db.Wait()
	for _, e := range errs {
		t.Error(e)
	}
	if st := srv.Stats(); st.BadRequests != 0 || st.TornFrames != 0 || st.EngineErrors != 0 {
		t.Errorf("server saw %d bad requests, %d torn frames, %d engine errors", st.BadRequests, st.TornFrames, st.EngineErrors)
	}
}
