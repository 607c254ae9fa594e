package server

import (
	"encoding/binary"
	"runtime"
	"testing"

	"kvaccel"
	"kvaccel/internal/rpc"
)

// raceEnabled is set by race_test.go when the race detector is on: its
// instrumentation allocates, so allocation counts mean nothing.
var raceEnabled bool

// roundTrips runs a server over a 2-shard DB and one closed-loop client
// that alternates a PUT of a 128-byte value with a GET of the key just
// written, n requests in all after warm, calling around(measured) with
// the function that issues the measured requests. Every reply is checked.
func roundTrips(tb testing.TB, warm, n int, around func(measured func())) {
	opt := kvaccel.DefaultOptions()
	opt.Shards = 2
	opt.Rollback = kvaccel.RollbackDisabled
	db := kvaccel.Open(opt)
	srv := New(db, DefaultConfig())
	db.Run("client", func(r *kvaccel.Runner) {
		defer func() {
			srv.Shutdown(r)
			db.Close()
		}()
		conn := srv.Connect(r, "client")
		if conn == nil {
			tb.Error("connect refused")
			return
		}
		defer conn.Close()
		replies := &testReplies{conn: conn}
		key, value := make([]byte, 16), make([]byte, 128)
		var req rpc.Request
		seq := uint64(0)
		exchange := func(count int) {
			for i := 0; i < count; i++ {
				seq++
				req = rpc.Request{ID: seq, Op: rpc.OpGet, Key: key}
				if seq%2 == 1 {
					binary.BigEndian.PutUint64(key[8:], seq*0x9e3779b97f4a7c15)
					binary.BigEndian.PutUint64(value, seq)
					req.Op, req.Value = rpc.OpPut, value
				}
				if err := conn.Send(r, rpc.AppendRequest(conn.Buffer(), &req)); err != nil {
					tb.Errorf("send %d: %v", seq, err)
					return
				}
				resp, err := replies.next(r)
				if err != nil || resp.ID != seq || resp.Status != rpc.StatusOK {
					tb.Errorf("request %d: reply %+v, err %v", seq, resp, err)
					return
				}
				if req.Op == rpc.OpGet && binary.BigEndian.Uint64(resp.Value) != seq-1 {
					tb.Errorf("request %d read the value of put %d", seq, binary.BigEndian.Uint64(resp.Value))
					return
				}
			}
		}
		exchange(warm)
		around(func() { exchange(n) })
	})
	db.Wait()
}

// TestAllocsServeRoundTrip pins the request path's garbage end to end:
// client encode, two network hops, decode, admission, the batcher or the
// read claimer, the engine call, the reorder buffer, reply encode, client
// decode. Frames cycle through the connection's buffers, requests and
// responses through the connection's pendings, batches and chunks through
// the batcher's own slices, and a Get pins the version by a counter —
// what is left is amortised (a WAL chunk, a memtable slab, a timer-heap
// or ring growth): under half an allocation per request where there were
// nearly nineteen.
func TestAllocsServeRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const n = 10_000
	roundTrips(t, 2_000, n, func(measured func()) {
		// MemStats, not testing.AllocsPerRun: every runner's allocations
		// count, and the answer is a fraction.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		measured()
		runtime.ReadMemStats(&after)
		perReq := float64(after.Mallocs-before.Mallocs) / n
		t.Logf("%.3f allocations per request", perReq)
		if perReq > 0.5 {
			t.Errorf("%.3f allocations per request over %d closed-loop round trips, want <= 0.5", perReq, n)
		}
	})
}

// BenchmarkServeRoundTrip is one closed-loop request through the whole
// serving tier and a 2-shard engine, PUTs and GETs alternating.
func BenchmarkServeRoundTrip(b *testing.B) {
	b.ReportAllocs()
	roundTrips(b, 1_000, b.N, func(measured func()) {
		b.ResetTimer()
		measured()
		b.StopTimer()
	})
}
