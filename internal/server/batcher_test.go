package server

import (
	"fmt"
	"testing"
	"time"

	"kvaccel"
	"kvaccel/internal/rpc"
	"kvaccel/internal/vclock"
)

// scripted is a request a test client sends at a set virtual instant.
type scripted struct {
	at  time.Duration // after the script starts
	op  byte
	key string
}

// scriptStart is when a script's instants count from: well after every
// client has connected.
const scriptStart = time.Millisecond

// runScript serves a 1-shard DB to one client per script, each sending its
// requests at their instants and reading every reply once it has sent the
// last. It returns each client's replies, in order and without their
// payloads, and the server's counters.
func runScript(t *testing.T, scripts ...[]scripted) ([][]rpc.Response, Stats) {
	t.Helper()
	opt := kvaccel.DefaultOptions()
	opt.Shards = 1
	opt.Rollback = kvaccel.RollbackDisabled
	db := kvaccel.Open(opt)
	srv := New(db, DefaultConfig())
	got := make([][]rpc.Response, len(scripts))
	remaining := len(scripts)
	for c, script := range scripts {
		c, script := c, script
		db.Run(fmt.Sprintf("client.%d", c), func(r *kvaccel.Runner) {
			defer func() {
				if remaining--; remaining == 0 {
					srv.Shutdown(r)
					db.Close()
				}
			}()
			conn := srv.Connect(r, fmt.Sprintf("client.%d", c))
			if conn == nil {
				t.Errorf("client %d: connect refused", c)
				return
			}
			defer conn.Close()
			for i, s := range script {
				r.SleepUntil(vclock.Time(0).Add(scriptStart + s.at))
				req := rpc.Request{ID: uint64(i), Op: s.op, Key: []byte(s.key)}
				if s.op == rpc.OpPut {
					req.Value = []byte("value of " + s.key)
				}
				if err := conn.Send(r, rpc.AppendRequest(conn.Buffer(), &req)); err != nil {
					t.Errorf("client %d: send %d: %v", c, i, err)
					return
				}
			}
			replies := &testReplies{conn: conn}
			for i := range script {
				resp, err := replies.next(r)
				if err != nil || resp.ID != uint64(i) {
					t.Errorf("client %d: reply %d: %+v, %v", c, i, resp, err)
					return
				}
				got[c] = append(got[c], rpc.Response{ID: resp.ID, Status: resp.Status, Timing: resp.Timing})
			}
		})
	}
	db.Wait()
	return got, srv.Stats()
}

// lingerOf returns a reply's time between entering a batcher queue and
// being claimed.
func lingerOf(resp rpc.Response) time.Duration { return time.Duration(resp.Timing.LingerNS) }

// TestFullReadChunkLeavesAtOnce: eight gets on one shard, arriving 5 µs
// apart, fill a chunk, and the eighth to arrive ends the window — the
// first waits 35 µs, not the window's 100. The window after it, which
// nothing cuts short, runs its full length.
func TestFullReadChunkLeavesAtOnce(t *testing.T) {
	var script []scripted
	for i := 0; i < readChunk; i++ {
		script = append(script, scripted{at: time.Duration(i) * 5 * time.Microsecond, op: rpc.OpGet, key: fmt.Sprintf("k%d", i)})
	}
	script = append(script, scripted{at: time.Millisecond, op: rpc.OpGet, key: "lone"})
	got, st := runScript(t, script)
	if len(got[0]) != len(script) {
		t.Fatalf("%d replies, want %d", len(got[0]), len(script))
	}
	if d := lingerOf(got[0][0]); d != 35*time.Microsecond {
		t.Errorf("the first get of a full chunk waited %v to be claimed, want 35µs", d)
	}
	if d := lingerOf(got[0][readChunk-1]); d != 0 {
		t.Errorf("the get that filled the chunk waited %v to be claimed, want 0", d)
	}
	if d := lingerOf(got[0][readChunk]); d != readWindow {
		t.Errorf("a lone get after a window cut short waited %v, want the full %v", d, readWindow)
	}
	if st.ReadChunks != 2 || st.ReadOps != readChunk+1 {
		t.Errorf("%d gets in %d chunks, want %d in 2", st.ReadOps, st.ReadChunks, readChunk+1)
	}
}

// TestLoneGetsStopPayingTheWindow: a lone client's gets each wait out the
// window until futileLimit of them have gone out alone; then none waits,
// until a get arrives within a window of the last claim — two gets
// arriving together — and the window opens again.
func TestLoneGetsStopPayingTheWindow(t *testing.T) {
	var lone []scripted
	for i := 0; i <= futileLimit; i++ {
		lone = append(lone, scripted{at: time.Duration(i) * time.Millisecond, op: rpc.OpGet, key: "a"})
	}
	pairAt := time.Duration(futileLimit+1) * time.Millisecond
	lone = append(lone, scripted{at: pairAt, op: rpc.OpGet, key: "b"}, scripted{at: pairAt + time.Millisecond, op: rpc.OpGet, key: "c"})
	got, st := runScript(t, lone, []scripted{{at: pairAt, op: rpc.OpGet, key: "d"}})
	if len(got[0]) != len(lone) || len(got[1]) != 1 {
		t.Fatalf("%d and %d replies, want %d and 1", len(got[0]), len(got[1]), len(lone))
	}
	for i := 0; i < futileLimit; i++ {
		if d := lingerOf(got[0][i]); d != readWindow {
			t.Errorf("lone get %d waited %v, want the window's %v", i, d, readWindow)
		}
	}
	if d := lingerOf(got[0][futileLimit]); d != 0 {
		t.Errorf("after %d futile windows a lone get still waited %v", futileLimit, d)
	}
	if a, b := lingerOf(got[0][futileLimit+1]), lingerOf(got[1][0]); a != 0 || b != 0 {
		t.Errorf("two gets arriving together with the window shut waited %v and %v, want 0", a, b)
	}
	if d := lingerOf(got[0][futileLimit+2]); d != readWindow {
		t.Errorf("after two gets arrived together the next lone get waited %v, want the window's %v", d, readWindow)
	}
	if want := int64(len(lone)) + 1; st.ReadChunks != want {
		t.Errorf("%d gets went out in %d chunks, want one each", st.ReadOps, st.ReadChunks)
	}
}

// TestWritesWaitForNoWindow: a lone client's puts each spend decode,
// dispatch and the engine on the server and nothing else — none is held
// for a window.
func TestWritesWaitForNoWindow(t *testing.T) {
	var script []scripted
	for i := 0; i < 2*futileLimit; i++ {
		script = append(script, scripted{at: time.Duration(i) * time.Millisecond, op: rpc.OpPut, key: fmt.Sprintf("k%d", i)})
	}
	got, st := runScript(t, script)
	for i, resp := range got[0] {
		tm := resp.Timing
		if resp.Status != rpc.StatusOK || tm.AcceptNS != uint64(decodeCPU) || tm.LingerNS != uint64(dispatchCPU) || tm.ReplyNS != 0 {
			t.Errorf("put %d: %s, timing %+v, want accept %v (decode), linger %v (dispatch), reply 0",
				i, rpc.StatusName(resp.Status), tm, decodeCPU, dispatchCPU)
		}
		if tm.EngineNS == 0 {
			t.Errorf("put %d spent no time in the engine", i)
		}
	}
	if st.Batches != int64(len(script)) {
		t.Errorf("%d puts in %d batches, want one each", st.BatchedOps, st.Batches)
	}
}

// TestPutsQueuedDuringTheCrossingJoinIt: a put that arrives while the
// batcher pays the first put's dispatch charge joins its batch; one that
// arrives after the drain goes in the next.
func TestPutsQueuedDuringTheCrossingJoinIt(t *testing.T) {
	got, st := runScript(t,
		[]scripted{{op: rpc.OpPut, key: "put-a"}},
		[]scripted{{at: 3 * time.Microsecond, op: rpc.OpPut, key: "put-b"}},  // decoded during put-a's dispatch
		[]scripted{{at: 20 * time.Microsecond, op: rpc.OpPut, key: "put-c"}}, // decoded after the drain
	)
	for c, replies := range got {
		if len(replies) != 1 || replies[0].Status != rpc.StatusOK {
			t.Fatalf("client %d: replies %+v", c, replies)
		}
	}
	if st.Batches != 2 || st.BatchedOps != 3 {
		t.Errorf("%d puts in %d batches, want 3 in 2", st.BatchedOps, st.Batches)
	}
	if d := lingerOf(got[0][0]); d != dispatchCPU {
		t.Errorf("the first put waited %v to be claimed, want its dispatch charge %v", d, dispatchCPU)
	}
	if d := lingerOf(got[1][0]); d != dispatchCPU-3*time.Microsecond {
		t.Errorf("the put that joined waited %v to be claimed, want %v", d, dispatchCPU-3*time.Microsecond)
	}
}
