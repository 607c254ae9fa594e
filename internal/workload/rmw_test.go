package workload

import (
	"testing"
	"time"

	"kvaccel/internal/rpc"
	"kvaccel/internal/vclock"
)

// opOnKey is one engine call or request: its opcode and key.
type opOnKey struct {
	op  byte
	key string
}

// checkRMWPairs fails t unless every PUT in ops — in YCSB-F each one is
// a read-modify-write's update half — follows a GET of the same key, and
// there are at least a few of them.
func checkRMWPairs(t *testing.T, ops []opOnKey) {
	t.Helper()
	puts := 0
	for i, o := range ops {
		if o.op != rpc.OpPut {
			continue
		}
		puts++
		if i == 0 || ops[i-1].op != rpc.OpGet || ops[i-1].key != o.key {
			prev := opOnKey{}
			if i > 0 {
				prev = ops[i-1]
			}
			t.Fatalf("op %d: PUT %s follows %s %s, not a GET of the key it writes", i, o.key, rpc.OpName(prev.op), prev.key)
		}
	}
	if puts < 10 {
		t.Fatalf("%d read-modify-writes in %d ops", puts, len(ops))
	}
}

// stubDialer connects clients to a stand-in server: each Connect starts
// a runner on the server end of an rpc.NewPair that answers every request
// OK and records its opcode and key.
type stubDialer struct {
	t    *testing.T
	clk  *vclock.Clock
	reqs []opOnKey
}

func (d *stubDialer) Connect(r *vclock.Runner, label string) *rpc.Conn {
	client, server := rpc.NewPair(rpc.DefaultNetConfig(), label)
	d.clk.Go(label+".server", func(r *vclock.Runner) {
		var (
			dec  rpc.Decoder
			req  rpc.Request
			resp rpc.Response
		)
		for {
			data, _, ok := server.Recv(r)
			if !ok {
				return
			}
			dec.Feed(data)
			for {
				payload, ok, err := dec.Next()
				if err != nil {
					d.t.Errorf("stub server: %v", err)
					return
				}
				if !ok {
					break
				}
				if err := rpc.DecodeRequest(payload, &req); err != nil {
					d.t.Errorf("stub server: %v", err)
					return
				}
				d.reqs = append(d.reqs, opOnKey{req.Op, string(req.Key)})
				resp = rpc.Response{ID: req.ID, Status: rpc.StatusOK}
				if err := server.Send(r, rpc.AppendResponse(server.Buffer(), &resp)); err != nil {
					return
				}
			}
			server.Release(data)
		}
	})
	return client
}

// TestServeRMWWritesTheKeyItRead: a closed-loop YCSB-F client over RPC
// reads a key and then writes that same key, as RunMixed does and YCSB-F
// specifies.
func TestServeRMWWritesTheKeyItRead(t *testing.T) {
	clk := vclock.New()
	mix, _ := Mix("ycsb-f")
	load := NewServeLoad(ServeConfig{Clients: 1, Mix: mix, KeySpace: 1000, ValueSize: 16, Duration: 20 * time.Millisecond, Seed: 5}, 1000)
	d := &stubDialer{t: t, clk: clk}
	clk.Go("client", func(r *vclock.Runner) { load.Client(r, clk, d, 0) })
	clk.Wait()
	checkRMWPairs(t, d.reqs)
}

// recordingEngine is a fakeEngine that records every Get and Put.
type recordingEngine struct {
	*fakeEngine
	ops []opOnKey
}

func (e *recordingEngine) Get(r *vclock.Runner, key []byte) ([]byte, bool, error) {
	e.ops = append(e.ops, opOnKey{rpc.OpGet, string(key)})
	return e.fakeEngine.Get(r, key)
}

func (e *recordingEngine) Put(r *vclock.Runner, key, value []byte) error {
	e.ops = append(e.ops, opOnKey{rpc.OpPut, string(key)})
	return e.fakeEngine.Put(r, key, value)
}

// TestRunMixedRMWWritesTheKeyItRead is the same property for a direct
// client.
func TestRunMixedRMWWritesTheKeyItRead(t *testing.T) {
	clk := vclock.New()
	eng := &recordingEngine{fakeEngine: newFakeEngine(10 * time.Microsecond)}
	cfg := Config{KeySpace: 1000, ValueSize: 16, Duration: 20 * time.Millisecond, Seed: 5}
	spec, _ := Mix("ycsb-f")
	clk.Go("client", func(r *vclock.Runner) {
		if err := RunMixed(r, eng, cfg, spec, NewMixedState(cfg.KeySpace), NewRecorder("test")); err != nil {
			t.Errorf("RunMixed: %v", err)
		}
	})
	clk.Wait()
	checkRMWPairs(t, eng.ops)
}
