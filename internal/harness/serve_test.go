package harness

import (
	"testing"
	"time"
)

// smallServeParams is a fast serving setup for CI-grade checks.
func smallServeParams() ServeParams {
	p := DefaultServeParams()
	p.Shards = 2
	p.Preload = 2_000
	p.Load.Clients = 64
	p.Load.Tenants = 4
	p.Load.KeySpace = 2_000
	p.Load.Duration = 500 * time.Millisecond
	return p
}

func TestServeClosedLoopBatched(t *testing.T) {
	p := smallServeParams()
	res := p.RunServe()
	s := res.Load
	t.Logf("batched: sent=%d ok=%d nf=%d retry=%d errs=%d dropped=%d goodput=%.0f ops/s p99=%v",
		s.Sent, s.OK, s.NotFound, s.Retry, s.Errs, s.Dropped, res.Goodput(), s.Latency.P99())
	t.Logf("server: accepted=%d requests=%d replies=%d batches=%d mean-batch=%.1f read-chunks=%d mean-chunk=%.1f direct=%d",
		res.Server.Accepted, res.Server.Requests, res.Server.Replies,
		res.Server.Batches, res.Server.MeanBatchOps(), res.Server.ReadChunks, res.Server.MeanReadChunk(), res.Server.DirectOps)
	if s.Sent == 0 {
		t.Fatal("no requests sent")
	}
	if s.OK+s.NotFound == 0 {
		t.Fatal("no requests answered by the engine")
	}
	// Conservation: every sent request is answered or accounted dropped.
	if got := s.Answered() + s.Dropped; got != s.Sent {
		t.Errorf("conservation: sent=%d answered+dropped=%d", s.Sent, got)
	}
	if s.Dropped != 0 {
		t.Errorf("closed-loop clients dropped %d requests", s.Dropped)
	}
	if res.Server.Accepted != int64(res.Clients) {
		t.Errorf("accepted %d connections, want %d", res.Server.Accepted, res.Clients)
	}
	// The batcher must actually coalesce under 64 concurrent clients.
	if res.Server.Batches == 0 {
		t.Fatal("no write batches committed")
	}
	if mean := res.Server.MeanBatchOps(); mean < 2 {
		t.Errorf("mean batch size %.2f, want >= 2 (batching not coalescing)", mean)
	}
	// Phase decomposition must explain the client-observed latency.
	if cov := s.PhaseCoverage(); cov < 0.9 || cov > 1.01 {
		t.Errorf("phase coverage %.3f, want ~1.0", cov)
	}
}

// TestServeClosedLoopUnbatched checks per-connection dispatch on its own
// and then as the baseline of the serving-tier ratchet (DESIGN.md §16):
// cross-connection batching only wins with many clients (at 64 it is
// 0.68x), so both arms run 256 clients, where batched goodput must be at
// least 1.5x and its p999 lower.
func TestServeClosedLoopUnbatched(t *testing.T) {
	p := smallServeParams()
	p.Load.Clients = 256
	p.Load.Duration = 50 * time.Millisecond
	p.Server.Batch = false
	res := p.RunServe()
	s := res.Load
	t.Logf("unbatched: sent=%d ok=%d nf=%d goodput=%.0f ops/s p99=%v direct=%d",
		s.Sent, s.OK, s.NotFound, res.Goodput(), s.Latency.P99(), res.Server.DirectOps)
	if s.OK+s.NotFound == 0 {
		t.Fatal("no requests answered")
	}
	if res.Server.Batches != 0 {
		t.Errorf("unbatched run committed %d batches", res.Server.Batches)
	}

	p.Server.Batch = true
	batched := p.RunServe()
	bp999, up999 := batched.Load.Latency.P999(), s.Latency.P999()
	t.Logf("batched: goodput=%.0f ops/s (%.2fx) p999=%v vs %v",
		batched.Goodput(), batched.Goodput()/res.Goodput(), bp999, up999)
	if batched.Goodput() < 1.5*res.Goodput() {
		t.Errorf("batched goodput %.0f, unbatched %.0f: want >= 1.5x", batched.Goodput(), res.Goodput())
	}
	if bp999 >= up999 {
		t.Errorf("batched p999 %v not below unbatched p999 %v", bp999, up999)
	}
	for name, arm := range map[string]*ServeResult{"unbatched": res, "batched": batched} {
		if cov := arm.Load.PhaseCoverage(); cov < 0.9 || cov > 1.01 {
			t.Errorf("%s phase coverage %.3f, want ~1.0", name, cov)
		}
		if l := arm.Load; l.Answered()+l.Dropped != l.Sent {
			t.Errorf("%s conservation: sent=%d answered+dropped=%d", name, l.Sent, l.Answered()+l.Dropped)
		}
	}
}

func TestServeOpenLoopOverloadSheds(t *testing.T) {
	p := smallServeParams()
	p.Load.OpenLoop = true
	// Aggressive offered load against a tiny admission budget: most
	// requests must be shed with RETRY_LATER, none silently dropped,
	// and the engine must never stall.
	p.Load.Interval = 200 * time.Microsecond
	p.Server.AdmitRate = 20_000
	res := p.RunServe()
	s := res.Load
	t.Logf("overload: sent=%d ok=%d nf=%d retry=%d dropped=%d goodput=%.0f shed-rate=%.2f",
		s.Sent, s.OK, s.NotFound, s.Retry, s.Dropped, res.Goodput(), s.ShedRate())
	t.Logf("engine: stalls=%d stall-time=%v", res.Engine.Main.TotalStalls(), res.Engine.Main.StallTime)
	if s.Retry == 0 {
		t.Fatal("overload run shed nothing")
	}
	if s.Dropped != 0 {
		t.Errorf("%d requests silently dropped; sheds must be RETRY_LATER responses", s.Dropped)
	}
	if got := s.Answered() + s.Dropped; got != s.Sent {
		t.Errorf("conservation: sent=%d answered+dropped=%d", s.Sent, got)
	}
	if res.Engine.Main.TotalStalls() != 0 {
		t.Errorf("engine stalled %d times under admission control", res.Engine.Main.TotalStalls())
	}
	// Goodput tracks the admitted budget. The window is long against the
	// tier's latency here; CI's old 1024-client/300 ms form of this check
	// flaked (0.88x on one run, 0.99x on the next) because p99 was 97 ms
	// inside a 300 ms window: requests admitted in the last third were
	// answered after it closed and fell out of the goodput count.
	if ratio := res.Goodput() / p.Server.AdmitRate; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("goodput %.0f is %.2fx the admitted budget %.0f, want within 10%%",
			res.Goodput(), ratio, p.Server.AdmitRate)
	}
	// Requests pipeline on every connection here, so a request waits in
	// the server while the frames behind it arrive: the acked writes are
	// where a request reading another's bytes would show.
	if res.AckedChecked == 0 || res.AckedLost != 0 {
		t.Errorf("%d of %d OK-acked PUTs read back wrong after the window", res.AckedLost, res.AckedChecked)
	}
	// Fairness accounting: every tenant both sent and was answered.
	for i, ten := range s.Tenants {
		if ten.Sent == 0 {
			t.Errorf("tenant %d sent nothing", i)
		}
		if ten.OK == 0 {
			t.Errorf("tenant %d was never admitted", i)
		}
	}
}
