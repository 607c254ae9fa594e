package harness

import (
	"testing"
	"time"

	"kvaccel/internal/core"
)

// TestRatchet holds the A/B inequalities the repo's features exist for:
// each row runs fillrandom on one seed with arm a's setting and then arm
// b's, and check compares the two results. Every run is fixed-seed and in
// virtual time, and a seed reproduces its run exactly, so the floors are
// not noise bands.
func TestRatchet(t *testing.T) {
	kva := EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackLazy}
	rows := []struct {
		name     string
		spec     EngineSpec
		duration time.Duration
		a, b     func(*Params) // b is nil for a single-arm floor
		check    func(t *testing.T, a, b *RunResult)
	}{
		{
			// Queue depth must matter: deeper NVMe queues overlap flush and
			// compaction page I/O (inline values, so both start early).
			name: "queue-depth", spec: kva, duration: 3 * time.Second,
			a: func(p *Params) { p.QueueDepth = 1 },
			b: func(p *Params) { p.QueueDepth = 8 },
			check: func(t *testing.T, qd1, qd8 *RunResult) {
				t.Logf("writes: qd1=%d qd8=%d", qd1.Rec.Writes(), qd8.Rec.Writes())
				if qd1.Rec.Writes() == 0 || qd8.Rec.Writes() < qd1.Rec.Writes() {
					t.Errorf("QD8 wrote %d, QD1 wrote %d: want QD8 >= QD1 > 0", qd8.Rec.Writes(), qd1.Rec.Writes())
				}
			},
		},
		{
			// Value separation exists to shrink compaction debt: at 4 KiB
			// values its write-amp must come in below the inline tree's
			// without costing throughput.
			name: "value-log", spec: kva, duration: 2 * time.Second,
			a: func(p *Params) { p.ValueThreshold = 0 },
			b: func(p *Params) { p.ValueThreshold = 1024 },
			check: func(t *testing.T, inline, vlog *RunResult) {
				wi, wv := inline.MainStats.WriteAmplification(), vlog.MainStats.WriteAmplification()
				t.Logf("write-amp: inline=%.2f vlog=%.2f; Kops: inline=%.2f vlog=%.2f; segments=%d",
					wi, wv, inline.WriteKops(), vlog.WriteKops(), vlog.MainStats.VLogSegments)
				if vlog.MainStats.VLogSegments == 0 {
					t.Error("value log wrote no segments")
				}
				if wv >= wi {
					t.Errorf("vlog write-amp %.2f not below inline %.2f", wv, wi)
				}
				if vlog.WriteKops() < 0.95*inline.WriteKops() {
					t.Errorf("vlog throughput %.2f Kops/s below 0.95x inline %.2f", vlog.WriteKops(), inline.WriteKops())
				}
			},
		},
		{
			// 8 writers at QD 1 with inline values is the regime group
			// commit exists for — per-commit latency dominant. Groups must
			// form from the writers that queue while the previous group
			// holds the log, with no leader waiting for more: this run
			// commits 10 982 groups of mean size 5.14 (4.37 when the next
			// group could claim during the previous append).
			name: "group-commit", spec: kva, duration: 8 * time.Second,
			a: func(p *Params) { p.Writers = 8; p.QueueDepth = 1 },
			check: func(t *testing.T, res, _ *RunResult) {
				s := res.MainStats
				t.Logf("groups=%d mean-size=%.2f", s.GroupCommits, s.MeanGroupSize())
				if s.GroupCommits == 0 || s.MeanGroupSize() < 3.0 {
					t.Errorf("%d groups of mean size %.2f, want > 0 groups of >= 3.0", s.GroupCommits, s.MeanGroupSize())
				}
			},
		},
		{
			// What a virtual second costs the host is, to first order, the
			// kernel events it takes. Flush and compaction saturating NAND
			// beside redirected writes is where die and channel queues are
			// deepest: a contended admission must cost about two parks (the
			// waiter's own, and one lost race per release — it was 23 when
			// every release woke every waiter), and the fan-out and command
			// runners, hundreds of thousands of them, must be reused ones.
			// A wait whose predicate a wake leaves false must cost no
			// goroutine switch (the kernel re-checks it: Cond.WaitUntil),
			// and neither must a NAND page's die and channel parks (the
			// fan-out workers are kernel tasks): hand-offs per put may not
			// exceed the 0.058 this fill measures, with the NVMe dispatcher
			// and every command worker tasks too, by more than 5 % (0.229
			// while commands other than KV_PUT ran on goroutine workers,
			// 1.061 when the fan-out became tasks, 7.636 before, 14.214
			// before WaitUntil). The same fill holds KVACCEL's floor: a
			// redirected put never waits for the Dev-LSM's flush (the device
			// programs key-value region pages ahead of host background
			// pages), and no throughput bucket completes no write. It waited
			// 3 times before that, and a KV_PUT's worker was a goroutine
			// runner.
			name: "kernel-events", spec: kva, duration: 4 * time.Second,
			a: func(p *Params) {},
			check: func(t *testing.T, res, _ *RunResult) {
				k := res.Kernel
				perWait := float64(k.SemParks) / float64(max(k.SemWaits, 1))
				reuse := float64(k.Reuses) / float64(max(k.Spawns+k.Reuses, 1))
				puts := float64(max(res.Rec.Writes(), 1))
				t.Logf("%d contended admissions, %.2f parks each; %d runners started, %.4f on a reused Runner; %d parks in all",
					k.SemWaits, perWait, k.Spawns+k.Reuses, reuse, k.Parks)
				handoffs := float64(k.Handoffs) / puts
				t.Logf("per put: %.2f parks, %.2f rechecks, %.4f hand-offs (%d puts)",
					float64(k.Parks)/puts, float64(k.Rechecks)/puts, handoffs, res.Rec.Writes())
				if k.SemWaits < 10000 {
					t.Errorf("%d contended admissions: the run did not load the device", k.SemWaits)
				}
				if perWait > 2.2 {
					t.Errorf("%.2f parks per contended semaphore admission, want <= 2.2", perWait)
				}
				if reuse < 0.95 {
					t.Errorf("%.4f of runners reused a Runner, want >= 0.95", reuse)
				}
				if handoffs > 1.05*0.058 {
					t.Errorf("%.4f hand-offs per put, want <= %.4f (0.058 + 5 %%)", handoffs, 1.05*0.058)
				}
				t.Logf("%d Dev-LSM puts, %d buffer waits; %d of %d buckets without a write",
					res.DevStats.Puts, res.DevStats.BufferWaits, res.ZeroWriteBuckets(), res.Rec.WriteSeries.Len())
				if res.DevStats.Puts == 0 || res.DevStats.BufferWaits != 0 || res.ZeroWriteBuckets() != 0 {
					t.Errorf("%d Dev-LSM puts, %d of them waited for a flush, %d zero-write buckets: want puts, and no wait and no empty bucket",
						res.DevStats.Puts, res.DevStats.BufferWaits, res.ZeroWriteBuckets())
				}
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			arm := func(set func(*Params)) *RunResult {
				if set == nil {
					return nil
				}
				p := DefaultParams()
				p.Duration = row.duration
				set(&p)
				return p.Run(row.spec, WorkloadA)
			}
			row.check(t, arm(row.a), arm(row.b))
		})
	}
	// A served request's parks are the program's: the client's and the
	// server's receives, the decode charge, the reply writer's wait, and
	// the engine's share of a batch or a read chunk. What they cost the
	// host is the hand-offs among them, and a connection's handler and
	// reply writer, the shard readers and the closed-loop clients (which
	// lend their runners' turns to a step: vclock.Runner.Lend) are kernel
	// tasks, whose parks hand nothing off, and so is every NVMe command's
	// worker: 256 closed-loop clients may not take more than the 0.164
	// hand-offs per request this run measures since the block commands
	// stepped (0.165 before, when they ran on goroutine workers; 1.838
	// before the clients and readers became tasks, 5.711 before the
	// handler and reply writer did) + 5 %. The parks pin the run: 487 021
	// over 73 663 requests (6.612 each).
	t.Run("serve-handoffs", func(t *testing.T) {
		p := smallServeParams()
		p.Load.Clients = 256
		p.Load.Duration = 50 * time.Millisecond
		res := p.RunServe()
		k, reqs := res.Kernel, res.Server.Requests
		handoffs := float64(k.Handoffs) / float64(max(reqs, 1))
		t.Logf("%d requests: %.4f parks, %.4f rechecks, %.4f hand-offs each",
			reqs, float64(k.Parks)/float64(max(reqs, 1)), float64(k.Rechecks)/float64(max(reqs, 1)), handoffs)
		if k.Parks != 487_021 || reqs != 73_663 {
			t.Errorf("%d parks over %d requests, want 487021 over 73663: the serving run changed", k.Parks, reqs)
		}
		if handoffs > 1.05*0.164 {
			t.Errorf("%.3f hand-offs per request, want <= %.3f (0.164 + 5 %%)", handoffs, 1.05*0.164)
		}
	})
}
