package harness

import (
	"testing"
	"time"

	"kvaccel/internal/core"
	"kvaccel/internal/lsm"
)

// stallHeavy renders the offload ratchet's write regime: small memtables
// and an early compaction trigger keep an L0→L1 merge almost always
// runnable, and value separation is off (separated compactions are
// ineligible for offload). Four writers fill a 4 MiB memtable every few
// hundred milliseconds, so every flush races the compaction stream for
// the same NAND dies: a host-issued merge programs pages at the same
// media priority as the flush, stretches the flush past the fill time,
// and the writers take memtable stalls — the "host compaction pressure"
// the device-side executor relieves by scheduling its merge ops into idle
// die slots instead. The stop trigger is left loose so the
// background-paced device drain is never itself a stall source.
func stallHeavy(p *Params) {
	p.ValueThreshold = 0
	p.Writers = 4
	// Overwrite-heavy: a small working set keeps L1 bounded (merges mostly
	// dedupe), so L0→L1 merges stay ~1 s instead of snowballing with the
	// dataset — the steady-state compaction stream the offload targets.
	p.KeySpace = 4096
	// Fixed offered load, sized between the two arms' open-throttle
	// capacities: with an open throttle the protected arm just converts
	// its headroom into more ingest (and therefore the same stalls), so
	// stall time measures nothing. At a constant demand the host-only arm
	// cannot sustain, stall time is exactly the capacity shortfall.
	p.WriteIntervalMicros = 85
	p.TuneLSM = func(o *lsm.Options) {
		o.MemtableSize = 4 << 20
		o.L0CompactionTrigger = 4
		o.L0SlowdownTrigger = 12
		o.L0StopTrigger = 20
	}
}

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
			// Device-side merges (DESIGN.md §15) must cut write-stall time at
			// a fixed offered load, must actually fire, and must never fall
			// back — a fallback means device output failed host validation.
			// Stock engine, hard stalls, no redirection hedge: with the
			// hedge the Dev-LSM absorbs the stall windows itself and its
			// traffic occupies the ARM core the merge executor needs.
			name: "offload", spec: EngineSpec{Kind: KindRocksDB, Threads: 1}, duration: 10 * time.Second,
			a: stallHeavy,
			b: func(p *Params) { stallHeavy(p); p.OffloadCompaction = true },
			check: func(t *testing.T, host, dev *RunResult) {
				hs, ds := host.MainStats.StallTime, dev.MainStats.StallTime
				m := dev.MainStats
				t.Logf("stall-time: host=%v device=%v; offloaded=%d fallbacks=%d merge-cpu=%v",
					hs, ds, m.OffloadedCompactions, m.OffloadFallbacks,
					time.Duration(m.DeviceMergeCPUMicros)*time.Microsecond)
				if m.OffloadedCompactions == 0 {
					t.Error("offload arm never offloaded a compaction")
				}
				if m.OffloadFallbacks != 0 {
					t.Errorf("%d offloads fell back to the host", m.OffloadFallbacks)
				}
				if hs == 0 || float64(ds) > 0.75*float64(hs) {
					t.Errorf("stall time %v -> %v: want a reduction of at least 25%%", hs, ds)
				}
			},
		},
		{
			// 8 writers at QD 1 with inline values is the regime group
			// commit exists for — per-commit latency dominant. Groups must
			// form and the adaptive linger must keep them full: without it
			// the mean group size is ~2.7 at identical throughput.
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
			name: "kernel-events", spec: kva, duration: 4 * time.Second,
			a: func(p *Params) {},
			check: func(t *testing.T, res, _ *RunResult) {
				k := res.Kernel
				perWait := float64(k.SemParks) / float64(max(k.SemWaits, 1))
				reuse := float64(k.Reuses) / float64(max(k.Spawns+k.Reuses, 1))
				t.Logf("%d contended admissions, %.2f parks each; %d runners started, %.4f on a reused goroutine; %d parks in all",
					k.SemWaits, perWait, k.Spawns+k.Reuses, reuse, k.Parks)
				if k.SemWaits < 10000 {
					t.Errorf("%d contended admissions: the run did not load the device", k.SemWaits)
				}
				if perWait > 2.2 {
					t.Errorf("%.2f parks per contended semaphore admission, want <= 2.2", perWait)
				}
				if reuse < 0.95 {
					t.Errorf("%.4f of runners reused a goroutine, want >= 0.95", reuse)
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
				p.LingerMicros = 30 // kvbench's default
				set(&p)
				return p.Run(row.spec, WorkloadA)
			}
			row.check(t, arm(row.a), arm(row.b))
		})
	}
}
