package harness

import (
	"math"
	"testing"
	"time"

	"kvaccel/internal/core"
)

// These tests cover the read side of value separation (satellite of the
// layered-read-pipeline change): readwhilewriting and seekrandom with
// ValueThreshold set, so point reads dereference vlog pointers while the
// GC rewrites segments underneath, and iterators pin segments across
// their scans. Plus the mixed-workload path end to end with both caches
// enabled, including the per-source attribution invariant.

func shortVlogReadParams() Params {
	p := DefaultParams()
	p.Duration = 3 * time.Second
	p.KeySpace = 20_000
	p.ValueThreshold = 1024 // 4 KiB values all separate
	return p
}

// TestReadWhileWritingWithValueSeparation runs workload C (8:2
// write/read) with value separation on the KVACCEL engine: every read
// that lands on a flushed key dereferences a vlog pointer, many while
// the overwrite-heavy fill keeps the GC busy rewriting segments.
func TestReadWhileWritingWithValueSeparation(t *testing.T) {
	p := shortVlogReadParams()
	res := p.Run(EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackDisabled}, WorkloadC)
	if res.Rec.Reads() == 0 {
		t.Fatal("no reads recorded")
	}
	s := res.MainStats
	if s.VLogBytes == 0 {
		t.Fatalf("value separation inactive: %+v", s)
	}
	if s.VLogDerefs == 0 {
		t.Fatal("reads never dereferenced a vlog pointer")
	}
	// Attribution invariant: every engine get is counted exactly once.
	if got := s.ReadsAttributed(); got != s.Gets {
		t.Fatalf("lsm attribution %d != gets %d", got, s.Gets)
	}
}

// TestSeekRandomWithValueSeparationAndGC preloads through the vlog,
// churns overwrites to build garbage, then runs seekrandom so iterators
// resolve pointer entries while sealed segments are collected. Iterator
// pinning must keep every dereference alive (no ErrSegmentGone escapes).
func TestSeekRandomWithValueSeparationAndGC(t *testing.T) {
	p := shortVlogReadParams()
	p.KeySpace = 5_000
	res := p.Run(EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackDisabled}, WorkloadD)
	if res.Rec.Reads() == 0 {
		t.Fatal("no scan ops recorded")
	}
	s := res.MainStats
	if s.VLogBytes == 0 {
		t.Fatal("value separation inactive")
	}
	if s.VLogDerefs == 0 {
		t.Fatal("iterators never dereferenced a vlog pointer")
	}
}

// ycsbBParams is the mixed-workload A/B setup shared by the two tests
// below: ycsb-b over a preloaded keyspace on KVACCEL-Eager.
func ycsbBParams() (Params, EngineSpec) {
	p := DefaultParams()
	p.Duration = 3 * time.Second
	p.KeySpace = 20_000
	p.Mix = "ycsb-b"
	return p, EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackEager}
}

// TestMixedWorkloadYCSBBWithCaches runs the ycsb-b preset on KVACCEL
// with the front cache and block cache enabled and checks (1) the
// zipfian read stream hits the front cache, (2) the controller's
// per-source attribution sums exactly, (3) the lsm layer's own
// attribution also sums, and (4) the read-cache ratchet: against the
// cold twin on the same seed, both caches clear a hit-rate floor and
// reads are at least 1.5x faster — what the layered read pipeline is for.
func TestMixedWorkloadYCSBBWithCaches(t *testing.T) {
	p, spec := ycsbBParams()
	p.FrontCacheBytes = 8 << 20
	res := p.Run(spec, WorkloadMixed)
	if res.Rec.Reads() == 0 || res.Rec.Writes() == 0 {
		t.Fatalf("idle mixed run: reads=%d writes=%d", res.Rec.Reads(), res.Rec.Writes())
	}
	kv := res.KVStats
	if kv.Gets == 0 {
		t.Fatal("controller saw no gets")
	}
	if kv.FrontCacheHits == 0 {
		t.Fatal("zipfian reads never hit the front cache")
	}
	if got := kv.FrontCacheHits + kv.DevServed + kv.MainGets; got != kv.Gets {
		t.Fatalf("controller attribution %d+%d+%d=%d != gets %d",
			kv.FrontCacheHits, kv.DevServed, kv.MainGets, got, kv.Gets)
	}
	s := res.MainStats
	if got := s.ReadsAttributed(); got != s.Gets {
		t.Fatalf("lsm attribution %d != gets %d", got, s.Gets)
	}
	if res.MixSpec.Name != "ycsb-b" {
		t.Fatalf("resolved mix %q", res.MixSpec.Name)
	}

	cold, _ := ycsbBParams()
	cold.DisableBlockCache = true
	off := cold.Run(spec, WorkloadMixed)
	t.Logf("reads: caches on %.2f Kops/s, off %.2f Kops/s; front hit %.2f, block hit %.2f",
		res.ReadKops(), off.ReadKops(), kv.FrontCacheHitRate(), s.BlockCacheHitRate())
	if res.ReadKops() < 1.5*off.ReadKops() {
		t.Errorf("reads with caches %.2f Kops/s, without %.2f: want >= 1.5x", res.ReadKops(), off.ReadKops())
	}
	if kv.FrontCacheHitRate() < 0.5 {
		t.Errorf("front cache hit rate %.2f, want >= 0.5", kv.FrontCacheHitRate())
	}
	if s.BlockCacheHitRate() < 0.5 {
		t.Errorf("block cache hit rate %.2f, want >= 0.5", s.BlockCacheHitRate())
	}
}

// TestMixedWorkloadBaselineNoCaches is the A/B twin: same preset with
// the front cache off and block cache zeroed; the run must still be
// correct and report zero front-cache traffic.
func TestMixedWorkloadBaselineNoCaches(t *testing.T) {
	p, spec := ycsbBParams()
	p.Duration = 2 * time.Second
	p.DisableBlockCache = true
	res := p.Run(spec, WorkloadMixed)
	kv := res.KVStats
	if kv.FrontCacheHits != 0 || kv.FrontCacheMisses != 0 {
		t.Fatalf("disabled front cache saw traffic: %+v", kv)
	}
	if got := kv.DevServed + kv.MainGets; got != kv.Gets {
		t.Fatalf("attribution without front cache %d+%d != %d", kv.DevServed, kv.MainGets, kv.Gets)
	}
	if res.MainStats.BlockCacheHits != 0 {
		t.Fatalf("disabled block cache reported %d hits", res.MainStats.BlockCacheHits)
	}
}

// TestScanKops: a short ycsb-e run's scans, over the run's duration, are
// its scan throughput; a run with no duration has none.
func TestScanKops(t *testing.T) {
	p, spec := ycsbBParams()
	p.Mix = "ycsb-e"
	p.Duration = 200 * time.Millisecond
	p.KeySpace = 2_000
	res := p.Run(spec, WorkloadMixed)
	scans := float64(res.Rec.Scans())
	if scans == 0 {
		t.Fatal("ycsb-e run made no scans")
	}
	for _, row := range []struct {
		name     string
		duration time.Duration
		want     float64
	}{
		{"run's own", res.Duration, scans / res.Duration.Seconds() / 1000},
		{"half a second", 500 * time.Millisecond, scans / 500},
		{"two seconds", 2 * time.Second, scans / 2000},
		{"zero", 0, 0},
		{"negative", -time.Second, 0},
	} {
		res.Duration = row.duration
		if got := res.ScanKops(); math.Abs(got-row.want) > 1e-9*math.Max(1, row.want) {
			t.Errorf("%s: %d scans over %v gave %v Kops/s, want %v", row.name, res.Rec.Scans(), row.duration, got, row.want)
		}
	}
}
