package harness

import (
	"testing"
	"time"

	"kvaccel/internal/core"
	"kvaccel/internal/machine"
)

func shortWriterParams() Params {
	p := DefaultParams()
	p.Duration = 3 * time.Second
	p.KeySpace = 50_000
	return p
}

// TestMultiWriterFillRandomGroups runs workload A with 4 concurrent
// writers on the KVACCEL engine and checks the group-commit pipeline
// engaged: groups formed, WAL appends amortized below one per record, and
// the run recorded more writes than any single writer could explain away.
func TestMultiWriterFillRandomGroups(t *testing.T) {
	p := shortWriterParams()
	p.Writers = 4
	res := p.Run(EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackDisabled}, WorkloadA)
	s := res.MainStats
	if s.GroupCommits == 0 {
		t.Fatalf("no write groups formed: %+v", s)
	}
	if s.GroupedRecords == 0 || s.MeanGroupSize() <= 1 {
		t.Fatalf("mean group size = %.2f, want > 1", s.MeanGroupSize())
	}
	if apr := s.WALAppendsPerRecord(); apr >= 1 {
		t.Fatalf("WAL appends per record = %.3f at 4 writers, want < 1", apr)
	}
	if res.Rec.Writes() == 0 {
		t.Fatal("no writes recorded")
	}
}

// TestMultiWriterWithFaults arms the deterministic device fault plan
// under 4 writers: the run must complete with grouped WAL records and the
// controller's retry policy absorbing every injected error (the default
// rules never exhaust the retry budget).
func TestMultiWriterWithFaults(t *testing.T) {
	p := shortWriterParams()
	p.Writers = 4
	p.FaultsSeed = 42
	res := p.Run(EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackDisabled}, WorkloadA)
	if res.MainStats.GroupCommits == 0 {
		t.Fatalf("no write groups formed under faults")
	}
	if res.Injected == 0 {
		t.Fatalf("fault plan never fired")
	}
	if res.KVStats.DevRetries == 0 || res.KVStats.DevFailed != 0 {
		t.Fatalf("retried=%d failed=%d, want retries and no failures", res.KVStats.DevRetries, res.KVStats.DevFailed)
	}
	if res.Rec.Writes() == 0 {
		t.Fatal("no writes recorded")
	}
}

// TestShardedRunSharesTheDispatch drives two KVACCEL shards through RunSharded:
// a mixed workload with more clients than shards — neither of which the
// sharded path could do while kvbench carried its own copy of the runner
// — must spread over every shard, keep the per-source read attribution
// exact in aggregate, and feed the same sampler.
func TestShardedRunSharesTheDispatch(t *testing.T) {
	p := DefaultParams()
	p.Duration = 500 * time.Millisecond
	p.KeySpace = 5_000
	p.Mix = "ycsb-a"
	p.Writers = 4
	p.FrontCacheBytes = 8 << 20
	spec := EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackLazy}
	res := p.RunSharded(spec, 2, WorkloadMixed)
	if res.Rec.Reads() == 0 || res.Rec.Writes() == 0 {
		t.Fatalf("idle mixed run: reads=%d writes=%d", res.Rec.Reads(), res.Rec.Writes())
	}
	if len(res.PerShard) != 2 {
		t.Fatalf("%d per-shard entries, want 2", len(res.PerShard))
	}
	var puts int64
	for i, s := range res.PerShard {
		if s.KVAccel.NormalPuts+s.KVAccel.RedirectedPuts == 0 {
			t.Errorf("shard %d took no puts", i)
		}
		puts += s.Main.Puts
	}
	if puts != res.MainStats.Puts {
		t.Errorf("per-shard puts sum to %d, aggregate says %d", puts, res.MainStats.Puts)
	}
	kv := res.KVStats
	if got := kv.FrontCacheHits + kv.DevServed + kv.MainGets; got != kv.Gets || kv.Gets == 0 {
		t.Errorf("attribution %d+%d+%d != gets %d", kv.FrontCacheHits, kv.DevServed, kv.MainGets, kv.Gets)
	}
	if res.Rec.WriteSeries.Len() == 0 || len(res.StallFlags) != res.PCIeSeries.Len() {
		t.Errorf("sampler: %d write samples, %d stall flags, %d pcie samples",
			res.Rec.WriteSeries.Len(), len(res.StallFlags), res.PCIeSeries.Len())
	}
}

// TestMixedWritersCommitWithoutWaiting runs mixed_w8's shape — KVACCEL
// lazy, 8 closed-loop YCSB-A clients over 100 000 keys of 128 B inline
// values — for half a virtual second. A group leader claims whoever is
// queued and never waits for followers, so a put costs about its own
// CPU: the mean stays within 5/4 of the WriteCPU + WALAppendCPU it pays
// alone, 37.5 µs at scale 10 (it measures 34.8 µs; 39.9 µs when the next
// group could claim while the previous append was in flight, about
// 117 µs when a leader lingered for followers). The leader holds the log
// through its append,
// so the next group is everyone who queued meanwhile: the window takes
// at most 0.85 WAL appends per record (0.779; 0.903 with the overlapped
// lane), and kernel parks per op, preload included, stay within 5 % of
// the 12.119 measured when that lane went (13.120 with it).
func TestMixedWritersCommitWithoutWaiting(t *testing.T) {
	p := DefaultParams()
	p.Duration = 500 * time.Millisecond
	p.KeySpace = 100_000
	p.ValueSize = 128
	p.Mix = "ycsb-a"
	p.Writers = 8
	res := p.Run(EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackLazy}, WorkloadMixed)
	s := res.MainStats
	cost := machine.LSMOptions(p.Scale).Cost
	bound := 5 * (cost.WriteCPU + cost.WALAppendCPU) / 4
	mean := res.Rec.WriteLatency.Mean()
	// The preload's one writer commits one group per key; the groups
	// past those are the mixed window's.
	groups, records := s.GroupCommits-int64(p.KeySpace), s.GroupedRecords-int64(p.KeySpace)
	perRecord := float64(groups) / float64(max(records, 1))
	t.Logf("%d puts, mean %v (bound %v); window: %d records in %d groups (mean %.2f, %.3f WAL appends per record); %d WAL appends for %d groups in all",
		res.Rec.Writes(), mean, bound, records, groups, float64(records)/float64(max(groups, 1)), perRecord, s.WALAppends, s.GroupCommits)
	ops := res.Rec.Writes() + res.Rec.Reads()
	parks := float64(res.Kernel.Parks) / float64(max(ops, 1))
	t.Logf("%.3f kernel parks per op, preload included (%d ops)", parks, ops)
	if res.Rec.Writes() == 0 || res.Rec.Reads() == 0 {
		t.Fatalf("idle mixed run: reads=%d writes=%d", res.Rec.Reads(), res.Rec.Writes())
	}
	if mean > bound {
		t.Errorf("mean put latency %v, want <= %v", mean, bound)
	}
	if s.WALAppends != s.GroupCommits {
		t.Errorf("%d WAL appends for %d group commits, want one each", s.WALAppends, s.GroupCommits)
	}
	if perRecord > 0.85 {
		t.Errorf("the window took %.3f WAL appends per record, want <= 0.85", perRecord)
	}
	if parks > 1.05*12.119 {
		t.Errorf("%.3f kernel parks per op, want <= %.3f (12.119 + 5 %%)", parks, 1.05*12.119)
	}
	if groups <= 0 || records <= groups {
		t.Errorf("the window committed %d records in %d groups, want a mean group > 1", records, groups)
	}
}
