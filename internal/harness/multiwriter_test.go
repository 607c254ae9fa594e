package harness

import (
	"testing"
	"time"

	"kvaccel/internal/core"
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
