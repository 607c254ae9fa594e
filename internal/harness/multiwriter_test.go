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
// controller's retry policy absorbing the injected errors.
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
	if res.DevFailed > 0 && res.Rec.Writes() == 0 {
		t.Fatalf("device failures starved the run: %+v", res)
	}
}
