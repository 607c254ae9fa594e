package harness

import (
	"testing"
	"time"
)

func TestDiagThreadScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	p := DefaultParams()
	p.Duration = 20 * time.Second
	for _, threads := range []int{1, 4} {
		res := p.Run(EngineSpec{Kind: KindRocksDB, Threads: threads, Slowdown: true}, WorkloadA)
		s := res.MainStats
		t.Logf("RocksDB(%d): %.2f Kops/s stalls[mem=%d l0=%d pend=%d] stallTime=%v slowdowns=%d flushes=%d compactions=%d compRead=%dMB WA=%.2f",
			threads, res.WriteKops(), s.StallEvents[0], s.StallEvents[1], s.StallEvents[2],
			s.StallTime, s.Slowdowns, s.Flushes, s.Compactions, s.CompactionReadBytes>>20, s.WriteAmplification())
	}
}
