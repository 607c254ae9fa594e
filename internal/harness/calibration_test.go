package harness

import (
	"testing"
	"time"

	"kvaccel/internal/core"
)

// shortParams is a fast configuration for CI-grade checks.
func shortParams() Params {
	p := DefaultParams()
	p.Duration = 15 * time.Second
	p.KeySpace = 50_000
	return p
}

func TestCalibrationRocksDBNoSlowdownStalls(t *testing.T) {
	p := shortParams()
	res := p.Run(EngineSpec{Kind: KindRocksDB, Threads: 1, Slowdown: false}, WorkloadA)
	t.Logf("RocksDB(1) no-slowdown: %.2f Kops/s avg, stalls=%d stallTime=%v slowdowns=%d cpu=%.1f%% writes=%d",
		res.WriteKops(), res.MainStats.TotalStalls(), res.MainStats.StallTime, res.MainStats.Slowdowns, res.CPUAvg, res.Rec.Writes())
	t.Logf("per-second write Kops: %v", res.Rec.WriteSeries.Values())
	t.Logf("pcie MB/s: %v", res.PCIeSeries.Values())
	if res.Rec.Writes() == 0 {
		t.Fatal("no writes completed")
	}
	if res.MainStats.TotalStalls() == 0 {
		t.Error("expected hard stalls with slowdown disabled")
	}
	if res.MainStats.Slowdowns != 0 {
		t.Error("slowdowns fired while disabled")
	}
}

func TestCalibrationRocksDBWithSlowdown(t *testing.T) {
	p := shortParams()
	res := p.Run(EngineSpec{Kind: KindRocksDB, Threads: 1, Slowdown: true}, WorkloadA)
	t.Logf("RocksDB(1) slowdown: %.2f Kops/s avg, stalls=%d slowdowns=%d min-sec=%.2f",
		res.WriteKops(), res.MainStats.TotalStalls(), res.MainStats.Slowdowns, res.Rec.WriteSeries.Min())
	if res.MainStats.Slowdowns == 0 {
		t.Error("slowdown never engaged")
	}
}

func TestCalibrationKVAccelRedirects(t *testing.T) {
	p := shortParams()
	res := p.Run(EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackDisabled}, WorkloadA)
	t.Logf("KVAccel(1): %.2f Kops/s avg, redirects=%d stalls=%d stallTime=%v",
		res.WriteKops(), res.KVStats.RedirectedPuts, res.MainStats.TotalStalls(), res.MainStats.StallTime)
	t.Logf("per-second write Kops: %v", res.Rec.WriteSeries.Values())
	if res.KVStats.RedirectedPuts == 0 {
		t.Error("KVACCEL never redirected despite write pressure")
	}
}
