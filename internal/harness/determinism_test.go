package harness

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"kvaccel/internal/core"
	"kvaccel/internal/lsm"
	"kvaccel/internal/vclock"
	"kvaccel/internal/workload"
)

// runVirtual is what a run's virtual outcome is compared by: the
// recorder's counts and every engine and kernel counter.
type runVirtual struct {
	Writes, Reads int64
	Main          lsm.Stats
	KV            core.Stats
	Kernel        vclock.Stats
}

func virtualOf(res *RunResult) runVirtual {
	return runVirtual{res.Rec.Writes(), res.Rec.Reads(), res.MainStats, res.KVStats, res.Kernel}
}

// TestSameSeedSameRunOnAnyCoreCount: a seed is a run. Three short
// configurations each run at GOMAXPROCS 1 and at 4 and must give the same
// virtual results to the last counter: the kernel runs one runner at a
// time, in an order of its own, so neither host cores nor the Go
// scheduler have a say in what the simulation does. The fill's small
// memtables and tight L0 triggers make it stall, redirect and roll back
// within its second; the YCSB-B run's hot set overflows its front cache;
// the torture run cuts power five times, under injected faults. The two
// serving runs put each connection's handler and reply writer, kernel
// tasks whose steps run on whichever goroutine holds the baton, behind
// the batcher and, with batching off and scans in the mix, in front of
// engine calls made through Runner.Call.
func TestSameSeedSameRunOnAnyCoreCount(t *testing.T) {
	configs := []struct {
		name string
		run  func() any
	}{
		{"fill-vlog-lazy", func() any {
			p := DefaultParams()
			p.Duration = 1 * time.Second
			p.KeySpace = 20_000
			p.ValueThreshold = 1024
			p.Writers = 2
			p.TuneLSM = func(o *lsm.Options) {
				o.MemtableSize = 1 << 20
				o.L0CompactionTrigger = 2
				o.L0SlowdownTrigger = 3
				o.L0StopTrigger = 4
			}
			return virtualOf(p.Run(EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackLazy}, WorkloadA))
		}},
		{"ycsb-b-front-cache", func() any {
			p, spec := ycsbBParams()
			p.Duration = 400 * time.Millisecond
			p.KeySpace = 2_000
			p.Writers = 2
			p.FrontCacheBytes = 1 << 20
			return virtualOf(p.Run(spec, WorkloadMixed))
		}},
		{"torture", func() any {
			return RunTorture(DefaultTortureParams(2))
		}},
		{"serve-batched", func() any {
			p := smallServeParams()
			p.Load.Duration = 30 * time.Millisecond
			return *p.RunServe()
		}},
		{"serve-direct-scans", func() any {
			p := smallServeParams()
			p.Load.Duration = 30 * time.Millisecond
			p.Server.Batch = false
			p.Load.Mix = workload.MixSpec{Name: "a-with-scans", ReadPct: 0.45, UpdatePct: 0.45, ScanPct: 0.1,
				Dist: workload.DistZipfian, MaxScanLen: 16}
			res := p.RunServe()
			if res.Server.DirectOps == 0 || res.Load.OK == 0 {
				panic("the direct-dispatch run answered nothing")
			}
			return *res
		}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			var got []any
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got = append(got, cfg.run())
				runtime.GOMAXPROCS(prev)
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("the same seed ran two ways:\nGOMAXPROCS 1: %+v\nGOMAXPROCS 4: %+v", got[0], got[1])
			}
		})
	}
}
