package harness

import (
	"fmt"
	"sync/atomic"
	"time"

	"kvaccel"
	"kvaccel/internal/core"
	"kvaccel/internal/cpu"
	"kvaccel/internal/lsm"
	"kvaccel/internal/metrics"
	"kvaccel/internal/nvme"
	"kvaccel/internal/pcie"
	"kvaccel/internal/ssd"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
	"kvaccel/internal/workload"
)

// WorkloadKind selects the Table IV workload.
type WorkloadKind int

const (
	// WorkloadA is fillrandom, one unthrottled write thread.
	WorkloadA WorkloadKind = iota
	// WorkloadB is readwhilewriting at a 9:1 write/read mix.
	WorkloadB
	// WorkloadC is readwhilewriting at an 8:2 write/read mix.
	WorkloadC
	// WorkloadD is seekrandom (Seek + 1024 Next) after a preload.
	WorkloadD
	// WorkloadMixed is a YCSB-style mixed workload (Params.Mix picks the
	// preset) over a preloaded keyspace.
	WorkloadMixed
)

func (w WorkloadKind) String() string {
	return [...]string{"A(fillrandom)", "B(readwhilewriting 9:1)", "C(readwhilewriting 8:2)", "D(seekrandom)", "Mixed(ycsb)"}[w]
}

// RunResult is everything one run measured.
type RunResult struct {
	Spec     EngineSpec
	Workload WorkloadKind

	Rec *workload.Recorder

	// Per-second samples.
	PCIeSeries *metrics.Series // MB/s, both directions
	PCIeH2D    *metrics.Series // MB/s host-to-device
	PCIeD2H    *metrics.Series // MB/s device-to-host
	CPUSeries  *metrics.Series // percent of host pool; empty for sharded specs
	StallFlags []bool          // second spent >=20% stalled or stop-stalled

	CPUAvg   float64 // mean host CPU percent; 0 for sharded specs
	Duration time.Duration

	// MainStats and KVStats are summed across shards for sharded specs.
	MainStats lsm.Stats
	// KVStats is the full KVACCEL controller snapshot (front-cache
	// counters, per-source read attribution); zero for baselines.
	KVStats core.Stats
	// PerShard is each shard's own counters; nil unless RunSharded ran.
	PerShard []kvaccel.Stats
	// MixSpec is the resolved mixed-workload spec (WorkloadMixed only).
	MixSpec   workload.MixSpec
	Levels    string // final tree shape; empty for sharded specs
	Redirects int64
	// WouldStallRedirects is the subset of Redirects taken because the
	// engine refused non-blocking admission (ErrWouldStall), rather than
	// because the Detector's stall signal was up.
	WouldStallRedirects int64
	Rollbacks           int64
	// Fault-injection counters: Injected counts faults the plan fired
	// (all classes, any layer); the Dev* trio is the KVACCEL
	// controller's retry-policy view (zero for baselines and for runs
	// without Params.FaultsSeed).
	Injected   int64
	DevErrors  int64
	DevRetries int64
	DevFailed  int64
	// Queues snapshots every NVMe queue pair at the end of the run.
	Queues []nvme.QueueStats
	// Kernel is the virtual clock's event counts for the whole run: what
	// the simulation cost the host, in parks, wakes and runners started.
	Kernel vclock.Stats

	// TraceSummary and TraceStalls are the per-phase virtual-time
	// attribution and the stall-window report; nil unless Params.Trace
	// was set.
	TraceSummary *trace.Summary
	TraceStalls  *trace.StallReport

	valueSize int
}

// WriteKops returns average write throughput in Kops/s.
func (res *RunResult) WriteKops() float64 {
	if res.Duration <= 0 {
		return 0
	}
	return float64(res.Rec.Writes()) / res.Duration.Seconds() / 1000
}

// ReadKops returns average read throughput in Kops/s.
func (res *RunResult) ReadKops() float64 {
	if res.Duration <= 0 {
		return 0
	}
	return float64(res.Rec.Reads()) / res.Duration.Seconds() / 1000
}

// ScanKops returns average range-scan throughput in Kops/s.
func (res *RunResult) ScanKops() float64 {
	if res.Duration <= 0 {
		return 0
	}
	return float64(res.Rec.Scans()) / res.Duration.Seconds() / 1000
}

// WriteMBps returns average user write bandwidth in MB/s.
func (res *RunResult) WriteMBps() float64 {
	if res.Duration <= 0 {
		return 0
	}
	return float64(res.Rec.Writes()) * float64(res.valueSize) / 1e6 / res.Duration.Seconds()
}

// Efficiency is the paper's Eq. 1: throughput (MB/s) over average CPU
// utilization (percent).
func (res *RunResult) Efficiency() float64 {
	if res.CPUAvg <= 0 {
		return 0
	}
	return res.WriteMBps() / res.CPUAvg
}

// machine is what one workload run drives and samples: an engine
// front-end and the simulated hardware under it, with the clock held.
// Params.Run builds one from a Testbed and an Engine, Params.RunSharded
// from a kvaccel.ShardedDB, and both hand it to the same drive.
type machine struct {
	clk *vclock.Clock
	// spawn registers a runner on clk; release drops the hold taken
	// before the engine's background runners started.
	spawn   func(name string, fn func(r *vclock.Runner))
	release func()
	dev     *ssd.Device
	cpu     *cpu.Pool // nil: ShardedDB keeps its host pool private
	eng     workload.Engine
	mains   []core.MainEngine // one per shard
	kvs     []*core.DB        // KVACCEL controllers, one per shard; nil for baselines
	sharded bool              // report per-shard counters
	close   func()
}

// mainStats sums the Main-LSM counters across shards.
func (m *machine) mainStats() lsm.Stats {
	s := m.mains[0].Stats()
	for _, main := range m.mains[1:] {
		s = s.Add(main.Stats())
	}
	return s
}

func (m *machine) stalled() bool {
	for _, main := range m.mains {
		if main.Health().Stalled {
			return true
		}
	}
	return false
}

func (m *machine) waitIdle(r *vclock.Runner) {
	for _, main := range m.mains {
		main.WaitIdle(r)
	}
}

// fanOut runs one on r and on n-1 further runners, each with its own
// derived seed, and returns when all have finished.
func (m *machine) fanOut(r *vclock.Runner, n int, name string, cfg workload.Config, one func(*vclock.Runner, workload.Config)) {
	var wg vclock.WaitGroup
	for i := 1; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*101
		wg.Add(1)
		m.clk.Go(fmt.Sprintf("harness.%s%d", name, i), func(wr *vclock.Runner) {
			one(wr, c)
			wg.Done()
		})
	}
	one(r, cfg)
	wg.Wait(r)
}

// RunSharded is Run on a kvaccel.ShardedDB of the given number of
// hash-partitioned KVACCEL shards sharing one machine (spec.Kind is taken
// as KindKVAccel; the label is spec.ShardedName(shards)). ShardedDB has
// no seam for a tracer, a fault plan or the Tune hooks; a run that asks
// for the first two is refused rather than run without them. The shard
// count is an argument, not an EngineSpec field, so that BuildEngine and
// what else takes a spec by value compile to the same code either way.
func (p Params) RunSharded(spec EngineSpec, shards int, kind WorkloadKind) *RunResult {
	if p.Trace != nil || p.FaultsSeed != 0 {
		panic("harness: sharded engines take no tracer and no fault plan")
	}
	opt := kvaccel.DefaultShardedOptions()
	opt.Shards = shards
	opt.Scale = p.Scale
	opt.HostCores = p.HostCores
	opt.CompactionThreads = spec.Threads
	opt.Rollback = spec.Rollback
	opt.QueueDepth = p.QueueDepth
	opt.IOQueues = p.IOQueues
	opt.ValueThreshold = p.ValueThreshold
	opt.DevReadCacheBytes = p.DevReadCacheBytes
	opt.FrontCacheBytes = p.FrontCacheBytes
	opt.FrontCacheNegative = p.FrontCacheNegative
	opt.FrontCacheDoorkeeper = p.FrontCacheDoorkeeper
	opt.OffloadCompaction = p.OffloadCompaction
	db := kvaccel.OpenSharded(opt) // holds the clock until the first Run
	m := &machine{
		clk:     db.Clock(),
		spawn:   db.Run,
		release: db.Clock().Hold(),
		dev:     db.Device(),
		eng:     workload.ShardedEngine{DB: db},
		sharded: true,
		close:   db.Close,
	}
	for i := 0; i < db.NumShards(); i++ {
		m.kvs = append(m.kvs, db.Shard(i))
		m.mains = append(m.mains, db.Shard(i).Main())
	}
	return p.drive(m, spec, kind)
}

// Run executes one workload against one engine spec on a fresh machine.
func (p Params) Run(spec EngineSpec, kind WorkloadKind) *RunResult {
	tb := p.NewTestbed()
	// BuildEngine starts periodic background runners (detector, rollback);
	// hold the clock so they cannot free-run virtual time before the
	// sampler and workload are registered.
	release := tb.Clk.Hold()
	eng := p.BuildEngine(tb, spec)
	m := &machine{
		clk: tb.Clk, spawn: tb.Clk.Go, release: release, dev: tb.Dev, cpu: tb.CPU,
		eng: eng.Eng, mains: []core.MainEngine{eng.Main}, close: eng.Close,
	}
	if eng.KV != nil {
		m.kvs = []*core.DB{eng.KV}
	}
	res := p.drive(m, spec, kind)
	res.Levels = eng.Main.LevelsString()
	if tb.Faults != nil {
		res.Injected = tb.Faults.TotalInjected()
	}
	if p.Trace != nil {
		s := p.Trace.Summary()
		res.TraceSummary = &s
		r := p.Trace.StallReport()
		res.TraceStalls = &r
	}
	return res
}

// drive is the one workload dispatch: a per-second sampler plus the
// workload's writers/clients on m, joined and torn down, with the
// engine counters collected afterwards.
func (p Params) drive(m *machine, spec EngineSpec, kind WorkloadKind) *RunResult {
	cfg := p.workloadConfig()
	switch kind {
	case WorkloadB:
		cfg.ReadFraction = 0.1
	case WorkloadC:
		cfg.ReadFraction = 0.2
	}

	res := &RunResult{
		Spec:       spec,
		Workload:   kind,
		valueSize:  cfg.ValueSize,
		Rec:        workload.NewRecorder(spec.Name()),
		PCIeSeries: metrics.NewSeries(spec.Name() + ".pcie-mbps"),
		PCIeH2D:    metrics.NewSeries(spec.Name() + ".pcie-h2d-mbps"),
		PCIeD2H:    metrics.NewSeries(spec.Name() + ".pcie-d2h-mbps"),
		CPUSeries:  metrics.NewSeries(spec.Name() + ".cpu-pct"),
	}

	var done atomic.Bool
	var cpuSum float64
	var cpuN int

	// Sampler at the paper-equivalent cadence: the paper samples Intel
	// PCM once per second over 600 s; a scale-N run of 600/N seconds
	// samples every 1/N s, so both produce 600 points and the same
	// phase resolution. The time axis is reported in paper-equivalent
	// seconds (virtual seconds x scale).
	scale := p.Scale
	if scale < 1 {
		scale = 1
	}
	interval := time.Second / time.Duration(scale)
	m.spawn("harness.sampler", func(r *vclock.Runner) {
		var lastStall time.Duration
		for !done.Load() {
			r.Sleep(interval)
			t := r.Now().Seconds() * float64(scale)
			res.Rec.Sample(t, interval)
			res.PCIeSeries.Append(t, m.dev.Link.SampleMBps(interval))
			res.PCIeH2D.Append(t, m.dev.Link.SampleDirMBps(pcie.HostToDevice, interval))
			res.PCIeD2H.Append(t, m.dev.Link.SampleDirMBps(pcie.DeviceToHost, interval))
			if m.cpu != nil {
				util := m.cpu.Sample(r.Now())
				res.CPUSeries.Append(t, util)
				cpuSum += util
				cpuN++
			}
			stallTime := m.mainStats().StallTime
			stalledNow := stallTime-lastStall >= interval/5 || m.stalled()
			lastStall = stallTime
			res.StallFlags = append(res.StallFlags, stalledNow)
		}
	})

	m.spawn("harness.workload", func(r *vclock.Runner) {
		start := r.Now()
		switch kind {
		case WorkloadA:
			m.fanOut(r, p.Writers, "writer", cfg, func(r *vclock.Runner, c workload.Config) {
				workload.FillRandom(r, m.eng, c, res.Rec)
			})
		case WorkloadB, WorkloadC:
			m.fanOut(r, p.Writers, "writer", cfg, func(r *vclock.Runner, c workload.Config) {
				workload.ReadWhileWriting(r, m.clk, m.eng, c, res.Rec)
			})
		case WorkloadD:
			workload.FillSequential(r, m.eng, cfg, p.KeySpace)
			m.waitIdle(r)
			if m.kvs != nil {
				// The paper's workload D follows a 20 GB fillrandom whose
				// stalls leave redirected pairs in the Dev-LSM; reproduce
				// that residency so range queries exercise the
				// dual-iterator path (rollback stays disabled).
				for _, kv := range m.kvs {
					kv.Detector().SetOverride(true)
				}
				for i := 0; i < p.KeySpace; i += 10 {
					_ = m.eng.Put(r, workload.Key(i), workload.MakeValue(i, cfg.ValueSize))
				}
				for _, kv := range m.kvs {
					kv.Detector().SetOverride(false)
				}
			}
			start = r.Now() // measure only the query phase
			workload.SeekRandom(r, m.eng, cfg, res.Rec)
		case WorkloadMixed:
			mix := p.ResolveMix()
			res.MixSpec = mix
			workload.FillSequential(r, m.eng, cfg, p.KeySpace)
			m.waitIdle(r)
			state := workload.NewMixedState(p.KeySpace)
			start = r.Now() // measure only the mixed phase
			m.fanOut(r, p.Writers, "client", cfg, func(r *vclock.Runner, c workload.Config) {
				_ = workload.RunMixed(r, m.eng, c, mix, state, res.Rec)
			})
		}
		res.Duration = r.Now().Sub(start)
		done.Store(true)
		m.close()
	})
	m.release()

	m.clk.Wait()
	res.Kernel = m.clk.Stats()

	if cpuN > 0 {
		res.CPUAvg = cpuSum / float64(cpuN)
	}
	res.MainStats = m.mainStats()
	res.Queues = m.dev.QueueStats()
	for i, kv := range m.kvs {
		s := kv.Stats()
		res.KVStats = res.KVStats.Add(s)
		if m.sharded {
			res.PerShard = append(res.PerShard, kvaccel.Stats{KVAccel: s, Main: m.mains[i].Stats()})
		}
	}
	res.Redirects = res.KVStats.RedirectedPuts
	res.WouldStallRedirects = res.KVStats.WouldStallRedirects
	res.Rollbacks = res.KVStats.Rollbacks
	res.DevErrors = res.KVStats.DevErrors
	res.DevRetries = res.KVStats.DevRetries
	res.DevFailed = res.KVStats.DevFailed
	return res
}
