package harness

import (
	"fmt"
	"time"

	"kvaccel"
	"kvaccel/internal/core"
	"kvaccel/internal/devlsm"
	"kvaccel/internal/lsm"
	"kvaccel/internal/metrics"
	"kvaccel/internal/nvme"
	"kvaccel/internal/pcie"
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
	CPUSeries  *metrics.Series // percent of host pool
	StallFlags []bool          // second spent >=20% stalled or stop-stalled

	CPUAvg   float64 // mean host CPU percent
	Duration time.Duration

	// MainStats and KVStats are summed across shards.
	MainStats lsm.Stats
	// KVStats is the full KVACCEL controller snapshot (front-cache
	// counters, per-source read attribution); zero for baselines.
	KVStats core.Stats
	// PerShard is each shard's own counters; nil on one shard.
	PerShard []kvaccel.Stats
	// MixSpec is the resolved mixed-workload spec (WorkloadMixed only).
	MixSpec workload.MixSpec
	Levels  string // final tree shape; empty on more than one shard
	// Injected counts faults the plan fired (all classes, any layer);
	// KVStats.Dev* are the KVACCEL controller's retry-policy view of them.
	Injected int64
	// Queues snapshots every NVMe queue pair at the end of the run.
	Queues []nvme.QueueStats
	// DevStats is the Dev-LSM counters summed across the shards' KV
	// slices; zero when nothing was redirected.
	DevStats devlsm.Stats
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

// ZeroWriteBuckets returns how many buckets of Rec.WriteSeries completed
// no write: the intervals every writer waited through, which the run's
// mean throughput hides.
func (res *RunResult) ZeroWriteBuckets() int {
	n := 0
	for i := 0; i < res.Rec.WriteSeries.Len(); i++ {
		if _, v := res.Rec.WriteSeries.At(i); v == 0 {
			n++
		}
	}
	return n
}

// Efficiency is the paper's Eq. 1: throughput (MB/s) over average CPU
// utilization (percent).
func (res *RunResult) Efficiency() float64 {
	if res.CPUAvg <= 0 {
		return 0
	}
	return res.WriteMBps() / res.CPUAvg
}

// rig is what one workload run drives and samples: an engine and the
// machine under it.
type rig struct {
	*Testbed
	*Engine
}

// mains is every shard's Main-LSM: each KVACCEL shard's behind db, or
// the baseline's one tree.
func (m *rig) mains() []core.MainEngine {
	if m.db == nil {
		return []core.MainEngine{m.Main}
	}
	mains := make([]core.MainEngine, m.db.NumShards())
	for i := range mains {
		mains[i] = m.db.Shard(i).Main()
	}
	return mains
}

// mainStats sums the Main-LSM counters across shards.
func (m *rig) mainStats() lsm.Stats {
	mains := m.mains()
	s := mains[0].Stats()
	for _, main := range mains[1:] {
		s = s.Add(main.Stats())
	}
	return s
}

func (m *rig) stalled() bool {
	for _, main := range m.mains() {
		if main.Health().Stalled {
			return true
		}
	}
	return false
}

func (m *rig) waitIdle(r *vclock.Runner) {
	for _, main := range m.mains() {
		main.WaitIdle(r)
	}
}

// fanOut runs one on r and on n-1 further runners, each with its own
// derived seed, and returns when all have finished.
func (m *rig) fanOut(r *vclock.Runner, n int, name string, cfg workload.Config, one func(*vclock.Runner, workload.Config)) {
	var wg vclock.WaitGroup
	for i := 1; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*101
		wg.Add(1)
		m.Clk.Go(fmt.Sprintf("harness.%s%d", name, i), func(wr *vclock.Runner) {
			one(wr, c)
			wg.Done()
		})
	}
	one(r, cfg)
	wg.Wait(r)
}

// open assembles spec on a fresh machine of shards write domains: the one
// way every run opens its engine. Only KVACCEL runs on more than one
// shard.
func (p Params) open(spec EngineSpec, shards int) *rig {
	if shards > 1 && spec.Kind != KindKVAccel {
		panic("harness: " + spec.Kind.String() + " runs on one shard")
	}
	tb := p.newTestbed(shards)
	return &rig{Testbed: tb, Engine: p.BuildEngine(tb, spec)}
}

// RunSharded is Run on the given number of hash-partitioned KVACCEL
// shards sharing one machine; more than one shard needs spec.Kind to be
// KindKVAccel. The shard count is an argument, not an EngineSpec field,
// so that BuildEngine and what else takes a spec by value compile to the
// same code either way.
func (p Params) RunSharded(spec EngineSpec, shards int, kind WorkloadKind) *RunResult {
	return p.drive(p.open(spec, shards), spec, kind)
}

// Run executes one workload against one engine spec on a fresh
// one-shard machine.
func (p Params) Run(spec EngineSpec, kind WorkloadKind) *RunResult {
	return p.RunSharded(spec, 1, kind)
}

// drive is the one workload dispatch: a per-second sampler plus the
// workload's writers/clients on m, joined and torn down, with the
// engine counters collected afterwards.
func (p Params) drive(m *rig, spec EngineSpec, kind WorkloadKind) *RunResult {
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

	var done bool
	var cpuSum float64
	var cpuN int

	// Sampler at the paper-equivalent cadence: the paper samples Intel
	// PCM once per second over 600 s; a scale-N run of 600/N seconds
	// samples every 1/N s, so both produce 600 points and the same
	// phase resolution. The time axis is reported in paper-equivalent
	// seconds (virtual seconds x scale).
	scale := p.scale()
	interval := time.Second / time.Duration(scale)
	m.Clk.Go("harness.sampler", func(r *vclock.Runner) {
		var lastStall time.Duration
		for !done {
			r.Sleep(interval)
			t := r.Now().Seconds() * float64(scale)
			res.Rec.Sample(t, interval)
			res.PCIeSeries.Append(t, m.Dev.Link.SampleMBps(interval))
			res.PCIeH2D.Append(t, m.Dev.Link.SampleDirMBps(pcie.HostToDevice, interval))
			res.PCIeD2H.Append(t, m.Dev.Link.SampleDirMBps(pcie.DeviceToHost, interval))
			util := m.CPU.Sample(r.Now())
			res.CPUSeries.Append(t, util)
			cpuSum += util
			cpuN++
			stallTime := m.mainStats().StallTime
			stalledNow := stallTime-lastStall >= interval/5 || m.stalled()
			lastStall = stallTime
			res.StallFlags = append(res.StallFlags, stalledNow)
		}
	})

	m.Clk.Go("harness.workload", func(r *vclock.Runner) {
		start := r.Now()
		switch kind {
		case WorkloadA:
			m.fanOut(r, p.Writers, "writer", cfg, func(r *vclock.Runner, c workload.Config) {
				workload.FillRandom(r, m.Eng, c, res.Rec)
			})
		case WorkloadB, WorkloadC:
			m.fanOut(r, p.Writers, "writer", cfg, func(r *vclock.Runner, c workload.Config) {
				workload.ReadWhileWriting(r, m.Clk, m.Eng, c, res.Rec)
			})
		case WorkloadD:
			workload.FillSequential(r, m.Eng, cfg, p.KeySpace)
			m.waitIdle(r)
			if m.db != nil {
				// The paper's workload D follows a 20 GB fillrandom whose
				// stalls leave redirected pairs in the Dev-LSM; reproduce
				// that residency so range queries exercise the
				// dual-iterator path (rollback stays disabled).
				for i := range m.db.NumShards() {
					m.db.Shard(i).Detector().SetOverride(true)
				}
				for i := 0; i < p.KeySpace; i += 10 {
					_ = m.Eng.Put(r, workload.Key(i), workload.MakeValue(i, cfg.ValueSize))
				}
				for i := range m.db.NumShards() {
					m.db.Shard(i).Detector().SetOverride(false)
				}
			}
			start = r.Now() // measure only the query phase
			workload.SeekRandom(r, m.Eng, cfg, res.Rec)
		case WorkloadMixed:
			mix := p.ResolveMix()
			res.MixSpec = mix
			workload.FillSequential(r, m.Eng, cfg, p.KeySpace)
			m.waitIdle(r)
			state := workload.NewMixedState(p.KeySpace)
			start = r.Now() // measure only the mixed phase
			m.fanOut(r, p.Writers, "client", cfg, func(r *vclock.Runner, c workload.Config) {
				_ = workload.RunMixed(r, m.Eng, c, mix, state, res.Rec)
			})
		}
		res.Duration = r.Now().Sub(start)
		done = true
		m.Close()
	})
	m.Clk.Wait()
	res.Kernel = m.Clk.Stats()

	if cpuN > 0 {
		res.CPUAvg = cpuSum / float64(cpuN)
	}
	res.MainStats = m.mainStats()
	if m.db == nil || m.db.NumShards() == 1 {
		res.Levels = m.Main.LevelsString()
	}
	res.Queues = m.Dev.QueueStats()
	for _, s := range m.Shards {
		res.DevStats = metrics.Sum(res.DevStats, s.KV.DevLSM().Stats())
	}
	if m.db != nil {
		st := m.db.Stats()
		res.KVStats = st.KVAccel
		if len(st.PerShard) > 1 {
			res.PerShard = st.PerShard
		}
	}
	if plan := m.Dev.FaultPlan(); plan != nil {
		res.Injected = plan.TotalInjected()
	}
	if p.Trace != nil {
		s := p.Trace.Summary()
		res.TraceSummary = &s
		r := p.Trace.StallReport()
		res.TraceStalls = &r
	}
	return res
}
