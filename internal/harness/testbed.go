// Package harness assembles full KVACCEL testbeds and regenerates every
// table and figure of the paper's evaluation (§VI). Each experiment
// builds a fresh simulated machine — host CPU pool, dual-interface SSD,
// file system, engine — runs a Table IV workload under the virtual
// clock, and prints the same rows or series the paper plots.
//
// Scaling: Params.Scale divides device bandwidth and all engine buffer
// sizes by N and multiplies per-op CPU costs by N, so a Duration of
// 600s/N reproduces the paper's 600-second dynamics with N² fewer
// simulated operations. Scale=10, Duration=60s is the default; absolute
// throughputs read as paper-values/10 while every ratio and crossover is
// preserved.
package harness

import (
	"strconv"
	"time"

	"kvaccel/internal/adoc"
	"kvaccel/internal/core"
	"kvaccel/internal/cpu"
	"kvaccel/internal/devlsm"
	"kvaccel/internal/faults"
	"kvaccel/internal/fs"
	"kvaccel/internal/lsm"
	"kvaccel/internal/ssd"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
	"kvaccel/internal/workload"
)

// Params scopes one experiment run.
type Params struct {
	// Scale divides device bandwidth and buffer sizes, and multiplies
	// CPU costs (see package comment). 10 reproduces the paper's
	// 600-second figures in 60 virtual seconds.
	Scale int
	// Duration is the workload's virtual run time.
	Duration time.Duration
	// ValueSize and KeySpace shape the key-value traffic (Table IV:
	// 4 KiB values).
	ValueSize int
	KeySpace  int
	// Seed feeds the workload generators.
	Seed int64
	// HostCores bounds the host CPU (the paper limits the Xeon to 8).
	HostCores int
	// Writers is the number of concurrent writer or client runners the
	// fill, readwhilewriting and mixed workloads fan out over (kvbench's
	// -writers flag); 0 or 1 keeps the single-writer setup. Each runs the
	// full configured duration with its own derived seed.
	Writers int
	// LingerMicros is the group leader's adaptive linger window in
	// unscaled virtual microseconds (kvbench's -linger-us flag); it is
	// multiplied by Scale like the CPU costs, so -linger-us 30 at scale
	// 10 opens a 300 µs window. 0 disables lingering.
	LingerMicros int64
	// WriteIntervalMicros, when positive, paces each writer to one put
	// per this many unscaled virtual microseconds (multiplied by Scale
	// like the CPU costs) — a fixed offered load per writer instead of an
	// open throttle. TestRatchet/offload uses it so both arms face the same
	// demand and stall time measures capacity shortfall, not slack.
	WriteIntervalMicros int64
	// ValueThreshold enables WiscKey-style value separation in the
	// Main-LSM: values at least this long live in the value log and the
	// tree carries 13-byte pointers (kvbench's -value-threshold flag);
	// 0 keeps values inline — TestRatchet/value-log's baseline.
	ValueThreshold int

	// Mix names the YCSB-style preset for WorkloadMixed (kvbench's
	// -workload ycsb-a..f); empty defaults to ycsb-b.
	Mix string
	// ReadPct, when > 0, overrides the mix's read fraction (the other
	// fractions rescale proportionally).
	ReadPct float64
	// ZipfTheta, when > 0, overrides the zipfian skew (YCSB default 0.99).
	ZipfTheta float64
	// FrontCacheBytes enables KVACCEL's hot-key front cache (0 = off,
	// matching the paper's design).
	FrontCacheBytes int64
	// FrontCacheNegative additionally caches confirmed-missing keys in
	// the front cache (requires FrontCacheBytes > 0).
	FrontCacheNegative bool
	// FrontCacheDoorkeeper enables second-chance admission on the front
	// cache (requires FrontCacheBytes > 0).
	FrontCacheDoorkeeper bool
	// DisableBlockCache zeroes the Main-LSM's SST block cache — the
	// cold-cache side of the mixed-workload A/B.
	DisableBlockCache bool

	// DMAChunkBytes overrides the bulk-scan DMA unit (512 KiB default) —
	// the §V-E design-choice ablation.
	DMAChunkBytes int
	// QueueDepth overrides the NVMe per-queue submission depth; 0 keeps
	// the device default (32). The queue-depth sweep ablation varies it.
	QueueDepth int
	// IOQueues is the number of block-interface queue pairs the file
	// system stripes over; 0 keeps the default (1).
	IOQueues int
	// DevReadCacheBytes enables the Dev-LSM read cache the paper names
	// as future work (Table V ablation); 0 reproduces the paper.
	DevReadCacheBytes int64
	// OffloadCompaction enables device-side L0→L1 compaction offload:
	// the Main-LSM hands eligible merges to the SSD controller's merge
	// executor (kvbench's -offload-compaction flag). See lsm.Options.
	OffloadCompaction bool
	// TuneCore, if set, adjusts KVACCEL's module options before Open —
	// used by the detector-period and rollback ablations.
	TuneCore func(*core.Options)
	// TuneLSM, if set, adjusts the Main-LSM options after the standard
	// Table III rendering — used by TestRatchet/offload's stall-heavy regime
	// (small memtable, tight L0 triggers).
	TuneLSM func(*lsm.Options)
	// FaultsSeed, when non-zero, arms a deterministic device fault plan
	// (DefaultFaultRules) with that seed — kvbench's -faults-seed flag.
	// The plan is exposed on the Testbed so callers can read its
	// injection counters after the run.
	FaultsSeed int64
	// Trace, when non-nil, records causal op spans across every layer of
	// the testbed (engine write path, background work, NVMe, NAND,
	// Dev-LSM) and attaches a phase-attribution summary and stall report
	// to the RunResult — kvbench's -trace flag. Nil (the default) leaves
	// every hot-path hook at nil-check cost.
	Trace *trace.Tracer
}

// DefaultParams is the scale-10 setup used by cmd/experiments.
func DefaultParams() Params {
	return Params{
		Scale:     10,
		Duration:  60 * time.Second,
		ValueSize: 4096,
		KeySpace:  300_000,
		Seed:      1,
		HostCores: 8,
	}
}

// ResolveMix renders the effective mixed-workload spec: the named
// preset (ycsb-b when unset) with the ReadPct/ZipfTheta overrides
// applied.
func (p Params) ResolveMix() workload.MixSpec {
	name := p.Mix
	if name == "" {
		name = "ycsb-b"
	}
	spec, ok := workload.Mix(name)
	if !ok {
		spec, _ = workload.Mix("ycsb-b")
	}
	if p.ReadPct > 0 {
		spec = spec.WithReadPct(p.ReadPct)
	}
	if p.ZipfTheta > 0 {
		spec.ZipfTheta = p.ZipfTheta
	}
	return spec
}

// workloadConfig renders the Table IV workload config.
func (p Params) workloadConfig() workload.Config {
	cfg := workload.DefaultConfig()
	cfg.ValueSize = p.ValueSize
	cfg.KeySpace = p.KeySpace
	cfg.Duration = p.Duration
	cfg.Seed = p.Seed
	if p.WriteIntervalMicros > 0 {
		scale := int64(p.Scale)
		if scale < 1 {
			scale = 1
		}
		cfg.WriteInterval = time.Duration(p.WriteIntervalMicros*scale) * time.Microsecond
	}
	return cfg
}

// Testbed is one assembled simulated machine.
type Testbed struct {
	Clk    *vclock.Clock
	CPU    *cpu.Pool
	Dev    *ssd.Device
	NS     *ssd.BlockNS // the block namespace Fsys runs on
	Fsys   *fs.FileSystem
	Faults *faults.Plan // nil unless Params.FaultsSeed is set
}

// DefaultFaultRules installs the standard deterministic error-injection
// mix used by both the torture harness and kvbench -faults-seed. Only
// Every-based rules: a single fire always recovers within the
// controller's retry budget, so acknowledged writes keep their exact
// durability guarantees (a Prob-based rule could exhaust retries and
// silently drop a supersede marker — the documented §9 hazard). KV
// opcodes and block-WRITE latency only — a block-write *error* wedges
// the Main-LSM read-only by design, which would end the run early.
func DefaultFaultRules(plan *faults.Plan) {
	plan.AddRule(faults.Rule{Op: "KV_PUT", Class: faults.MediaError, Every: 97})
	plan.AddRule(faults.Rule{Op: "KV_GET", Class: faults.Timeout, Every: 61, Delay: 200 * time.Microsecond})
	plan.AddRule(faults.Rule{Op: "KV_GET", Class: faults.MediaError, Every: 113})
	plan.AddRule(faults.Rule{Op: "WRITE", Class: faults.LatencySpike, Every: 31, Delay: 500 * time.Microsecond})
	plan.AddRule(faults.Rule{Op: "KV_PUT_COMPOUND", Class: faults.MediaError, Every: 53})
}

// NewTestbed builds the machine: an 8-core host and a Cosmos+-derived
// dual-interface SSD at the configured scale.
func (p Params) NewTestbed() *Testbed {
	clk := vclock.New()
	hostCores := p.HostCores
	if hostCores <= 0 {
		hostCores = 8
	}
	scale := p.Scale
	if scale < 1 {
		scale = 1
	}
	cfg := ssd.CosmosConfig(scale)
	cfg.DevLSM = p.devLSMConfig()
	cfg.KVCommandOverhead = 3 * time.Microsecond * time.Duration(scale)
	if p.DMAChunkBytes > 0 {
		cfg.DMAChunkSize = p.DMAChunkBytes
	}
	if p.QueueDepth > 0 {
		cfg.NVMe.QueueDepth = p.QueueDepth
	}
	if p.IOQueues > 0 {
		cfg.IOQueues = p.IOQueues
	}
	var plan *faults.Plan
	if p.FaultsSeed != 0 {
		plan = faults.NewPlan(p.FaultsSeed)
		DefaultFaultRules(plan)
		cfg.Faults = plan
	}
	cfg.Trace = p.Trace
	dev := ssd.New(clk, cfg)
	ns := dev.BlockNamespace(0, 0)
	return &Testbed{
		Clk:    clk,
		CPU:    cpu.NewPool(hostCores, "host-cpu"),
		Dev:    dev,
		NS:     ns,
		Fsys:   fs.New(ns),
		Faults: plan,
	}
}

func (p Params) devLSMConfig() devlsm.Config {
	scale := time.Duration(p.Scale)
	if scale < 1 {
		scale = 1
	}
	c := devlsm.DefaultConfig()
	c.MemtableBytes = 4 << 20 // device DRAM is not scaled
	c.ReadCacheBytes = p.DevReadCacheBytes
	c.PutCPU = 4 * time.Microsecond * scale
	c.GetCPU *= scale
	c.ScanCPUPerKB *= scale
	// The merge executor shares the ARM core: its per-KB cost scales with
	// the machine like every other CPU cost, so the host/device merge
	// speed ratio is scale-invariant.
	c.MergeCPUPerKB *= scale
	return c
}

// lsmOptions renders the Table III engine configuration at scale.
func (p Params) lsmOptions(tb *Testbed, threads int, slowdown bool) lsm.Options {
	scale := int64(p.Scale)
	if scale < 1 {
		scale = 1
	}
	opt := lsm.DefaultOptions(tb.CPU)
	opt.MemtableSize = (128 << 20) / scale // Table III: 128 MB memtables
	// RocksDB default L0 triggers (4 compaction / 20 slowdown / 36 stop).
	opt.L0CompactionTrigger = 4
	opt.L0SlowdownTrigger = 20
	opt.L0StopTrigger = 36
	opt.BaseLevelBytes = (256 << 20) / scale
	opt.MaxFileSize = (64 << 20) / scale
	// RocksDB defaults: soft/hard pending-compaction limits of 64/256 GB;
	// at data-set scale they act as backstops, not steady-state throttles.
	opt.PendingCompactionSlowdownBytes = (64 << 30) / scale
	opt.PendingCompactionStopBytes = (256 << 30) / scale
	opt.BlockCacheBytes = (512 << 20) / scale
	if p.DisableBlockCache {
		opt.BlockCacheBytes = 0
		opt.VLogReadCacheBytes = -1 // negative disables (0 means default)
	}
	opt.CompactionThreads = threads
	opt.MaxCompactionThreads = 8
	opt.EnableSlowdown = slowdown
	opt.DelayedWriteBytesPerSec = (8 << 20) / scale
	// The OS page cache absorbs WAL appends; writers only feel the device
	// through stall conditions, not through synchronous log writes.
	opt.WALChunkSize = 256 << 10
	opt.WALQueueDepth = 512
	opt.GroupLingerMicros = p.LingerMicros * int64(scale)
	opt.ValueThreshold = p.ValueThreshold
	sd := time.Duration(scale)
	opt.Cost.WriteCPU *= sd
	opt.Cost.WALAppendCPU *= sd
	opt.Cost.ReadCPU *= sd
	opt.Cost.IterCPU *= sd
	// Merge runs at ~their Xeon's native speed against a slow interconnect
	// (§VI-A's CPU/PCIe mismatch): one compaction thread already comes
	// close to the device ceiling, so extra threads mostly burn host CPU —
	// the regime ADOC is evaluated in. ~160 MB/s per thread at scale 1.
	opt.Cost.MergeCPUPerKB = opt.Cost.MergeCPUPerKB * sd * 4 / 10
	opt.Cost.FlushCPUPerKB *= sd
	opt.Trace = p.Trace
	if p.OffloadCompaction {
		opt.EnableCompactionOffload = true
		opt.Offloader = tb.NS.Offloader()
	}
	if p.TuneLSM != nil {
		p.TuneLSM(&opt)
	}
	return opt
}

// EngineKind names the systems under test.
type EngineKind int

const (
	// KindRocksDB is the stock engine (slowdown per run config).
	KindRocksDB EngineKind = iota
	// KindADOC is RocksDB plus the ADOC auto-tuner.
	KindADOC
	// KindKVAccel is the paper's system: redirection + rollback, no
	// slowdown.
	KindKVAccel
)

func (k EngineKind) String() string {
	switch k {
	case KindRocksDB:
		return "RocksDB"
	case KindADOC:
		return "ADOC"
	case KindKVAccel:
		return "KVAccel"
	}
	return "?"
}

// EngineSpec configures one system under test.
type EngineSpec struct {
	Kind     EngineKind
	Threads  int
	Slowdown bool // RocksDB/ADOC only; KVACCEL never slows down
	Rollback core.RollbackScheme
}

// Name renders the figure-legend label, e.g. "KVAccel-E(4)".
func (s EngineSpec) Name() string {
	return s.label() + "(" + strconv.Itoa(s.Threads) + ")"
}

// ShardedName is the label of s run as n shards by Params.RunSharded,
// e.g. "KVAccel-L-sharded(4)".
func (s EngineSpec) ShardedName(n int) string {
	return s.label() + "-sharded(" + strconv.Itoa(n) + ")"
}

func (s EngineSpec) label() string {
	n := s.Kind.String()
	if s.Kind == KindKVAccel {
		switch s.Rollback {
		case core.RollbackLazy:
			n += "-L"
		case core.RollbackEager:
			n += "-E"
		}
	}
	if !s.Slowdown && s.Kind != KindKVAccel {
		n += "-noSD"
	}
	return n
}

// Engine bundles a running system under test with its teardown handles.
type Engine struct {
	Spec  EngineSpec
	Eng   workload.Engine
	Main  *lsm.DB
	KV    *core.DB    // nil for baselines
	Tuner *adoc.Tuner // nil unless ADOC
}

// Close shuts the engine down so the simulation can drain.
func (e *Engine) Close() {
	if e.Tuner != nil {
		e.Tuner.Stop()
	}
	if e.KV != nil {
		e.KV.Close() // closes Main too
	} else {
		e.Main.Close()
	}
}

// BuildEngine assembles the system under test on tb.
func (p Params) BuildEngine(tb *Testbed, spec EngineSpec) *Engine {
	switch spec.Kind {
	case KindADOC:
		opt := p.lsmOptions(tb, spec.Threads, spec.Slowdown)
		main := lsm.Open(tb.Clk, tb.Fsys, opt)
		tuner := adoc.Attach(tb.Clk, main, adoc.DefaultOptions(spec.Threads, opt.MemtableSize))
		return &Engine{Spec: spec, Eng: workload.LSMEngine{DB: main}, Main: main, Tuner: tuner}
	case KindKVAccel:
		opt := p.lsmOptions(tb, spec.Threads, false) // KVACCEL never slows down
		main := lsm.Open(tb.Clk, tb.Fsys, opt)
		copt := core.DefaultOptions()
		copt.Rollback = spec.Rollback
		copt.Trace = p.Trace
		copt.StallFailover = true // the accelerator is on: would-stall writes redirect
		copt.FrontCacheBytes = p.FrontCacheBytes
		copt.FrontCacheNegative = p.FrontCacheNegative
		copt.FrontCacheDoorkeeper = p.FrontCacheDoorkeeper
		if p.TuneCore != nil {
			p.TuneCore(&copt)
		}
		kv := core.Open(tb.Clk, main, tb.Dev.KVRegionFull(), copt)
		return &Engine{Spec: spec, Eng: workload.KVAccelEngine{DB: kv}, Main: main, KV: kv}
	default:
		opt := p.lsmOptions(tb, spec.Threads, spec.Slowdown)
		main := lsm.Open(tb.Clk, tb.Fsys, opt)
		return &Engine{Spec: spec, Eng: workload.LSMEngine{DB: main}, Main: main}
	}
}
