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

	"kvaccel"
	"kvaccel/internal/adoc"
	"kvaccel/internal/core"
	"kvaccel/internal/faults"
	"kvaccel/internal/fs"
	"kvaccel/internal/lsm"
	"kvaccel/internal/machine"
	"kvaccel/internal/trace"
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
	// Writers is the number of concurrent writer or client runners the
	// fill, readwhilewriting and mixed workloads fan out over (kvbench's
	// -writers flag); 0 or 1 keeps the single-writer setup. Each runs the
	// full configured duration with its own derived seed.
	Writers int
	// LingerMicros is read by nothing: a group leader no longer waits
	// for followers. It stays only because the benchmark's engine setup
	// still sets it (bench/engine.go:28).
	LingerMicros int64
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

	// QueueDepth overrides the NVMe per-queue submission depth; 0 keeps
	// the device default (32). The queue-depth sweep ablation varies it.
	QueueDepth int
	// IOQueues is the number of block-interface queue pairs the file
	// system stripes over; 0 keeps the default (1).
	IOQueues int
	// TuneLSM, if set, adjusts the Main-LSM options after the standard
	// Table III rendering — small memtables and tight L0 triggers for
	// tests that need flushes and compactions within a short run.
	TuneLSM func(*lsm.Options)
	// FaultsSeed, when non-zero, arms a deterministic device fault plan
	// (DefaultFaultRules) with that seed — kvbench's -faults-seed flag.
	// The device holds the plan (Dev.FaultPlan), so callers can read its
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
	return cfg
}

// Testbed is one assembled simulated machine (internal/machine). Fsys is
// shard 0's file system, the one a single engine runs on.
type Testbed struct {
	*machine.Machine
	Fsys *fs.FileSystem
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
func (p Params) NewTestbed() *Testbed { return p.newTestbed(1) }

// newTestbed builds the machine with its block and KV regions split into
// shards write domains, carrying this run's queue shape, fault plan and
// tracer.
func (p Params) newTestbed(shards int) *Testbed {
	cfg := machine.DeviceConfig(p.Scale)
	if p.QueueDepth > 0 {
		cfg.NVMe.QueueDepth = p.QueueDepth
	}
	if p.IOQueues > 0 {
		cfg.IOQueues = p.IOQueues
	}
	if p.FaultsSeed != 0 {
		cfg.Faults = faults.NewPlan(p.FaultsSeed)
		DefaultFaultRules(cfg.Faults)
	}
	cfg.Trace = p.Trace
	m := machine.New(cfg, shards)
	return &Testbed{Machine: m, Fsys: m.Shards[0].Fsys}
}

// scale is Params.Scale clamped to its floor of 1.
func (p Params) scale() int { return max(p.Scale, 1) }

// lsmOptions renders one run's Main-LSM: the machine's calibration plus
// what the run varies.
func (p Params) lsmOptions(threads int, slowdown bool) lsm.Options {
	opt := machine.LSMOptions(p.Scale)
	opt.CompactionThreads = threads
	opt.EnableSlowdown = slowdown
	opt.ValueThreshold = p.ValueThreshold
	opt.Trace = p.Trace
	if p.TuneLSM != nil {
		p.TuneLSM(&opt)
	}
	return opt
}

// coreOptions renders one run's KVACCEL module.
func (p Params) coreOptions(rollback core.RollbackScheme) core.Options {
	copt := core.DefaultOptions()
	copt.Rollback = rollback
	copt.Trace = p.Trace
	copt.StallFailover = true // the accelerator is on: would-stall writes redirect
	copt.FrontCacheBytes = p.FrontCacheBytes
	return copt
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

// ShardedName is the label of s run on n > 1 shards by
// Params.RunSharded, e.g. "KVAccel-L-sharded(4)".
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
	Spec EngineSpec
	Eng  workload.Engine
	// Main and KV are shard 0's Main-LSM and KVACCEL controller; KV is
	// nil for baselines.
	Main  *lsm.DB
	KV    *core.DB
	Tuner *adoc.Tuner // nil unless ADOC

	db *kvaccel.DB // every KVACCEL shard behind the hash router; nil for baselines
}

// Close shuts the engine down so the simulation can drain.
func (e *Engine) Close() {
	if e.Tuner != nil {
		e.Tuner.Stop()
	}
	if e.db != nil {
		e.db.Close() // closes every Main-LSM too
	} else {
		e.Main.Close()
	}
}

// BuildEngine assembles the system under test on tb: KVACCEL on every
// shard of the machine behind one kvaccel.DB, a baseline on shard 0.
func (p Params) BuildEngine(tb *Testbed, spec EngineSpec) *Engine {
	switch spec.Kind {
	case KindKVAccel:
		// KVACCEL never slows down.
		kvs, mains := tb.OpenKVAccel(p.lsmOptions(spec.Threads, false), p.coreOptions(spec.Rollback))
		db := kvaccel.NewDB(tb.Machine, kvs)
		return &Engine{Spec: spec, Eng: workload.KVAccelEngine{DB: db}, Main: mains[0], KV: kvs[0], db: db}
	case KindADOC:
		opt := p.lsmOptions(spec.Threads, spec.Slowdown)
		main := tb.OpenLSM(0, opt)
		tuner := adoc.Attach(tb.Clk, main, adoc.DefaultOptions(spec.Threads, opt.MemtableSize))
		return &Engine{Spec: spec, Eng: workload.LSMEngine{DB: main}, Main: main, Tuner: tuner}
	default:
		main := tb.OpenLSM(0, p.lsmOptions(spec.Threads, spec.Slowdown))
		return &Engine{Spec: spec, Eng: workload.LSMEngine{DB: main}, Main: main}
	}
}
