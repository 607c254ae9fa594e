// Package machine builds the one simulated machine every caller runs on —
// the paper's 8-core evaluation host and one Cosmos+ board (§VI-A) — and
// holds its one calibration: how a scale factor renders into the device,
// Main-LSM and KVACCEL configurations. kvaccel.Open, kvaccel.OpenSharded
// and the harness testbed all assemble through New and open their engines
// through OpenLSM and OpenKVAccel, so one shard is the unsharded engine by
// construction.
//
// Scaling: a scale-s machine divides device bandwidth and host buffer
// budgets by s and multiplies every per-operation CPU cost, host and
// controller alike, by s, so 600/s virtual seconds reproduce the paper's
// 600-second dynamics.
package machine

import (
	"time"

	"kvaccel/internal/core"
	"kvaccel/internal/cpu"
	"kvaccel/internal/fs"
	"kvaccel/internal/lsm"
	"kvaccel/internal/ssd"
	"kvaccel/internal/vclock"
)

// Machine is one assembled host and SSD whose block and KV regions are
// split into len(Shards) equal write domains.
type Machine struct {
	Clk *vclock.Clock
	Dev *ssd.Device
	// CPU is the host's cores; every engine on the machine charges it.
	CPU    *cpu.Pool
	Shards []Shard
}

// Shard is one write domain: a block namespace with the file system on
// it, and a slice of the KV region (the whole region on a one-shard
// machine).
type Shard struct {
	NS   *ssd.BlockNS
	Fsys *fs.FileSystem
	KV   *ssd.KVRegion
}

func clamp(scale int) int { return max(scale, 1) }

// DeviceConfig renders the Cosmos+ board at scale: ssd.CosmosConfig
// divides its bandwidth, and every controller CPU cost is multiplied.
func DeviceConfig(scale int) ssd.Config {
	s := time.Duration(clamp(scale))
	cfg := ssd.CosmosConfig(int(s))
	cfg.DevLSM.PutCPU = 4 * time.Microsecond * s
	cfg.DevLSM.GetCPU *= s
	cfg.DevLSM.ScanCPUPerKB *= s
	// The merge executor shares the ARM core: its per-KB cost scales with
	// the machine like every other CPU cost, so the host/device merge
	// speed ratio is scale-invariant.
	cfg.DevLSM.MergeCPUPerKB *= s
	cfg.KVCommandOverhead = 3 * time.Microsecond * s
	return cfg
}

// LSMOptions renders Table III's Main-LSM at scale with the whole
// machine's host budgets; OpenLSM divides them among the shards.
// Slowdown stays off (KVACCEL redirects instead of throttling).
func LSMOptions(scale int) lsm.Options {
	s := int64(clamp(scale))
	opt := lsm.DefaultOptions(nil)     // OpenLSM charges the machine's pool
	opt.MemtableSize = (128 << 20) / s // Table III: 128 MB memtables
	// RocksDB default L0 triggers (4 compaction / 20 slowdown / 36 stop).
	opt.L0CompactionTrigger = 4
	opt.L0SlowdownTrigger = 20
	opt.L0StopTrigger = 36
	opt.BaseLevelBytes = (256 << 20) / s
	opt.MaxFileSize = (64 << 20) / s
	// RocksDB defaults: soft/hard pending-compaction limits of 64/256 GB;
	// at data-set scale they act as backstops, not steady-state throttles.
	opt.PendingCompactionSlowdownBytes = (64 << 30) / s
	opt.PendingCompactionStopBytes = (256 << 30) / s
	opt.BlockCacheBytes = (512 << 20) / s
	opt.DelayedWriteBytesPerSec = (8 << 20) / s
	// The OS page cache absorbs WAL appends; writers only feel the device
	// through stall conditions, not through synchronous log writes.
	opt.WALChunkSize = 256 << 10
	opt.WALQueueDepth = 512
	sd := time.Duration(s)
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
	return opt
}

// New assembles the machine: clock, device, the KV region's slices, each
// shard's block namespace and file system, then the host pool. The order
// is part of the model — the NVMe arbiter visits queue pairs in creation
// order — and hostCores < 1 means the paper's 8.
func New(cfg ssd.Config, hostCores, shards int) *Machine {
	shards = max(shards, 1)
	clk := vclock.New()
	dev := ssd.New(clk, cfg)
	kv := dev.KVRegionSlices(shards)
	pages := dev.BlockRegionPages()
	per := pages / shards
	if per < 1 {
		panic("machine: more shards than block-region pages")
	}
	m := &Machine{Clk: clk, Dev: dev, Shards: make([]Shard, shards)}
	for i := range m.Shards {
		n := per
		if i == shards-1 {
			n = pages - i*per // the last shard absorbs the remainder
		}
		ns := dev.BlockNamespace(i*per, n)
		m.Shards[i] = Shard{NS: ns, Fsys: fs.New(ns), KV: kv[i]}
	}
	if hostCores < 1 {
		hostCores = 8
	}
	m.CPU = cpu.NewPool(hostCores, "host-cpu")
	return m
}

// OpenLSM opens a Main-LSM on shard i. opt's buffer budgets are the
// machine's and split evenly over its shards, so N shards spend the host
// memory of one engine; the engine charges the machine's host pool, and
// an offloading one gets its own channel to the device's merge executor.
func (m *Machine) OpenLSM(i int, opt lsm.Options) *lsm.DB {
	n := int64(len(m.Shards))
	opt.MemtableSize /= n
	opt.BaseLevelBytes /= n
	opt.MaxFileSize /= n
	opt.BlockCacheBytes /= n
	opt.CPU = m.CPU
	if opt.EnableCompactionOffload {
		opt.Offloader = m.Shards[i].NS.Offloader()
	}
	return lsm.Open(m.Clk, m.Shards[i].Fsys, opt)
}

// OpenKVAccel opens a KVACCEL shard on every write domain — its Main-LSM
// (OpenLSM), then the controller over its KV slice — and returns the
// controllers and their Main-LSMs. copt's front-cache budget splits like
// the Main-LSM's buffers. Without the stall failover the accelerator is
// off: the detector is pinned to the normal path too.
func (m *Machine) OpenKVAccel(lopt lsm.Options, copt core.Options) ([]*core.DB, []*lsm.DB) {
	copt.FrontCacheBytes /= int64(len(m.Shards))
	kvs := make([]*core.DB, len(m.Shards))
	mains := make([]*lsm.DB, len(m.Shards))
	for i, s := range m.Shards {
		mains[i] = m.OpenLSM(i, lopt)
		kvs[i] = core.Open(m.Clk, mains[i], s.KV, copt)
		if !copt.StallFailover {
			kvs[i].Detector().SetOverride(false)
		}
	}
	return kvs, mains
}
