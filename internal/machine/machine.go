// Package machine builds the one simulated machine every caller runs on —
// the paper's 8-core evaluation host and one Cosmos+ board (§VI-A) — and
// holds its one calibration: how a scale factor renders into the device,
// Main-LSM and KVACCEL configurations. kvaccel.Open and the harness
// testbed both assemble through New and open their engines through
// OpenLSM and OpenKVAccel, so one shard is the unsharded engine by
// construction.
//
// Scaling: a scale-s machine divides device bandwidth and host buffer
// budgets by s and multiplies every per-operation CPU cost by s, so 600/s
// virtual seconds reproduce the paper's 600-second dynamics. The package
// defaults (lsm, ssd, nvme, devlsm, core) hold the paper's scale-1
// numbers; DeviceConfig and LSMOptions are the only code that applies s:
//
//	constant                         scaled  why
//	NAND page time; bus bandwidth    ×s; ÷s  dies and buses move 1/s of the bytes per second
//	memtable, level and file sizes,  ÷s      buffers fill in 1/s of the time, so flushes,
//	pending-compaction limits,               compactions and stalls keep the paper's rhythm
//	delayed-write rate
//	host and ARM CPU costs           ×s      CPU keeps its share of each op beside the device
//	WAL chunk 256 KiB, queue 512     no      page-cache write-back: writers feel the device
//	                                         through stalls, never through a log write
//	SlowdownSleep 1 ms               no      RocksDB's floor; it binds only over a group's
//	                                         bytes ÷ the scaled delayed-write rate (4 KiB
//	                                         values: at scale 1, not at 10)
//	detector period 0.1 s            no      the paper's sampling (§V-C); scale s samples
//	                                         s times as often per byte written. A check
//	                                         charges no CPU: Table VI's 1.37 µs is
//	                                         measured in wall time by harness.TableVI
//	DMAChunkSize 512 KiB             no      the DMA engine's largest transfer; scaled
//	                                         bandwidth already slows each chunk
//	NVMe doorbell and completion     no      per-command latencies, small beside a scaled
//	1 µs, PCIe latency 2 µs                  NAND page (8 ms at scale 10)
//	block/KV regions 6/2 GiB         no      capacity: a run writes 1/s² of the paper's
//	                                         data, so FTL GC pressure is lower
//	Dev-LSM write buffers 2 × 4 MiB, no      the board's DRAM: a buffer fills s times more
//	8 runs                                   slowly, so Dev-LSM flushes are rarer; the run
//	                                         limit acts only with device compaction, off here
//
// No test yet compares claims across scales: the unscaled rows are where
// to look first if a ratio moves with s.
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

// DeviceConfig renders the Cosmos+ board at scale: every die programs and
// reads s times slower, the channel and PCIe buses carry 1/s of their
// bandwidth, and every controller CPU cost is multiplied by s.
func DeviceConfig(scale int) ssd.Config {
	s := time.Duration(clamp(scale))
	cfg := ssd.CosmosConfig()
	cfg.Timing.ProgramPage *= s
	cfg.Timing.ReadPage *= s
	cfg.Timing.ChannelMBps /= float64(s)
	cfg.PCIe.BandwidthMBps /= float64(s)
	cfg.KVCommandOverhead *= s
	cfg.DevLSM.PutCPU *= s
	cfg.DevLSM.GetCPU *= s
	cfg.DevLSM.ScanCPUPerKB *= s
	return cfg
}

// LSMOptions renders Table III's Main-LSM (lsm.DefaultOptions) at scale
// with the whole machine's host budgets; OpenLSM divides them among the
// shards.
func LSMOptions(scale int) lsm.Options {
	s := int64(clamp(scale))
	opt := lsm.DefaultOptions(nil) // OpenLSM charges the machine's pool
	opt.MemtableSize /= s
	opt.BaseLevelBytes /= s
	opt.MaxFileSize /= s
	opt.PendingCompactionSlowdownBytes /= s
	opt.PendingCompactionStopBytes /= s
	opt.DelayedWriteBytesPerSec /= s
	sd := time.Duration(s)
	opt.Cost.WriteCPU *= sd
	opt.Cost.WALAppendCPU *= sd
	opt.Cost.ReadCPU *= sd
	opt.Cost.IterCPU *= sd
	opt.Cost.MergeCPUPerKB *= sd
	opt.Cost.FlushCPUPerKB *= sd
	return opt
}

// hostCores is the paper's evaluation host: the Xeon limited to 8 cores.
const hostCores = 8

// New assembles the machine: clock, device, the KV region's slices, each
// shard's block namespace and file system, then the host pool. The order
// is part of the model — the NVMe arbiter visits queue pairs in creation
// order.
func New(cfg ssd.Config, shards int) *Machine {
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
	m.CPU = cpu.NewPool(hostCores, "host-cpu")
	return m
}

// OpenLSM opens a Main-LSM on shard i. opt's buffer budgets are the
// machine's and split evenly over its shards, so N shards spend the host
// memory of one engine; the engine charges the machine's host pool.
func (m *Machine) OpenLSM(i int, opt lsm.Options) *lsm.DB {
	n := int64(len(m.Shards))
	opt.MemtableSize /= n
	opt.BaseLevelBytes /= n
	opt.MaxFileSize /= n
	opt.CPU = m.CPU
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
