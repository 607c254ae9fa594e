// Package lsm implements the host-side Main-LSM engine: a leveled
// LSM-tree with WAL, immutable-memtable flushes, L0→L1 serialized
// compaction, background compaction threads, and — crucially for this
// paper — RocksDB's write-stall state machine: slowdown triggers that
// throttle writers and stop triggers that block them outright. The three
// stall classes the paper catalogues (§II-A) all emerge from this module:
// flush-based stalls (immutable memtable backlog), L0→L1 stalls (L0 file
// count), and pending-compaction-bytes stalls.
package lsm

import (
	"time"

	"kvaccel/internal/cpu"
	"kvaccel/internal/sstable"
	"kvaccel/internal/trace"
)

// Options configures a DB. DefaultOptions is the paper's Table III
// configuration at scale 1; internal/machine renders it at other scales.
// Open and Reopen panic, naming the field, on a value the engine cannot
// run with: zero means "off" only for ValueThreshold.
type Options struct {
	// MemtableSize rotates the active memtable when it exceeds this many
	// bytes (RocksDB write_buffer_size).
	MemtableSize int64
	// MaxImmutableMemtables bounds the flush backlog; one active plus
	// this many immutables (RocksDB max_write_buffer_number - 1).
	MaxImmutableMemtables int

	// L0CompactionTrigger starts L0→L1 compaction at this many L0 files.
	L0CompactionTrigger int
	// L0SlowdownTrigger engages the write slowdown at this many L0 files.
	L0SlowdownTrigger int
	// L0StopTrigger blocks writes at this many L0 files.
	L0StopTrigger int

	// PendingCompactionSlowdownBytes / PendingCompactionStopBytes are the
	// soft and hard pending-compaction-bytes limits.
	PendingCompactionSlowdownBytes int64
	PendingCompactionStopBytes     int64

	// BaseLevelBytes is L1's target size; each deeper level is
	// LevelMultiplier times larger. MaxLevels bounds the tree.
	BaseLevelBytes  int64
	LevelMultiplier int64
	MaxLevels       int

	// MaxFileSize splits compaction outputs.
	MaxFileSize int64

	// CompactionThreads is the number of background compaction workers
	// (the paper's per-figure knob). Adjustable at runtime via
	// SetCompactionThreads up to MaxCompactionThreads.
	CompactionThreads    int
	MaxCompactionThreads int

	// EnableSlowdown selects the RocksDB slowdown behaviour the paper
	// ablates in Figures 2/3: when false, writers run full speed into
	// hard stalls; when true, slowdown triggers throttle them first.
	EnableSlowdown bool
	// DelayedWriteBytesPerSec is the throttled write rate while a
	// slowdown condition holds (RocksDB delayed_write_rate).
	DelayedWriteBytesPerSec int64
	// SlowdownSleep is the minimum per-write sleep once a slowdown
	// engages — the "1 ms" the paper quotes from RocksDB's wiki.
	SlowdownSleep time.Duration

	// BlockSize and BloomBitsPerKey shape SST files.
	BlockSize       int
	BloomBitsPerKey int

	// MaxWriteGroupBytes bounds how many staged bytes one group-commit
	// leader may claim into a single WAL append (RocksDB
	// max_write_batch_group_size_bytes). Writers beyond the bound wait
	// for the next group.
	MaxWriteGroupBytes int64
	// TestHook, when set, is called at a named instant inside the write
	// pipeline, so the crash-recovery torture suite can cut power at an
	// in-between state deterministically: "pre-append", where a leader
	// has claimed its group's sequence range, still holding the commit
	// section, but not yet appended. It is called on the group leader's
	// runner.
	TestHook func(stage string)

	// ValueThreshold enables WiscKey-style value separation: a Put whose
	// value is at least this many bytes appends the value to the value
	// log and stores a fixed-size pointer in the LSM instead, so the WAL,
	// memtable, SSTs, and every compaction move 13 bytes per large value.
	// Zero (the default) disables the value log entirely.
	ValueThreshold int
	// VLogSegmentSize rotates the value log's head segment; 0 means
	// MaxFileSize, so segments are SST-sized.
	VLogSegmentSize int64

	// WALChunkSize and WALQueueDepth tune write-ahead-log write-back; the
	// value log writes back with the same two.
	WALChunkSize  int
	WALQueueDepth int
	// UncheckedWALReplay makes Reopen replay WAL records without
	// verifying checksums or truncating torn tails. It deliberately
	// breaks the recovery contract; the torture suite uses it to prove
	// the oracle catches a recovery that skips torn-tail truncation.
	// Never enable it outside tests.
	UncheckedWALReplay bool

	// CPU is the host core pool all engine work is charged to; required.
	CPU *cpu.Pool
	// Cost models the per-operation host CPU time.
	Cost CostModel

	// Trace, when non-nil, records causal spans for the write path
	// (WAL append, memtable insert, stall/slowdown waits) and the
	// background workers (flush, compaction, their device I/O). Nil
	// disables tracing at nil-check cost.
	Trace *trace.Tracer
}

// CostModel holds the host CPU charges for engine work. Values are
// calibrated so a single core sustains roughly RocksDB-like rates
// (memtable inserts at a few hundred Kops/s, compaction merge at a few
// hundred MB/s per thread).
type CostModel struct {
	// WriteCPU is charged per record on the writing thread (record encode
	// + memtable insert).
	WriteCPU time.Duration
	// WALAppendCPU is charged per WAL Append call (checksum + log-buffer
	// copy), so a commit group pays it once however many records it
	// carries; a group of one pays WriteCPU + WALAppendCPU per record.
	WALAppendCPU time.Duration
	// ReadCPU is charged per Get before any device time.
	ReadCPU time.Duration
	// IterCPU is charged per iterator Seek or Next.
	IterCPU time.Duration
	// MergeCPUPerKB is charged per KiB passing through a compaction
	// merge.
	MergeCPUPerKB time.Duration
	// FlushCPUPerKB is charged per KiB of a memtable flush; flushes are
	// sequential dumps, far cheaper than merges.
	FlushCPUPerKB time.Duration
}

// DefaultCostModel reflects one ~3 GHz Xeon core of the paper's host.
func DefaultCostModel() CostModel {
	return CostModel{
		WriteCPU:     2 * time.Microsecond,
		WALAppendCPU: 1 * time.Microsecond,
		ReadCPU:      4 * time.Microsecond,
		IterCPU:      2 * time.Microsecond,
		// Merge runs at ~their Xeon's native speed against a slow
		// interconnect (§VI-A's CPU/PCIe mismatch): one compaction thread
		// already comes close to the device ceiling, so extra threads mostly
		// burn host CPU — the regime ADOC is evaluated in. ~640 MB/s per
		// thread.
		MergeCPUPerKB: 1600 * time.Nanosecond,
		FlushCPUPerKB: 1 * time.Microsecond, // ~1 GB/s memtable dump
	}
}

// DefaultOptions returns Table III's Main-LSM at scale 1, charging its
// CPU work to cpuPool. Slowdown is off: KVACCEL redirects instead of
// throttling, and the stock-RocksDB arms turn it on.
func DefaultOptions(cpuPool *cpu.Pool) Options {
	return Options{
		MemtableSize:          128 << 20, // Table III: 128 MB memtables
		MaxImmutableMemtables: 1,

		// RocksDB default L0 triggers (4 compaction / 20 slowdown / 36 stop).
		L0CompactionTrigger: 4,
		L0SlowdownTrigger:   20,
		L0StopTrigger:       36,

		// RocksDB defaults: soft/hard pending-compaction limits of 64/256 GB;
		// at data-set scale they act as backstops, not steady-state throttles.
		PendingCompactionSlowdownBytes: 64 << 30,
		PendingCompactionStopBytes:     256 << 30,

		BaseLevelBytes:  256 << 20,
		LevelMultiplier: 10,
		MaxLevels:       7,
		MaxFileSize:     64 << 20,

		CompactionThreads:    1,
		MaxCompactionThreads: 8,

		DelayedWriteBytesPerSec: 8 << 20, // RocksDB delayed_write_rate
		SlowdownSleep:           time.Millisecond,

		BlockSize:       4096,
		BloomBitsPerKey: 10,

		MaxWriteGroupBytes: 1 << 20,

		// The OS page cache absorbs WAL appends; writers only feel the device
		// through stall conditions, not through synchronous log writes.
		WALChunkSize:  256 << 10,
		WALQueueDepth: 512,

		CPU:  cpuPool,
		Cost: DefaultCostModel(),
	}
}

// sanitize fills in the two values derived from other fields and panics,
// naming the field, on anything the engine cannot run with.
func (o *Options) sanitize() {
	for _, c := range []struct {
		bad  bool
		want string
	}{
		{o.MemtableSize <= 0, "MemtableSize > 0"},
		{o.MaxImmutableMemtables < 1, "MaxImmutableMemtables >= 1"},
		{o.L0CompactionTrigger < 1, "L0CompactionTrigger >= 1"},
		{o.L0SlowdownTrigger < o.L0CompactionTrigger, "L0SlowdownTrigger >= L0CompactionTrigger"},
		{o.L0StopTrigger < o.L0SlowdownTrigger, "L0StopTrigger >= L0SlowdownTrigger"},
		{o.PendingCompactionSlowdownBytes <= 0, "PendingCompactionSlowdownBytes > 0"},
		{o.PendingCompactionStopBytes < o.PendingCompactionSlowdownBytes, "PendingCompactionStopBytes >= PendingCompactionSlowdownBytes"},
		{o.BaseLevelBytes <= 0, "BaseLevelBytes > 0"},
		{o.LevelMultiplier < 2, "LevelMultiplier >= 2"},
		{o.MaxLevels < 2, "MaxLevels >= 2"},
		{o.MaxFileSize <= 0, "MaxFileSize > 0"},
		{o.CompactionThreads < 1, "CompactionThreads >= 1"},
		{o.DelayedWriteBytesPerSec <= 0, "DelayedWriteBytesPerSec > 0"},
		{o.SlowdownSleep <= 0, "SlowdownSleep > 0"},
		{o.BlockSize <= 0, "BlockSize > 0"},
		{o.MaxWriteGroupBytes <= 0, "MaxWriteGroupBytes > 0"},
		{o.ValueThreshold < 0, "ValueThreshold >= 0"},
		{o.WALChunkSize <= 0, "WALChunkSize > 0"},
		{o.WALQueueDepth <= 0, "WALQueueDepth > 0"},
		{o.CPU == nil, "CPU != nil"},
	} {
		if c.bad {
			panic("lsm: Options needs " + c.want)
		}
	}
	if o.VLogSegmentSize <= 0 {
		o.VLogSegmentSize = o.MaxFileSize
	}
	o.MaxCompactionThreads = max(o.MaxCompactionThreads, o.CompactionThreads)
}

func (o *Options) builderOptions() sstable.BuilderOptions {
	return sstable.BuilderOptions{BlockSize: o.BlockSize, BloomBits: o.BloomBitsPerKey}
}
