package main

import "time"

// metricSpec names one reported number. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before
// -compare calls it a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is what a user of the stack sees. Every workload reports
// every one of them, and none may read 0 (see README "Why these ten").
var endToEnd = []metricSpec{
	{"ops_per_vsec", "1/s", higher, 0.08},
	{"lat_mean_us", "us", lower, 0.08},
	{"tput_steadiness", "ratio", higher, 0.08},
	{"write_amp", "ratio", lower, 0.06},
	{"host_cpu_us_per_op", "us", lower, 0.25},
	{"host_allocs_per_op", "count", lower, 0.04},
	{"host_peak_rss_mb", "MB", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// perLayer is one table for all workloads: a layer a workload does not
// run reads 0. Names are <package>.<metric>; _vs is virtual seconds,
// _us_mean comes from the tracer's exact per-phase aggregates and reads
// 0 in an untraced run.
var perLayer = []metricSpec{
	{"workload.ops_attempted", "count", higher, 0},
	{"workload.ops_failed", "count", lower, 0},
	{"workload.wrong_values", "count", lower, 0},
	{"workload.lat_p50_us", "us", lower, 0},
	{"workload.lat_p99_us", "us", lower, 0},
	{"workload.lat_p999_us", "us", lower, 0},
	{"workload.lat_samples", "count", higher, 0},
	{"workload.tput_cv", "ratio", lower, 0},
	{"workload.tput_min_frac", "ratio", higher, 0},
	{"workload.drain_vs", "s", lower, 0},

	{"rpc.net_us_per_req", "us", lower, 0},
	{"rpc.torn_frames", "count", lower, 0},
	{"rpc.conn_failed", "count", lower, 0},

	{"server.accept_us_per_req", "us", lower, 0},
	{"server.linger_us_per_req", "us", lower, 0},
	{"server.engine_us_per_req", "us", lower, 0},
	{"server.reply_us_per_req", "us", lower, 0},
	{"server.phase_coverage", "ratio", higher, 0},
	{"server.mean_batch_ops", "count", higher, 0},
	{"server.mean_read_chunk", "count", higher, 0},
	{"server.front_cpu_busy_frac", "ratio", lower, 0},
	{"server.shed_frac", "ratio", lower, 0},

	{"sharded.put_imbalance", "ratio", lower, 0},

	{"core.redirect_frac", "ratio", lower, 0},
	{"core.would_stall_redirects", "count", lower, 0},
	{"core.redirect_us_mean", "us", lower, 0},
	{"core.put_us_mean", "us", lower, 0},
	{"core.get_us_mean", "us", lower, 0},
	{"core.rollbacks", "count", lower, 0},
	{"core.rollback_pairs", "count", lower, 0},
	{"core.rollback_vs", "s", lower, 0},
	{"core.dev_retries", "count", lower, 0},
	{"core.dev_failed", "count", lower, 0},

	{"hotring.hit_rate", "ratio", higher, 0},
	{"hotring.evictions_per_kget", "count", lower, 0},
	{"hotring.invalidations_per_kput", "count", lower, 0},

	{"lsm.write_amp", "ratio", lower, 0},
	{"lsm.stall_vs", "s", lower, 0},
	{"lsm.stall_events", "count", lower, 0},
	{"lsm.slowdowns", "count", lower, 0},
	{"lsm.stall_wait_vs", "s", lower, 0},
	{"lsm.flushes", "count", lower, 0},
	{"lsm.flush_mb", "MB", lower, 0},
	{"lsm.compactions", "count", lower, 0},
	{"lsm.compaction_read_mb", "MB", lower, 0},
	{"lsm.compaction_write_mb", "MB", lower, 0},
	{"lsm.wal_mb", "MB", lower, 0},
	{"lsm.flush_vs", "s", lower, 0},
	{"lsm.flush_io_vs", "s", lower, 0},
	{"lsm.compaction_vs", "s", lower, 0},
	{"lsm.compaction_io_vs", "s", lower, 0},
	{"lsm.mean_group_size", "count", higher, 0},
	{"lsm.wal_appends_per_record", "ratio", lower, 0},
	{"lsm.linger_us_per_group", "us", lower, 0},
	{"lsm.pipelined_append_frac", "ratio", higher, 0},
	{"lsm.write_group_us_mean", "us", lower, 0},
	{"lsm.wal_append_us_mean", "us", lower, 0},
	{"lsm.memtable_insert_us_mean", "us", lower, 0},
	{"lsm.reads_memtable_frac", "ratio", higher, 0},
	{"lsm.reads_sst_frac", "ratio", lower, 0},
	{"lsm.read_miss_frac", "ratio", lower, 0},

	{"vlog.mb_written", "MB", lower, 0},
	{"vlog.segments", "count", lower, 0},
	{"vlog.gc_rewrites", "count", lower, 0},
	{"vlog.discard_mb", "MB", lower, 0},
	{"vlog.append_us_mean", "us", lower, 0},
	{"vlog.derefs_per_get", "ratio", lower, 0},
	{"vlog.read_cache_hit_rate", "ratio", higher, 0},
	{"vlog.read_us_mean", "us", lower, 0},

	{"sstable.tables_per_get", "count", lower, 0},
	{"sstable.bloom_fp_rate", "ratio", lower, 0},
	{"sstable.block_cache_hit_rate", "ratio", higher, 0},
	{"sstable.block_cache_evictions", "count", lower, 0},
	{"sstable.get_us_mean", "us", lower, 0},

	{"fs.used_mb", "MB", lower, 0},

	{"nvme.kv.submitted", "count", lower, 0},
	{"nvme.kv.mean_depth", "count", lower, 0},
	{"nvme.kv.lat_mean_us", "us", lower, 0},
	{"nvme.kv.lat_p99_us", "us", lower, 0},
	{"nvme.blk.mean_depth", "count", lower, 0},
	{"nvme.blk.lat_mean_us", "us", lower, 0},
	{"nvme.blk.lat_p99_us", "us", lower, 0},
	{"nvme.blk.bg_frac", "ratio", lower, 0},
	{"nvme.queue_vs", "s", lower, 0},
	{"nvme.exec_vs", "s", lower, 0},

	{"pcie.h2d_mbps", "MB/s", higher, 0},
	{"pcie.d2h_mbps", "MB/s", higher, 0},
	{"pcie.util_frac", "ratio", higher, 0},

	{"ftl.host_pages", "count", lower, 0},
	{"ftl.gc_pages", "count", lower, 0},
	{"ftl.write_amp", "ratio", lower, 0},
	{"ftl.blocks_erased", "count", lower, 0},

	{"nand.pages_read", "count", lower, 0},
	{"nand.pages_programmed", "count", lower, 0},
	{"nand.prog_vs", "s", lower, 0},
	{"nand.read_vs", "s", lower, 0},
	{"nand.erase_vs", "s", lower, 0},

	{"devlsm.puts", "count", lower, 0},
	{"devlsm.flushes", "count", lower, 0},
	{"devlsm.compactions", "count", lower, 0},
	{"devlsm.scans", "count", lower, 0},
	{"devlsm.mb_in", "MB", lower, 0},
	{"devlsm.put_us_mean", "us", lower, 0},
	{"devlsm.flush_vs", "s", lower, 0},
	{"ssd.arm_busy_frac", "ratio", lower, 0},

	{"cpu.host_avg_pct", "%", lower, 0},
	{"cpu.efficiency_mbps_per_cpu_pct", "MB/s/%", higher, 0},

	{"host.wall_us_per_op", "us", lower, 0},
	{"host.sys_us_per_op", "us", lower, 0},
	{"host.alloc_kb_per_op", "KB", lower, 0},
	{"host.gc_cpu_frac", "ratio", lower, 0},
	{"host.wall_s_per_vsec", "s", lower, 0},
	{"host.drain_s", "s", lower, 0},
	{"host.share.runtime", "ratio", lower, 0},
	{"host.share.vclock", "ratio", lower, 0},
	{"host.share.lsm", "ratio", lower, 0},
	{"host.share.memtable", "ratio", lower, 0},
	{"host.share.sstable", "ratio", lower, 0},
	{"host.share.core", "ratio", lower, 0},
	{"host.share.devlsm", "ratio", lower, 0},
	{"host.share.device", "ratio", lower, 0},
	{"host.share.serving", "ratio", lower, 0},
	{"host.share.workload", "ratio", lower, 0},
	{"host.share.other", "ratio", lower, 0},

	{"trace.events", "count", higher, 0},
	{"trace.dropped", "count", lower, 0},
	{"trace.put_closure", "ratio", higher, 0},
}

// workloadKind selects the driver a workload runs on.
type workloadKind int

const (
	kindFill workloadKind = iota
	kindYCSB
	kindServe
)

// workloadSpec freezes one workload. Window is the measured virtual
// time at the default --seconds (runSeconds); --seconds scales it
// linearly, so virtual results never depend on how fast the host is.
type workloadSpec struct {
	Name string
	Why  string
	Kind workloadKind

	Window time.Duration // virtual, at --seconds == runSeconds
	// TputWindow is the throughput-sampling interval: one paper-second
	// (100 ms at scale 10); 10 ms on the scale-1 serving run.
	TputWindow time.Duration

	KVAccel        bool   // false: stock RocksDB(1) with slowdown
	Eager          bool   // rollback scheme (KVACCEL only)
	Mix            string // YCSB preset (kindYCSB only)
	Writers        int    // closed-loop writers or clients
	ValueThreshold int
	ValueSize      int
	Keys           int // fill keyspace / preloaded keys
	FrontCacheMB   int
	Clients        int // serve only
	// Setups is how many times set-up runs; setup_s is their median.
	Setups int
}

// runSeconds is BENCHMARK.json's run_seconds: the nominal wall length of
// one measured window on the 2-core reference box.
const runSeconds = 10

var workloads = []workloadSpec{
	{
		Name: "fill_stall", Kind: kindFill,
		Why:    "paper workload A on KVACCEL-Lazy(1): detector, redirect, Dev-LSM and rollback work while flush and compaction saturate the device",
		Window: 20 * time.Second, TputWindow: 100 * time.Millisecond,
		KVAccel: true, Writers: 1, Keys: 300_000, Setups: 5,
	},
	{
		Name: "fill_stock", Kind: kindFill,
		Why:    "same load on stock RocksDB(1) with slowdown, no core layer: the bypass control and the denominator of the paper's +37%",
		Window: 20 * time.Second, TputWindow: 100 * time.Millisecond,
		Writers: 1, Keys: 300_000, Setups: 5,
	},
	{
		Name: "mixed_w8", Kind: kindYCSB, Mix: "ycsb-a",
		Why:    "8 closed-loop clients, YCSB-A over 128 B inline values: group commit and linger form among concurrent updaters beside memtable and SST reads; no stalls, no redirection",
		Window: 5 * time.Second, TputWindow: 100 * time.Millisecond,
		KVAccel: true, Writers: 8, ValueSize: 128, Keys: 100_000, Setups: 3,
	},
	{
		Name: "ycsb_b_hot", Kind: kindYCSB, Mix: "ycsb-b",
		Why:    "YCSB-B zipfian reads beside 5% updates on KVACCEL-Eager(1): front cache, bloom, block cache and vlog reads work; set larger than front cache, smaller than block cache",
		Window: 10 * time.Second, TputWindow: 100 * time.Millisecond,
		KVAccel: true, Eager: true, Writers: 1, ValueThreshold: 1024, Keys: 100_000, FrontCacheMB: 32, Setups: 1,
	},
	{
		Name: "serve_closed", Kind: kindServe,
		Why:    "256 closed-loop RPC clients over 4 tenants on 4 shards, batching on: rpc, server, sharded and the vclock kernel dominate while the device idles",
		Window: 300 * time.Millisecond, TputWindow: 10 * time.Millisecond,
		Keys: 20_000, Clients: 256, Setups: 3,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
