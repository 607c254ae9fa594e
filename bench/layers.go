package main

import (
	"reflect"
	"strings"
	"time"

	"kvaccel/internal/core"
	"kvaccel/internal/cpu"
	"kvaccel/internal/devlsm"
	"kvaccel/internal/fs"
	"kvaccel/internal/ftl"
	"kvaccel/internal/lsm"
	"kvaccel/internal/metrics"
	"kvaccel/internal/nand"
	"kvaccel/internal/nvme"
	"kvaccel/internal/pcie"
	"kvaccel/internal/server"
	"kvaccel/internal/ssd"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
	"kvaccel/internal/workload"
)

// stack is every layer of one assembled machine that has a public
// counter surface; nil members are layers the workload does not run or
// that its front-end does not expose.
type stack struct {
	clk   *vclock.Clock
	dev   *ssd.Device
	host  *cpu.Pool      // nil on serve_closed: ShardedDB keeps its pool private
	fsys  *fs.FileSystem // nil on serve_closed, likewise
	mains []interface{ Stats() lsm.Stats }
	kvs   []*core.DB
	srv   *server.Server
	tr    *trace.Tracer
}

// snap is the cumulative state of every counter at one instant. Two
// snaps subtract field by field (diff), so a window's numbers exclude
// set-up and drain.
type snap struct {
	At         vclock.Time
	LSM        lsm.Stats
	Core       core.Stats
	Dev        devlsm.Stats
	FTL        ftl.Stats
	NAND       nand.Stats
	H2D, D2H   int64
	HostBusyNS int64
	ARMBusyNS  int64
	Srv        server.Stats
	Phases     [trace.NumPhases]trace.PhaseStat
	ShardPuts  []int64
	FSUsed     int64
	Queues     []nvme.QueueStats
}

func (s *stack) snapshot() snap {
	out := snap{
		At:        s.clk.Now(),
		Dev:       s.dev.Dev.Stats(),
		FTL:       s.dev.FTL.Stats(),
		NAND:      s.dev.Array.Stats(),
		H2D:       s.dev.Link.BytesTransferred(pcie.HostToDevice),
		D2H:       s.dev.Link.BytesTransferred(pcie.DeviceToHost),
		ARMBusyNS: s.dev.ARM.BusyNS(),
		Queues:    s.dev.QueueStats(),
	}
	if s.fsys != nil {
		out.FSUsed = s.fsys.UsedBytes()
	}
	for _, m := range s.mains {
		st := m.Stats()
		out.LSM = out.LSM.Add(st)
		out.ShardPuts = append(out.ShardPuts, st.Puts)
	}
	for _, kv := range s.kvs {
		out.Core = out.Core.Add(kv.Stats())
	}
	if s.host != nil {
		out.HostBusyNS = s.host.BusyNS()
	}
	if s.srv != nil {
		out.Srv = s.srv.Stats()
	}
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		out.Phases[ph] = s.tr.Stats(ph)
	}
	return out
}

// diff returns after minus before over every numeric field, recursing
// through structs and arrays; other fields keep after's value.
func diff[T any](after, before T) T {
	out := after
	subtract(reflect.ValueOf(&out).Elem(), reflect.ValueOf(before))
	return out
}

func subtract(dst, before reflect.Value) {
	switch dst.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		dst.SetInt(dst.Int() - before.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		dst.SetUint(dst.Uint() - before.Uint())
	case reflect.Float32, reflect.Float64:
		dst.SetFloat(dst.Float() - before.Float())
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			subtract(dst.Field(i), before.Field(i))
		}
	case reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			subtract(dst.Index(i), before.Index(i))
		}
	}
}

const mb = 1e6

func secs(d time.Duration) float64 { return d.Seconds() }
func usec(d time.Duration) float64 { return float64(d) / 1e3 }

// layerMetrics fills the per-layer table from the counter deltas between
// the snapshots at window start and end. Counters come from public
// Stats(); _us_mean and most _vs rows come from the tracer's aggregates
// and stay 0 in an untraced run.
func (s *stack) layerMetrics(m map[string]float64, start, end snap) {
	d := diff(end, start)
	window := time.Duration(d.At)
	w := window.Seconds()
	ph := func(p trace.Phase) trace.PhaseStat { return d.Phases[p] }
	phMeanUS := func(p trace.Phase) float64 { return usec(ph(p).Mean()) }

	c := d.Core
	corePuts := float64(c.NormalPuts + c.RedirectedPuts)
	m["core.redirect_frac"] = ratio(float64(c.RedirectedPuts), corePuts)
	m["core.would_stall_redirects"] = float64(c.WouldStallRedirects)
	m["core.redirect_us_mean"] = phMeanUS(trace.PhaseRedirect)
	m["core.put_us_mean"] = phMeanUS(trace.PhasePut)
	m["core.get_us_mean"] = phMeanUS(trace.PhaseGet)
	m["core.rollbacks"] = float64(c.Rollbacks)
	m["core.rollback_pairs"] = float64(c.RollbackPairs)
	m["core.rollback_vs"] = secs(c.RollbackTime)
	m["core.dev_retries"] = float64(c.DevRetries)
	m["core.dev_failed"] = float64(c.DevFailed)

	m["hotring.hit_rate"] = c.FrontCacheHitRate()
	m["hotring.evictions_per_kget"] = 1000 * ratio(float64(c.FrontCacheEvictions), float64(c.Gets))
	m["hotring.invalidations_per_kput"] = 1000 * ratio(float64(c.FrontCacheInvalidations), corePuts)

	l := d.LSM
	if l.UserBytes > 0 {
		// Main-LSM bytes per user byte; WAL bytes are booked when a flush
		// retires the log, so a window with no flush reads 0.
		m["lsm.write_amp"] = l.WriteAmplification()
	}
	m["lsm.stall_vs"] = secs(l.StallTime)
	m["lsm.stall_events"] = float64(l.TotalStalls())
	m["lsm.slowdowns"] = float64(l.Slowdowns)
	m["lsm.stall_wait_vs"] = secs(ph(trace.PhaseStallWait).Total)
	m["lsm.flushes"] = float64(l.Flushes)
	m["lsm.flush_mb"] = float64(l.FlushBytes) / mb
	m["lsm.compactions"] = float64(l.Compactions)
	m["lsm.compaction_read_mb"] = float64(l.CompactionReadBytes) / mb
	m["lsm.compaction_write_mb"] = float64(l.CompactionWriteBytes) / mb
	m["lsm.wal_mb"] = float64(l.WALBytesWritten) / mb
	m["lsm.flush_vs"] = secs(ph(trace.PhaseFlush).Total)
	m["lsm.flush_io_vs"] = secs(ph(trace.PhaseFlushIO).Total)
	m["lsm.compaction_vs"] = secs(ph(trace.PhaseCompaction).Total)
	m["lsm.compaction_io_vs"] = secs(ph(trace.PhaseCompactionIO).Total)
	m["lsm.mean_group_size"] = ratio(float64(l.GroupedRecords), float64(l.GroupCommits))
	m["lsm.wal_appends_per_record"] = l.WALAppendsPerRecord()
	m["lsm.linger_us_per_group"] = ratio(float64(l.GroupLingerMicros), float64(l.GroupCommits))
	m["lsm.pipelined_append_frac"] = ratio(float64(l.PipelinedAppends), float64(l.WALAppends))
	m["lsm.write_group_us_mean"] = phMeanUS(trace.PhaseWriteGroup)
	m["lsm.wal_append_us_mean"] = phMeanUS(trace.PhaseWALAppend)
	m["lsm.memtable_insert_us_mean"] = phMeanUS(trace.PhaseMemtableInsert)
	gets := float64(l.Gets)
	m["lsm.reads_memtable_frac"] = ratio(float64(l.ReadsMemtable+l.ReadsImmutable), gets)
	m["lsm.reads_sst_frac"] = ratio(float64(l.ReadsSST()), gets)
	m["lsm.read_miss_frac"] = ratio(float64(l.ReadMisses), gets)

	m["vlog.mb_written"] = float64(l.VLogBytes) / mb
	m["vlog.segments"] = float64(end.LSM.VLogSegments) // a gauge, not a delta
	m["vlog.gc_rewrites"] = float64(l.VLogGCRewrites)
	m["vlog.discard_mb"] = float64(l.VLogDiscardBytes) / mb
	m["vlog.append_us_mean"] = phMeanUS(trace.PhaseVLogAppend)
	m["vlog.derefs_per_get"] = ratio(float64(l.VLogDerefs), gets)
	m["vlog.read_cache_hit_rate"] = ratio(float64(l.VLogReadCacheHits), float64(l.VLogReadCacheHits+l.VLogReadCacheMisses))
	m["vlog.read_us_mean"] = phMeanUS(trace.PhaseVLogRead)

	m["sstable.tables_per_get"] = ratio(float64(l.BloomConsults), gets)
	m["sstable.bloom_fp_rate"] = ratio(float64(l.BloomFalsePositives), float64(l.BloomConsults))
	m["sstable.block_cache_hit_rate"] = l.BlockCacheHitRate()
	m["sstable.block_cache_evictions"] = float64(l.BlockCacheEvictions)
	m["sstable.get_us_mean"] = phMeanUS(trace.PhaseSSTGet)

	m["fs.used_mb"] = float64(end.FSUsed) / mb // a gauge

	// Queue histograms cannot be subtracted: these rows cover the queue's
	// life, preload included.
	kv, blk := queueClass(end.Queues, "kv"), queueClass(end.Queues, "blk")
	m["nvme.kv.submitted"] = float64(kv.submitted)
	m["nvme.kv.mean_depth"] = kv.meanDepth
	m["nvme.kv.lat_mean_us"] = usec(kv.lat.Mean())
	m["nvme.kv.lat_p99_us"] = usec(kv.lat.P99())
	m["nvme.blk.mean_depth"] = blk.meanDepth
	m["nvme.blk.lat_mean_us"] = usec(blk.lat.Mean())
	m["nvme.blk.lat_p99_us"] = usec(blk.lat.P99())
	m["nvme.blk.bg_frac"] = ratio(float64(blk.bgSubmitted), float64(blk.submitted))
	m["nvme.queue_vs"] = secs(ph(trace.PhaseNVMeQueue).Total)
	m["nvme.exec_vs"] = secs(ph(trace.PhaseNVMeExec).Total)

	m["pcie.h2d_mbps"] = ratio(float64(d.H2D)/mb, w)
	m["pcie.d2h_mbps"] = ratio(float64(d.D2H)/mb, w)
	m["pcie.util_frac"] = ratio(float64(d.H2D+d.D2H)/mb, w*s.dev.Link.BandwidthMBps())

	m["ftl.host_pages"] = float64(d.FTL.HostPagesWritten)
	m["ftl.gc_pages"] = float64(d.FTL.GCPagesMigrated)
	m["ftl.write_amp"] = d.FTL.WriteAmplification()
	m["ftl.blocks_erased"] = float64(d.FTL.BlocksErased)

	m["nand.pages_read"] = float64(d.NAND.PagesRead)
	m["nand.pages_programmed"] = float64(d.NAND.PagesProgrammed)
	m["nand.prog_vs"] = secs(ph(trace.PhaseNANDProg).Total)
	m["nand.read_vs"] = secs(ph(trace.PhaseNANDRead).Total)
	m["nand.erase_vs"] = secs(ph(trace.PhaseNANDErase).Total)

	m["devlsm.puts"] = float64(d.Dev.Puts)
	m["devlsm.flushes"] = float64(d.Dev.Flushes)
	m["devlsm.compactions"] = float64(d.Dev.Compactions)
	m["devlsm.scans"] = float64(d.Dev.Scans)
	m["devlsm.mb_in"] = float64(d.Dev.BytesIn) / mb
	m["devlsm.put_us_mean"] = phMeanUS(trace.PhaseDevLSM)
	m["devlsm.flush_vs"] = secs(ph(trace.PhaseDevLSMFlush).Total)
	m["ssd.arm_busy_frac"] = ratio(float64(d.ARMBusyNS), float64(window))

	if s.host != nil {
		pct := 100 * ratio(float64(d.HostBusyNS), float64(window)*float64(s.host.Cores()))
		m["cpu.host_avg_pct"] = pct
		// Paper Eq. 1: user write MB/s per host CPU percent.
		m["cpu.efficiency_mbps_per_cpu_pct"] = ratio(float64(l.UserBytes)/mb/w, pct)
	}

	if s.srv != nil {
		sv := d.Srv
		m["server.mean_batch_ops"] = sv.MeanBatchOps()
		m["server.mean_read_chunk"] = sv.MeanReadChunk()
		m["server.front_cpu_busy_frac"] = ratio(float64(sv.FrontCPUBusy), float64(window)*float64(s.srv.Config().FrontCores))
		var max, sum float64
		for i := range end.ShardPuts {
			n := float64(end.ShardPuts[i] - start.ShardPuts[i])
			sum += n
			if n > max {
				max = n
			}
		}
		m["sharded.put_imbalance"] = ratio(max*float64(len(end.ShardPuts)), sum)
	}
}

// serveMetrics adds the rows that only the RPC clients can measure.
func serveMetrics(m map[string]float64, ls workload.ServeStats) {
	perReq := func(ns int64) float64 { return ratio(float64(ns)/1e3, float64(ls.Answered())) }
	m["rpc.net_us_per_req"] = perReq(ls.NetNS)
	m["rpc.torn_frames"] = float64(ls.TornFrames)
	m["rpc.conn_failed"] = float64(ls.ConnFailed)
	m["server.accept_us_per_req"] = perReq(ls.AcceptNS)
	m["server.linger_us_per_req"] = perReq(ls.LingerNS)
	m["server.engine_us_per_req"] = perReq(ls.EngineNS)
	m["server.reply_us_per_req"] = perReq(ls.ReplyNS)
	m["server.phase_coverage"] = ls.PhaseCoverage()
	m["server.shed_frac"] = ls.ShedRate()
}

// queueAgg folds the NVMe queue pairs of one class (every "kv*" or
// "blk*" pair) into one row.
type queueAgg struct {
	submitted, bgSubmitted int64
	meanDepth              float64
	lat                    *metrics.Histogram
}

func queueClass(queues []nvme.QueueStats, prefix string) queueAgg {
	a := queueAgg{lat: metrics.NewHistogram()}
	for _, q := range queues {
		if !strings.HasPrefix(q.Name, prefix) {
			continue
		}
		a.submitted += q.Submitted
		a.bgSubmitted += q.BgSubmitted
		a.meanDepth += q.MeanOutstanding
		a.lat.Merge(q.Latency)
	}
	return a
}
