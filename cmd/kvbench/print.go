package main

import (
	"fmt"
	"io"

	"kvaccel/internal/core"
	"kvaccel/internal/harness"
	"kvaccel/internal/lsm"
)

// printResult prints the db_bench-style summary of one run.
func printResult(w io.Writer, res *harness.RunResult, faults bool) {
	fmt.Fprintf(w, "\nwrites      : %d ops, %.2f Kops/s, %.1f MB/s\n", res.Rec.Writes(), res.WriteKops(), res.WriteMBps())
	fmt.Fprintf(w, "write lat   : %s\n", res.Rec.WriteLatency)
	if res.Rec.Writes() > 0 {
		fmt.Fprintf(w, "zero-write buckets: %d of %d\n", res.ZeroWriteBuckets(), res.Rec.WriteSeries.Len())
	}
	if res.Rec.Reads() > 0 {
		fmt.Fprintf(w, "reads       : %d ops, %.2f Kops/s\n", res.Rec.Reads(), res.ReadKops())
		fmt.Fprintf(w, "read lat    : %s\n", res.Rec.ReadLatency)
	}
	if res.Rec.Scans() > 0 {
		fmt.Fprintf(w, "scans       : %d ops, %.2f Kops/s\n", res.Rec.Scans(), res.ScanKops())
		fmt.Fprintf(w, "scan lat    : %s\n", res.Rec.ScanLatency)
	}
	if res.CPUAvg > 0 {
		fmt.Fprintf(w, "cpu         : %.1f%% avg  efficiency=%.3f MB/s per cpu%%\n", res.CPUAvg, res.Efficiency())
	}
	printEngineSummary(w, res.MainStats, res.KVStats.WouldStallRedirects)
	printReadAttribution(w, res.KVStats)
	if res.Levels != "" {
		fmt.Fprintf(w, "tree        : %s\n", res.Levels)
	}
	if kv := res.KVStats; kv.RedirectedPuts > 0 || kv.Rollbacks > 0 {
		fmt.Fprintf(w, "kvaccel     : redirected=%d rollbacks=%d\n", kv.RedirectedPuts, kv.Rollbacks)
	}
	if d := res.DevStats; d.Puts > 0 {
		fmt.Fprintf(w, "dev-lsm     : puts=%d flushes=%d buffer-waits=%d wait=%.1f ms flush-mean=%.1f ms\n",
			d.Puts, d.Flushes, d.BufferWaits, float64(d.BufferWaitNS)/1e6, float64(d.MeanFlush())/1e6)
	}
	for i, s := range res.PerShard {
		fmt.Fprintf(w, "shard %-6d: puts=%d redirected=%d rollbacks=%d stalls=%d stall-time=%v\n",
			i, s.KVAccel.NormalPuts+s.KVAccel.RedirectedPuts, s.KVAccel.RedirectedPuts,
			s.KVAccel.Rollbacks, s.Main.TotalStalls(), s.Main.StallTime)
	}
	if faults {
		printFaults(w, res.Injected, res.KVStats)
	}
	for _, q := range res.Queues {
		if q.Submitted > 0 {
			fmt.Fprintf(w, "queue       : %s\n", q)
		}
	}
	if ops := res.Rec.Writes() + res.Rec.Reads() + res.Rec.Scans(); ops > 0 {
		k, n := res.Kernel, float64(ops)
		starts := k.Spawns + k.Reuses
		fmt.Fprintf(w, "kernel      : %.2f parks, %.2f rechecks, %.2f hand-offs, %.3f runner starts per op (%.1f%% reused)\n",
			float64(k.Parks)/n, float64(k.Rechecks)/n, float64(k.Handoffs)/n,
			float64(starts)/n, 100*float64(k.Reuses)/float64(max(starts, 1)))
	}
}

// printFaults prints the injected-fault count beside the KVACCEL
// controller's retry-policy view of those faults.
func printFaults(w io.Writer, injected int64, kv core.Stats) {
	fmt.Fprintf(w, "faults      : injected=%d retried=%d failed=%d (dev-errors=%d)\n",
		injected, kv.DevRetries, kv.DevFailed, kv.DevErrors)
}

// printEngineSummary prints the engine-counter block: stall totals,
// compaction counters, group-commit shape, value-log and read-path
// activity.
func printEngineSummary(w io.Writer, m lsm.Stats, failover int64) {
	fmt.Fprintf(w, "stalls      : %d events (%v total), %d slowdowns\n",
		m.TotalStalls(), m.StallTime, m.Slowdowns)
	fmt.Fprintf(w, "engine      : flushes=%d compactions=%d write-amp=%.2f\n",
		m.Flushes, m.Compactions, m.WriteAmplification())
	if m.GroupCommits > 0 {
		fmt.Fprintf(w, "groups      : %d commits, mean size %.2f, %.3f WAL appends/record, failover=%d\n",
			m.GroupCommits, m.MeanGroupSize(), m.WALAppendsPerRecord(), failover)
	}
	if m.VLogSegments > 0 || m.VLogBytes > 0 {
		fmt.Fprintf(w, "vlog        : segments=%d, %.1f MB written, discard=%.1f MB\n",
			m.VLogSegments, float64(m.VLogBytes)/1e6, float64(m.VLogDiscardBytes)/1e6)
	}
	if m.Gets > 0 {
		fmt.Fprintf(w, "reads-by    : memtable=%d imm=%d sst=%d miss=%d (of %d gets)\n",
			m.ReadsMemtable, m.ReadsImmutable, m.ReadsSST(), m.ReadMisses, m.Gets)
	}
	if m.BloomConsults > 0 {
		fmt.Fprintf(w, "bloom       : consults=%d negatives=%d false-pos=%d\n",
			m.BloomConsults, m.BloomNegatives, m.BloomFalsePositives)
	}
	if m.VLogDerefs > 0 {
		fmt.Fprintf(w, "vlog-reads  : derefs=%d\n", m.VLogDerefs)
	}
}

// printReadAttribution prints the KVACCEL controller's read-side view —
// the front-cache counters and the per-source attribution (front cache /
// Dev-LSM / Main-LSM). A zero-valued Stats (baselines) prints nothing.
func printReadAttribution(w io.Writer, kv core.Stats) {
	if kv.FrontCacheHits+kv.FrontCacheMisses > 0 {
		fmt.Fprintf(w, "front-cache : %.1f%% hit (%d/%d), fills=%d rejected=%d declined=%d updates=%d invalidations=%d evictions=%d entries=%d\n",
			kv.FrontCacheHitRate()*100, kv.FrontCacheHits,
			kv.FrontCacheHits+kv.FrontCacheMisses, kv.FrontCacheFills,
			kv.FrontCacheRejected, kv.FrontCacheDeclined, kv.FrontCacheUpdates,
			kv.FrontCacheInvalidations, kv.FrontCacheEvictions, kv.FrontCacheEntries)
	}
	if kv.Gets > 0 {
		fmt.Fprintf(w, "read-src    : front-cache=%d dev-lsm=%d main-lsm=%d (of %d gets)\n",
			kv.FrontCacheHits, kv.DevServed, kv.MainGets, kv.Gets)
	}
}
