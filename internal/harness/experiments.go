package harness

import (
	"fmt"
	"io"
	"time"

	"kvaccel/internal/core"
	"kvaccel/internal/metrics"
	"kvaccel/internal/vclock"
	"kvaccel/internal/workload"
)

// seriesTSV prints a per-second series as an eyeballable ASCII chart
// followed by plot-ready TSV.
func seriesTSV(w io.Writer, s *metrics.Series) {
	fmt.Fprint(w, s.ASCIIChart(100, 8))
	fmt.Fprint(w, s.TSV())
}

// Fig2_3Result carries one slowdown-ablation run.
type Fig2_3Result struct {
	Name      string
	Res       *RunResult
	AvgKops   float64
	P99       time.Duration
	P999      time.Duration
	Slowdowns int64
	Stalls    int64
}

// Fig2_3 reproduces Figures 2 and 3: RocksDB and ADOC with the slowdown
// mechanism disabled and enabled, fillrandom, per-second throughput plus
// average throughput and tail latency.
func (p Params) Fig2_3(w io.Writer) []Fig2_3Result {
	fmt.Fprintln(w, "== Figure 2/3: slowdown ablation (workload A) ==")
	specs := []EngineSpec{
		{Kind: KindRocksDB, Threads: 1, Slowdown: false},
		{Kind: KindADOC, Threads: 1, Slowdown: false},
		{Kind: KindRocksDB, Threads: 1, Slowdown: true},
		{Kind: KindADOC, Threads: 1, Slowdown: true},
	}
	var out []Fig2_3Result
	for _, spec := range specs {
		res := p.Run(spec, WorkloadA)
		r := Fig2_3Result{
			Name:      spec.Name(),
			Res:       res,
			AvgKops:   res.WriteKops(),
			P99:       res.Rec.WriteLatency.P99(),
			P999:      res.Rec.WriteLatency.P999(),
			Slowdowns: res.MainStats.Slowdowns,
			Stalls:    res.MainStats.TotalStalls(),
		}
		out = append(out, r)
		fmt.Fprintf(w, "\n-- %s: avg=%.2f Kops/s p99=%v p99.9=%v slowdowns=%d stalls=%d stallTime=%v\n",
			r.Name, r.AvgKops, r.P99, r.P999, r.Slowdowns, r.Stalls, res.MainStats.StallTime)
		seriesTSV(w, res.Rec.WriteSeries)
	}
	return out
}

// Fig4_5Result carries a PCIe-utilization run.
type Fig4_5Result struct {
	Name string
	Res  *RunResult
	// StallSecondsZero / StallSecondsHigh are the CDF headline numbers:
	// the fraction of stall-period seconds with ~no PCIe traffic and
	// with >90% of device bandwidth in use.
	StallSeconds      int
	FracZeroTraffic   float64
	FracHighTraffic   float64
	CDF               *metrics.CDF
	DeviceMBpsCeiling float64
}

// Fig4_5 reproduces Figures 4 and 5: PCIe traffic time-series for
// RocksDB(1) and RocksDB(4) without slowdown, and the CDF of PCIe
// bandwidth utilization during write-stall seconds.
func (p Params) Fig4_5(w io.Writer) []Fig4_5Result {
	fmt.Fprintln(w, "== Figure 4/5: PCIe utilization during write stalls (workload A, no slowdown) ==")
	var out []Fig4_5Result
	for _, threads := range []int{1, 4} {
		res := p.Run(EngineSpec{Kind: KindRocksDB, Threads: threads, Slowdown: false}, WorkloadA)
		ceiling := res.deviceCeilingMBps(p)
		cdf := metrics.NewCDF()
		stallSecs, zero, high := 0, 0, 0
		vals := res.PCIeSeries.Values()
		for i, stalled := range res.StallFlags {
			if !stalled || i >= len(vals) {
				continue
			}
			stallSecs++
			util := 100 * vals[i] / ceiling
			cdf.Add(util)
			if util < 5 {
				zero++
			}
			if util > 90 {
				high++
			}
		}
		r := Fig4_5Result{
			Name:              fmt.Sprintf("RocksDB(%d)", threads),
			Res:               res,
			StallSeconds:      stallSecs,
			CDF:               cdf,
			DeviceMBpsCeiling: ceiling,
		}
		if stallSecs > 0 {
			r.FracZeroTraffic = float64(zero) / float64(stallSecs)
			r.FracHighTraffic = float64(high) / float64(stallSecs)
		}
		out = append(out, r)
		fmt.Fprintf(w, "\n-- %s: stall-seconds=%d zero-traffic=%.0f%% high-traffic(>90%%)=%.0f%% (device ceiling %.0f MB/s)\n",
			r.Name, r.StallSeconds, 100*r.FracZeroTraffic, 100*r.FracHighTraffic, ceiling)
		seriesTSV(w, res.PCIeSeries)
		xs, ys := cdf.Points()
		fmt.Fprintf(w, "# CDF of PCIe utilization during stalls (%s)\n", r.Name)
		for i := range xs {
			fmt.Fprintf(w, "%.1f\t%.3f\n", xs[i], ys[i])
		}
	}
	return out
}

// deviceCeilingMBps estimates the sustained device bandwidth for
// utilization normalization (the paper's 630 MB/s red line, scaled).
func (res *RunResult) deviceCeilingMBps(p Params) float64 {
	scale := p.Scale
	if scale < 1 {
		scale = 1
	}
	return 630.0 / float64(scale)
}

// Fig11 reproduces Figure 11: per-second throughput for RocksDB(1),
// ADOC(1) and KVACCEL(1) under workload A.
func (p Params) Fig11(w io.Writer) []*RunResult {
	fmt.Fprintln(w, "== Figure 11: per-second throughput, workload A ==")
	specs := []EngineSpec{
		{Kind: KindRocksDB, Threads: 1, Slowdown: true},
		{Kind: KindADOC, Threads: 1, Slowdown: true},
		{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackDisabled},
	}
	var out []*RunResult
	for _, spec := range specs {
		res := p.Run(spec, WorkloadA)
		out = append(out, res)
		fmt.Fprintf(w, "\n-- %s: avg=%.2f Kops/s redirects=%d\n", spec.Name(), res.WriteKops(), res.KVStats.RedirectedPuts)
		seriesTSV(w, res.Rec.WriteSeries)
	}
	return out
}

// Fig12Row is one bar group of Figure 12.
type Fig12Row struct {
	Name       string
	Threads    int
	Kops       float64
	P99        time.Duration
	CPUAvg     float64
	Efficiency float64
}

// Fig12 reproduces Figure 12: throughput, P99 latency, and efficiency for
// RocksDB, ADOC, and KVACCEL at 1, 2, and 4 compaction threads, workload
// A. KVACCEL runs with Dev-LSM rollback and compaction disabled, as in
// the paper.
func (p Params) Fig12(w io.Writer) []Fig12Row {
	fmt.Fprintln(w, "== Figure 12: throughput / P99 / efficiency, workload A ==")
	fmt.Fprintf(w, "%-14s %8s %12s %8s %10s\n", "engine", "Kops/s", "p99", "cpu%", "efficiency")
	var rows []Fig12Row
	for _, threads := range []int{1, 2, 4} {
		for _, kind := range []EngineKind{KindRocksDB, KindADOC, KindKVAccel} {
			spec := EngineSpec{Kind: kind, Threads: threads, Slowdown: kind != KindKVAccel, Rollback: core.RollbackDisabled}
			res := p.Run(spec, WorkloadA)
			row := Fig12Row{
				Name:       spec.Name(),
				Threads:    threads,
				Kops:       res.WriteKops(),
				P99:        res.Rec.WriteLatency.P99(),
				CPUAvg:     res.CPUAvg,
				Efficiency: res.Efficiency(),
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-14s %8.2f %12v %8.1f %10.3f\n", row.Name, row.Kops, row.P99, row.CPUAvg, row.Efficiency)
		}
	}
	return rows
}

// Fig13Row is one bar group of Figure 13.
type Fig13Row struct {
	Workload  WorkloadKind
	Name      string
	WriteKops float64
	ReadKops  float64
}

// Fig13 reproduces Figure 13: read and write throughput for workloads A,
// B, C across RocksDB, ADOC, KVACCEL-L and KVACCEL-E, all with 4
// compaction threads.
func (p Params) Fig13(w io.Writer) []Fig13Row {
	fmt.Fprintln(w, "== Figure 13: rollback schemes across workloads A/B/C (4 threads) ==")
	fmt.Fprintf(w, "%-26s %-14s %12s %12s\n", "workload", "engine", "write Kops/s", "read Kops/s")
	specs := []EngineSpec{
		{Kind: KindRocksDB, Threads: 4, Slowdown: true},
		{Kind: KindADOC, Threads: 4, Slowdown: true},
		{Kind: KindKVAccel, Threads: 4, Rollback: core.RollbackLazy},
		{Kind: KindKVAccel, Threads: 4, Rollback: core.RollbackEager},
	}
	var rows []Fig13Row
	for _, kind := range []WorkloadKind{WorkloadA, WorkloadB, WorkloadC} {
		for _, spec := range specs {
			res := p.Run(spec, kind)
			row := Fig13Row{
				Workload:  kind,
				Name:      spec.Name(),
				WriteKops: res.WriteKops(),
				ReadKops:  res.ReadKops(),
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-26s %-14s %12.2f %12.2f\n", kind, row.Name, row.WriteKops, row.ReadKops)
		}
	}
	return rows
}

// TableVRow is one row of Table V.
type TableVRow struct {
	Name string
	Kops float64
}

// TableV reproduces Table V: range-query throughput (workload D:
// seekrandom, Seek + 1024 Next, after a sequential preload). For KVACCEL
// a slice of the preload is redirected into the Dev-LSM so range queries
// exercise the dual-iterator path, as in the paper's evaluation.
func (p Params) TableV(w io.Writer) []TableVRow {
	fmt.Fprintln(w, "== Table V: range query throughput (workload D) ==")
	specs := []EngineSpec{
		{Kind: KindRocksDB, Threads: 4, Slowdown: true},
		{Kind: KindADOC, Threads: 4, Slowdown: true},
		{Kind: KindKVAccel, Threads: 4, Rollback: core.RollbackDisabled},
	}
	var rows []TableVRow
	for _, spec := range specs {
		res := p.Run(spec, WorkloadD)
		row := TableVRow{Name: spec.Name(), Kops: res.ReadKops()}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-14s %10.1f Kops/s\n", row.Name, row.Kops)
	}
	return rows
}

// RecoveryResult is the §VI-D measurement.
type RecoveryResult struct {
	Pairs   int
	Elapsed time.Duration
}

// Recovery reproduces §VI-D: after a simulated crash loses the metadata
// hash table, all 10,000 Dev-LSM pairs are rolled back into the Main-LSM;
// the paper measures 1.1 s.
func (p Params) Recovery(w io.Writer) RecoveryResult {
	fmt.Fprintln(w, "== Recovery (VI-D): restore 10,000 KV pairs after metadata loss ==")
	tb := p.NewTestbed()
	eng := p.BuildEngine(tb, EngineSpec{Kind: KindKVAccel, Threads: 4, Rollback: core.RollbackDisabled})
	const pairs = 10000
	var elapsed time.Duration
	tb.Clk.Go("recovery", func(r *vclock.Runner) {
		defer eng.Close()
		// Buffer 10,000 pairs in the Dev-LSM via forced redirection.
		eng.KV.Detector().SetOverride(true)
		val := workload.MakeValue(0, p.ValueSize)
		for i := 0; i < pairs; i++ {
			_ = eng.KV.Put(r, workload.Key(i), val)
		}
		eng.KV.Detector().SetOverride(false)
		// Crash: volatile metadata lost; recover from NAND.
		eng.KV.SimulateCrash()
		start := r.Now()
		eng.KV.Recover(r)
		elapsed = r.Now().Sub(start)
	})
	tb.Clk.Wait()
	fmt.Fprintf(w, "restored %d pairs in %v (paper: 1.1 s on real hardware)\n", pairs, elapsed)
	return RecoveryResult{Pairs: pairs, Elapsed: elapsed}
}

// TableVIResult holds the measured software-module overheads.
type TableVIResult struct {
	Detector  time.Duration
	KeyInsert time.Duration
	KeyCheck  time.Duration
	KeyDelete time.Duration
}

// TableVI reproduces Table VI: the real wall-clock cost of one Detector
// pass and of metadata-manager insert/check/delete. These are genuine
// host-CPU microbenchmarks (not simulated time), directly comparable to
// the paper's 1.37/0.45/0.20/0.28 µs.
func (p Params) TableVI(w io.Writer) TableVIResult {
	fmt.Fprintln(w, "== Table VI: software module overheads (real wall clock) ==")
	tb := p.NewTestbed()
	eng := p.BuildEngine(tb, EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackDisabled})
	var res TableVIResult
	tb.Clk.Go("overheads", func(r *vclock.Runner) {
		defer eng.Close()
		// Populate some engine state so Health() is not trivially empty.
		for i := 0; i < 1000; i++ {
			_ = eng.KV.Put(r, workload.Key(i), workload.MakeValue(i, 128))
		}
		const n = 200000
		det := eng.KV.Detector()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			det.Check(r)
		}
		res.Detector = time.Since(t0) / n

		meta := core.NewMetadataManager(16)
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = workload.Key(i)
		}
		t0 = time.Now()
		for _, k := range keys {
			meta.Insert(k)
		}
		res.KeyInsert = time.Since(t0) / n
		t0 = time.Now()
		for _, k := range keys {
			meta.Contains(k)
		}
		res.KeyCheck = time.Since(t0) / n
		t0 = time.Now()
		for _, k := range keys {
			meta.Remove(k)
		}
		res.KeyDelete = time.Since(t0) / n
	})
	tb.Clk.Wait()
	fmt.Fprintf(w, "%-12s %10v   (paper: 1.37 µs)\n", "Detector", res.Detector)
	fmt.Fprintf(w, "%-12s %10v   (paper: 0.45 µs)\n", "Key Insert", res.KeyInsert)
	fmt.Fprintf(w, "%-12s %10v   (paper: 0.20 µs)\n", "Key Check", res.KeyCheck)
	fmt.Fprintf(w, "%-12s %10v   (paper: 0.28 µs)\n", "Key Delete", res.KeyDelete)
	return res
}

// Fig14Result compares zero-traffic intervals.
type Fig14Result struct {
	RocksDBZeroSecs int
	KVAccelZeroSecs int
	ReductionPct    float64
	RocksDBSeries   *metrics.Series
	KVAccelSeries   *metrics.Series
}

// Fig14 reproduces Figure 14: PCIe bandwidth time-series (log scale in
// the paper) for RocksDB(1) vs KVACCEL(1); the paper reports a 45%
// reduction in zero-traffic intervals during stall periods.
func (p Params) Fig14(w io.Writer) Fig14Result {
	fmt.Fprintln(w, "== Figure 14: PCIe traffic, RocksDB(1) vs KVAccel(1) (workload A) ==")
	rocks := p.Run(EngineSpec{Kind: KindRocksDB, Threads: 1, Slowdown: false}, WorkloadA)
	kvac := p.Run(EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackDisabled}, WorkloadA)
	zeroSecs := func(res *RunResult) int {
		n := 0
		for _, v := range res.PCIeSeries.Values() {
			if v < 1.0 { // ~zero MB/s
				n++
			}
		}
		return n
	}
	out := Fig14Result{
		RocksDBZeroSecs: zeroSecs(rocks),
		KVAccelZeroSecs: zeroSecs(kvac),
		RocksDBSeries:   rocks.PCIeSeries,
		KVAccelSeries:   kvac.PCIeSeries,
	}
	if out.RocksDBZeroSecs > 0 {
		out.ReductionPct = 100 * float64(out.RocksDBZeroSecs-out.KVAccelZeroSecs) / float64(out.RocksDBZeroSecs)
	}
	fmt.Fprintf(w, "zero-traffic seconds: RocksDB(1)=%d KVAccel(1)=%d reduction=%.0f%% (paper: 45%%)\n",
		out.RocksDBZeroSecs, out.KVAccelZeroSecs, out.ReductionPct)
	seriesTSV(w, rocks.PCIeSeries)
	seriesTSV(w, kvac.PCIeSeries)
	return out
}

// RunAll executes every experiment in paper order.
func (p Params) RunAll(w io.Writer) {
	p.Fig2_3(w)
	p.Fig4_5(w)
	p.Fig11(w)
	p.Fig12(w)
	p.Fig13(w)
	p.TableV(w)
	p.Recovery(w)
	p.TableVI(w)
	p.Fig14(w)
}
