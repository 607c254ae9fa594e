// Command kvbench is the repo's db_bench: it runs a Table IV workload
// against one engine (rocksdb, adoc, kvaccel, or kvaccel-sharded) on a
// fresh simulated testbed and prints db_bench-style summary lines plus
// optional per-second series.
//
// Examples:
//
//	kvbench -engine rocksdb -workload fillrandom -threads 1 -slowdown=false
//	kvbench -engine kvaccel -workload readwhilewriting -readfraction 0.2 -rollback eager
//	kvbench -engine adoc -workload seekrandom
//	kvbench -engine kvaccel-sharded -shards 4 -workload fillrandom
//	kvbench -engine kvaccel -writers 8 -seed 7 -json out.json
//	kvbench -engine rocksdb -slowdown=false -trace out.json -trace-summary
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"kvaccel/internal/harness"
	"kvaccel/internal/trace"
	"kvaccel/internal/workload"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		engine    = flag.String("engine", "kvaccel", "engine: rocksdb, adoc, kvaccel, kvaccel-sharded")
		wl        = flag.String("workload", "fillrandom", "workload: fillrandom, readwhilewriting, seekrandom, ycsb-a..ycsb-f, mixed")
		threads   = flag.Int("threads", 1, "compaction threads")
		slowdown  = flag.Bool("slowdown", true, "enable the RocksDB slowdown mechanism (rocksdb/adoc)")
		rollback  = flag.String("rollback", "lazy", "kvaccel rollback scheme: disabled, lazy, eager")
		readFrac  = flag.Float64("readfraction", 0.1, "read share for readwhilewriting")
		scale     = flag.Int("scale", 10, "device/CPU scale divisor")
		duration  = flag.Duration("duration", 30*time.Second, "virtual run duration")
		keyspace  = flag.Int("keyspace", 300_000, "key domain size")
		value     = flag.Int("value", 4096, "value size in bytes")
		valSize   = flag.Int("value-size", 0, "value size in bytes (db_bench spelling; overrides -value when set)")
		vthresh   = flag.Int("value-threshold", 1024, "separate values >= this many bytes into the value log (WiscKey); 0 keeps values inline")
		noVLog    = flag.Bool("no-vlog", false, "disable value separation (the vlog A/B baseline; same as -value-threshold 0)")
		series    = flag.Bool("series", false, "print per-second throughput TSV")
		shards    = flag.Int("shards", 1, "shard count for kvaccel-sharded")
		writers   = flag.Int("writers", 0, "concurrent fillrandom writer threads (kvaccel-sharded default: one per shard)")
		seed      = flag.Int64("seed", 1, "workload RNG seed (writer i uses seed+i*101)")
		lingerUS  = flag.Int64("linger-us", 30, "group leader adaptive linger window in unscaled virtual microseconds (multiplied by -scale; 0 disables)")
		qd        = flag.Int("qd", 0, "NVMe submission-queue depth per queue pair (0 = device default, 32)")
		ioqueues  = flag.Int("ioqueues", 0, "block-interface I/O queue pairs to stripe over (0 = default, 1)")
		qdSweep   = flag.String("qdsweep", "", "comma-separated queue depths to sweep, e.g. 1,2,4,8,32 (overrides -qd)")
		queues    = flag.Bool("queues", true, "print per-queue NVMe depth/latency stats")
		faultSee  = flag.Int64("faults-seed", 0, "seed a deterministic device fault plan (0 = no injection)")
		cuts      = flag.Int("power-cuts", 0, "run the crash-recovery torture instead of a bench: cut device power N times, recover, verify the oracle")
		readPct   = flag.Float64("read-pct", 0, "read fraction override for mixed workloads (0 = preset default)")
		zipfT     = flag.Float64("zipf-theta", 0, "zipfian skew override for mixed workloads (0 = YCSB default 0.99)")
		frontMB   = flag.Int("front-cache-mb", 32, "hot-key front cache budget in MB (kvaccel engines; default-on for mixed workloads)")
		noFront   = flag.Bool("no-front-cache", false, "disable the hot-key front cache")
		frontNeg  = flag.Bool("front-cache-negative", false, "also cache confirmed-missing keys in the front cache (read-miss accelerator)")
		frontDoor = flag.Bool("front-doorkeeper", false, "second-chance admission on the front cache: refuse one-touch keys their first fill (uniform-traffic churn guard)")
		noBlock   = flag.Bool("no-block-cache", false, "disable the Main-LSM block cache and vlog read cache (cold-cache baseline)")
		cacheAB   = flag.String("cache-ab", "", "run the mixed workload twice (caches on, then off) and write the paired A/B record to this JSON file")
		offload   = flag.Bool("offload-compaction", false, "offload eligible L0→L1 compactions to the SSD controller under stall pressure (kvaccel engines)")
		offloadAB = flag.String("offload-ab", "", "run stall-heavy fillrandom twice (offload off, then on) and write the paired A/B record to this JSON file")
		servePath = flag.String("serve", "", "run the serving-tier A/B (batched vs per-connection dispatch, then open-loop overload) and write the paired record to this JSON file")
		srvClis   = flag.Int("serve-clients", 1024, "serving A/B: concurrent RPC clients")
		srvTens   = flag.Int("serve-tenants", 4, "serving A/B: tenant count for admission fairness accounting")
		srvDur    = flag.Duration("serve-duration", 2*time.Second, "serving A/B: per-arm virtual measurement window")
		srvLinger = flag.Int64("serve-linger-us", 100, "serving A/B: cross-connection batch linger ceiling in virtual microseconds")
		srvOver   = flag.Float64("serve-overload", 2.0, "serving A/B: open-loop offered load as a multiple of measured batched capacity")
		srvAdmit  = flag.Float64("serve-admit", 0.95, "serving A/B: admission-gate budget as a fraction of measured batched capacity")

		tracePath  = flag.String("trace", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) of the run's virtual timeline to this file")
		traceSum   = flag.Bool("trace-summary", false, "print per-phase virtual-time attribution and the stall-window report")
		traceDepth = flag.Int("trace-depth", 1<<20, "trace ring capacity in events (oldest overwritten)")
		jsonPath   = flag.String("json", "", "write the headline RunResult as machine-readable JSON to this file")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator itself (host real time, not virtual time) to this file")
		memProf    = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	if *valSize > 0 {
		*value = *valSize
	}
	if *noVLog {
		*vthresh = 0
	}
	frontSet := false
	flagSet := map[string]bool{}
	flag.Visit(func(f *flag.Flag) {
		flagSet[f.Name] = true
		if f.Name == "front-cache-mb" {
			frontSet = true
		}
	})
	// The serving A/B has its own sensible defaults where they differ
	// from the single-engine bench defaults.
	if *servePath != "" {
		if !flagSet["shards"] {
			*shards = 4
		}
		if !flagSet["value"] && !flagSet["value-size"] {
			*value = 128
		}
		if !flagSet["keyspace"] {
			*keyspace = 100_000
		}
		if !flagSet["scale"] {
			*scale = 1
		}
	}

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProf()

	if *cuts > 0 {
		return runTorture(*faultSee, *cuts, *tracePath)
	}

	if *servePath != "" {
		return runServe(serveRunParams{
			clients:        *srvClis,
			tenants:        *srvTens,
			shards:         *shards,
			scale:          *scale,
			duration:       *srvDur,
			keyspace:       *keyspace,
			value:          *value,
			seed:           *seed,
			lingerUS:       *srvLinger,
			preload:        20_000,
			overloadFactor: *srvOver,
			admitFraction:  *srvAdmit,
		}, *servePath)
	}

	rb, ok := parseRollback(*rollback)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown rollback scheme %q\n", *rollback)
		return 2
	}

	if strings.ToLower(*engine) == "kvaccel-sharded" {
		if *faultSee != 0 {
			fmt.Fprintln(os.Stderr, "-faults-seed is not supported for kvaccel-sharded")
			return 2
		}
		if *tracePath != "" || *traceSum || *jsonPath != "" {
			fmt.Fprintln(os.Stderr, "-trace/-trace-summary/-json are not supported for kvaccel-sharded")
			return 2
		}
		runSharded(shardedRunParams{
			shards:   *shards,
			writers:  *writers,
			threads:  *threads,
			rollback: rb,
			workload: strings.ToLower(*wl),
			readFrac: *readFrac,
			scale:    *scale,
			duration: *duration,
			keyspace: *keyspace,
			value:    *value,
			vthresh:  *vthresh,
			seed:     *seed,
			series:   *series,
			qd:       *qd,
			ioqueues: *ioqueues,
			queues:   *queues,
			frontCacheBytes: func() int64 {
				if *noFront || !frontSet {
					return 0
				}
				return int64(*frontMB) << 20
			}(),
			frontCacheNegative: *frontNeg,
		})
		return 0
	}

	p := harness.DefaultParams()
	p.Scale = *scale
	p.Duration = *duration
	p.KeySpace = *keyspace
	p.ValueSize = *value
	p.QueueDepth = *qd
	p.IOQueues = *ioqueues
	p.FaultsSeed = *faultSee
	p.Seed = *seed
	p.Writers = *writers
	p.LingerMicros = *lingerUS
	p.ValueThreshold = *vthresh
	p.ReadPct = *readPct
	p.ZipfTheta = *zipfT
	p.DisableBlockCache = *noBlock
	if *tracePath != "" || *traceSum {
		p.Trace = trace.New(*traceDepth)
	}

	spec := harness.EngineSpec{Threads: *threads, Slowdown: *slowdown}
	switch strings.ToLower(*engine) {
	case "rocksdb":
		spec.Kind = harness.KindRocksDB
	case "adoc":
		spec.Kind = harness.KindADOC
	case "kvaccel":
		spec.Kind = harness.KindKVAccel
		spec.Rollback = rb
	default:
		fmt.Fprintf(os.Stderr, "unknown engine %q\n", *engine)
		return 2
	}

	var kind harness.WorkloadKind
	switch strings.ToLower(*wl) {
	case "fillrandom":
		kind = harness.WorkloadA
	case "readwhilewriting":
		if *readFrac >= 0.15 {
			kind = harness.WorkloadC
		} else {
			kind = harness.WorkloadB
		}
	case "seekrandom":
		kind = harness.WorkloadD
	case "mixed":
		kind = harness.WorkloadMixed
	default:
		name := strings.ToLower(*wl)
		if _, ok := workload.Mix(name); !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
			return 2
		}
		kind = harness.WorkloadMixed
		p.Mix = name
	}

	// The front cache is the mixed-workload read accelerator: default-on
	// there (kvaccel engines only), opt-in elsewhere via -front-cache-mb.
	if !*noFront && spec.Kind == harness.KindKVAccel &&
		(kind == harness.WorkloadMixed || frontSet) {
		p.FrontCacheBytes = int64(*frontMB) << 20
	}
	p.FrontCacheNegative = *frontNeg
	p.FrontCacheDoorkeeper = *frontDoor
	p.OffloadCompaction = *offload

	if *cacheAB != "" {
		return runCacheAB(p, spec, int64(*frontMB)<<20, *cacheAB)
	}
	if *offloadAB != "" {
		return runOffloadAB(p, spec, *offloadAB)
	}
	if *qdSweep != "" {
		runQDSweep(p, spec, kind, *qdSweep)
		return 0
	}

	wlName := kind.String()
	if kind == harness.WorkloadMixed {
		mix := p.ResolveMix()
		wlName = fmt.Sprintf("Mixed(%s %s theta=%.2f)", mix.Name, mix.Dist, mix.EffectiveTheta())
	}
	fmt.Printf("kvbench: %s, %s, scale=%d duration=%v keyspace=%d value=%dB writers=%d seed=%d\n",
		spec.Name(), wlName, p.Scale, p.Duration, p.KeySpace, p.ValueSize, max(p.Writers, 1), p.Seed)
	res := p.Run(spec, kind)

	fmt.Printf("\nwrites      : %d ops, %.2f Kops/s, %.1f MB/s\n", res.Rec.Writes(), res.WriteKops(), res.WriteMBps())
	fmt.Printf("write lat   : %s\n", res.Rec.WriteLatency)
	if res.Rec.Reads() > 0 {
		fmt.Printf("reads       : %d ops, %.2f Kops/s\n", res.Rec.Reads(), res.ReadKops())
		fmt.Printf("read lat    : %s\n", res.Rec.ReadLatency)
	}
	if res.Rec.Scans() > 0 {
		fmt.Printf("scans       : %d ops, %.2f Kops/s\n", res.Rec.Scans(), res.ScanKops())
		fmt.Printf("scan lat    : %s\n", res.Rec.ScanLatency)
	}
	s := res.MainStats
	fmt.Printf("cpu         : %.1f%% avg  efficiency=%.3f MB/s per cpu%%\n", res.CPUAvg, res.Efficiency())
	printEngineSummary(s, res.WouldStallRedirects)
	printReadAttribution(res.KVStats)
	fmt.Printf("tree        : %s\n", res.Levels)
	if res.Redirects > 0 || res.Rollbacks > 0 {
		fmt.Printf("kvaccel     : redirected=%d rollbacks=%d\n", res.Redirects, res.Rollbacks)
	}
	if *faultSee != 0 {
		fmt.Printf("faults      : injected=%d retried=%d failed=%d (dev-errors=%d)\n",
			res.Injected, res.DevRetries, res.DevFailed, res.DevErrors)
	}
	if *queues {
		for _, q := range res.Queues {
			if q.Submitted == 0 {
				continue
			}
			fmt.Printf("queue       : %s\n", q)
		}
	}
	if *traceSum && res.TraceSummary != nil {
		fmt.Printf("\n--- virtual-time attribution (%d events, %d dropped) ---\n", p.Trace.Len(), p.Trace.Dropped())
		fmt.Print(res.TraceSummary.Table())
		fmt.Println()
		fmt.Print(res.TraceStalls.String())
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := p.Trace.WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			f.Close()
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("trace       : %d events -> %s (load in chrome://tracing or ui.perfetto.dev)\n", p.Trace.Len(), *tracePath)
	}
	if *jsonPath != "" {
		if err := writeJSONResult(*jsonPath, p, spec, kind, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("json        : headline result -> %s\n", *jsonPath)
	}
	if *series {
		fmt.Println()
		fmt.Print(res.Rec.WriteSeries.TSV())
		if res.Rec.Reads() > 0 {
			fmt.Print(res.Rec.ReadSeries.TSV())
		}
		fmt.Print(res.PCIeSeries.TSV())
		fmt.Print(res.PCIeH2D.TSV())
		fmt.Print(res.PCIeD2H.TSV())
	}
	return 0
}

// startProfiles arms the requested pprof outputs. These measure the
// simulator's own host cost — real CPU seconds and heap bytes spent
// simulating, not virtual time (that is what -trace shows).
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
		}
	}, nil
}

// benchJSON is the machine-readable headline of one run — the record
// appended to the BENCH_*.json perf trajectory.
type benchJSON struct {
	Engine    string  `json:"engine"`
	Workload  string  `json:"workload"`
	Scale     int     `json:"scale"`
	Seed      int64   `json:"seed"`
	Writers   int     `json:"writers"`
	DurationS float64 `json:"duration_s"` // virtual seconds measured

	Mix string `json:"mix,omitempty"` // resolved mixed-workload preset

	Writes     int64   `json:"writes"`
	WriteKops  float64 `json:"write_kops"`
	WriteMBps  float64 `json:"write_mbps"`
	Reads      int64   `json:"reads,omitempty"`
	ReadKops   float64 `json:"read_kops,omitempty"`
	Scans      int64   `json:"scans,omitempty"`
	ScanKops   float64 `json:"scan_kops,omitempty"`
	WriteP50US float64 `json:"write_p50_us"`
	WriteP99US float64 `json:"write_p99_us"`
	ReadP50US  float64 `json:"read_p50_us,omitempty"`
	ReadP99US  float64 `json:"read_p99_us,omitempty"`
	ScanP50US  float64 `json:"scan_p50_us,omitempty"`
	ScanP99US  float64 `json:"scan_p99_us,omitempty"`

	CPUAvgPct  float64 `json:"cpu_avg_pct"`
	Efficiency float64 `json:"efficiency_mbps_per_cpu_pct"`

	Stalls      int64   `json:"stalls"`
	StallTimeS  float64 `json:"stall_time_s"`
	Slowdowns   int64   `json:"slowdowns"`
	Flushes     int64   `json:"flushes"`
	Compactions int64   `json:"compactions"`
	WriteAmp    float64 `json:"write_amp"`
	Redirected  int64   `json:"redirected,omitempty"`
	Rollbacks   int64   `json:"rollbacks,omitempty"`

	GroupCommits        int64   `json:"group_commits,omitempty"`
	MeanGroupSize       float64 `json:"mean_group_size,omitempty"`
	WALAppendsPerRecord float64 `json:"wal_appends_per_record,omitempty"`
	WouldStallRedirects int64   `json:"would_stall_redirects,omitempty"`
	GroupLingerWaits    int64   `json:"group_linger_waits,omitempty"`
	GroupLingerMicros   int64   `json:"group_linger_micros,omitempty"`
	PipelinedAppends    int64   `json:"pipelined_appends,omitempty"`

	ValueLog *vlogJSON `json:"value_log,omitempty"`

	// FrontCache, BlockCache, and Attribution are the read-pipeline
	// blocks: hot-key front cache counters, Main-LSM block cache
	// counters, and the controller's per-source read attribution.
	FrontCache  *frontCacheJSON  `json:"front_cache,omitempty"`
	BlockCache  *blockCacheJSON  `json:"block_cache,omitempty"`
	Attribution *attributionJSON `json:"read_attribution,omitempty"`

	PCIeAvgMBps float64 `json:"pcie_avg_mbps"`

	Queues []queueJSON `json:"queues,omitempty"`

	TracePhases []phaseJSON `json:"trace_phases,omitempty"`
}

// vlogJSON is the value-separation block of benchJSON, present only when
// the run had a value log.
type vlogJSON struct {
	Segments     int64 `json:"segments"`
	GCRewrites   int64 `json:"gc_rewrites"`
	DiscardBytes int64 `json:"discard_bytes"`
	PunchedBytes int64 `json:"punched_bytes"`
}

// frontCacheJSON is the hot-key front cache block, present when the
// cache saw any traffic.
type frontCacheJSON struct {
	Hits          int64   `json:"hits"`
	NegHits       int64   `json:"neg_hits,omitempty"` // subset of Hits answered by negative entries
	Misses        int64   `json:"misses"`
	HitRate       float64 `json:"hit_rate"`
	Fills         int64   `json:"fills"`
	NegFills      int64   `json:"neg_fills,omitempty"`
	Rejected      int64   `json:"rejected"`
	Invalidations int64   `json:"invalidations"`
	Evictions     int64   `json:"evictions"`
	Entries       int64   `json:"entries"`
	UsedBytes     int64   `json:"used_bytes"`
}

// blockCacheJSON is the Main-LSM SST block cache block.
type blockCacheJSON struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	HitRate   float64 `json:"hit_rate"`
	Evictions int64   `json:"evictions"`
}

// attributionJSON is the controller's per-source read attribution;
// Sums asserts FrontCache + DevLSM + MainLSM == Gets.
type attributionJSON struct {
	FrontCache int64 `json:"front_cache"`
	DevLSM     int64 `json:"dev_lsm"`
	MainLSM    int64 `json:"main_lsm"`
	Gets       int64 `json:"gets"`
	Sums       bool  `json:"sums"`
}

// queueJSON is one NVMe queue pair. The unprefixed fields are totals;
// fg_*/bg_* split foreground admission (WAL appends, user reads) from
// background maintenance traffic (compaction, flush, offload validation)
// so device-merge I/O no longer inflates the foreground depth numbers.
type queueJSON struct {
	Name        string  `json:"name"`
	Submitted   int64   `json:"submitted"`
	MeanDepth   float64 `json:"mean_depth"`
	MeanUS      float64 `json:"mean_us"`
	P99US       float64 `json:"p99_us"`
	FgSubmitted int64   `json:"fg_submitted,omitempty"`
	FgMeanDepth float64 `json:"fg_mean_depth,omitempty"`
	FgMeanUS    float64 `json:"fg_mean_us,omitempty"`
	FgP99US     float64 `json:"fg_p99_us,omitempty"`
	BgSubmitted int64   `json:"bg_submitted,omitempty"`
	BgMeanDepth float64 `json:"bg_mean_depth,omitempty"`
	BgMeanUS    float64 `json:"bg_mean_us,omitempty"`
	BgP99US     float64 `json:"bg_p99_us,omitempty"`
}

type phaseJSON struct {
	Phase   string  `json:"phase"`
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MaxUS   float64 `json:"max_us"`
}

func writeJSONResult(path string, p harness.Params, spec harness.EngineSpec, kind harness.WorkloadKind, res *harness.RunResult) error {
	out := makeBenchJSON(p, spec, kind, res)
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func makeBenchJSON(p harness.Params, spec harness.EngineSpec, kind harness.WorkloadKind, res *harness.RunResult) benchJSON {
	out := benchJSON{
		Engine:      spec.Name(),
		Workload:    kind.String(),
		Scale:       p.Scale,
		Seed:        p.Seed,
		Writers:     max(p.Writers, 1),
		DurationS:   res.Duration.Seconds(),
		Writes:      res.Rec.Writes(),
		WriteKops:   res.WriteKops(),
		WriteMBps:   res.WriteMBps(),
		Reads:       res.Rec.Reads(),
		ReadKops:    res.ReadKops(),
		WriteP50US:  float64(res.Rec.WriteLatency.Quantile(0.5)) / 1e3,
		WriteP99US:  float64(res.Rec.WriteLatency.Quantile(0.99)) / 1e3,
		CPUAvgPct:   res.CPUAvg,
		Efficiency:  res.Efficiency(),
		Stalls:      res.MainStats.TotalStalls(),
		StallTimeS:  res.MainStats.StallTime.Seconds(),
		Slowdowns:   res.MainStats.Slowdowns,
		Flushes:     res.MainStats.Flushes,
		Compactions: res.MainStats.Compactions,
		WriteAmp:    res.MainStats.WriteAmplification(),
		Redirected:  res.Redirects,
		Rollbacks:   res.Rollbacks,
		PCIeAvgMBps: res.PCIeSeries.Mean(),

		GroupCommits:        res.MainStats.GroupCommits,
		MeanGroupSize:       res.MainStats.MeanGroupSize(),
		WALAppendsPerRecord: res.MainStats.WALAppendsPerRecord(),
		WouldStallRedirects: res.WouldStallRedirects,
		GroupLingerWaits:    res.MainStats.GroupLingerWaits,
		GroupLingerMicros:   res.MainStats.GroupLingerMicros,
		PipelinedAppends:    res.MainStats.PipelinedAppends,
	}
	if kind == harness.WorkloadMixed {
		out.Mix = res.MixSpec.Name
	}
	if res.Rec.Reads() > 0 {
		out.ReadP50US = float64(res.Rec.ReadLatency.Quantile(0.5)) / 1e3
		out.ReadP99US = float64(res.Rec.ReadLatency.Quantile(0.99)) / 1e3
	}
	if res.Rec.Scans() > 0 {
		out.Scans = res.Rec.Scans()
		out.ScanKops = res.ScanKops()
		out.ScanP50US = float64(res.Rec.ScanLatency.Quantile(0.5)) / 1e3
		out.ScanP99US = float64(res.Rec.ScanLatency.Quantile(0.99)) / 1e3
	}
	kv := res.KVStats
	if kv.FrontCacheHits+kv.FrontCacheMisses > 0 {
		out.FrontCache = &frontCacheJSON{
			Hits:          kv.FrontCacheHits,
			NegHits:       kv.FrontCacheNegHits,
			Misses:        kv.FrontCacheMisses,
			HitRate:       kv.FrontCacheHitRate(),
			Fills:         kv.FrontCacheFills,
			NegFills:      kv.FrontCacheNegFills,
			Rejected:      kv.FrontCacheRejected,
			Invalidations: kv.FrontCacheInvalidations,
			Evictions:     kv.FrontCacheEvictions,
			Entries:       kv.FrontCacheEntries,
			UsedBytes:     kv.FrontCacheUsed,
		}
	}
	if m := res.MainStats; m.BlockCacheHits+m.BlockCacheMisses > 0 {
		out.BlockCache = &blockCacheJSON{
			Hits:      m.BlockCacheHits,
			Misses:    m.BlockCacheMisses,
			HitRate:   m.BlockCacheHitRate(),
			Evictions: m.BlockCacheEvictions,
		}
	}
	if kv.Gets > 0 {
		out.Attribution = &attributionJSON{
			FrontCache: kv.FrontCacheHits,
			DevLSM:     kv.DevServed,
			MainLSM:    kv.MainGets,
			Gets:       kv.Gets,
			Sums:       kv.FrontCacheHits+kv.DevServed+kv.MainGets == kv.Gets,
		}
	}
	if m := res.MainStats; m.VLogSegments > 0 || m.VLogBytes > 0 {
		out.ValueLog = &vlogJSON{
			Segments:     m.VLogSegments,
			GCRewrites:   m.VLogGCRewrites,
			DiscardBytes: m.VLogDiscardBytes,
			PunchedBytes: m.VLogPunchedBytes,
		}
	}
	for _, q := range res.Queues {
		if q.Submitted == 0 {
			continue
		}
		qj := queueJSON{
			Name:      q.Name,
			Submitted: q.Submitted,
			MeanDepth: q.MeanOutstanding,
			MeanUS:    float64(q.Latency.Mean()) / 1e3,
			P99US:     float64(q.Latency.Quantile(0.99)) / 1e3,
		}
		if q.BgSubmitted > 0 {
			qj.FgSubmitted = q.Submitted - q.BgSubmitted
			qj.FgMeanDepth = q.MeanOutstanding - q.MeanBgOutstanding
			qj.FgMeanUS = float64(q.FgLatency.Mean()) / 1e3
			qj.FgP99US = float64(q.FgLatency.Quantile(0.99)) / 1e3
			qj.BgSubmitted = q.BgSubmitted
			qj.BgMeanDepth = q.MeanBgOutstanding
			qj.BgMeanUS = float64(q.BgLatency.Mean()) / 1e3
			qj.BgP99US = float64(q.BgLatency.Quantile(0.99)) / 1e3
		}
		out.Queues = append(out.Queues, qj)
	}
	if res.TraceSummary != nil {
		for _, ps := range res.TraceSummary.Phases {
			out.TracePhases = append(out.TracePhases, phaseJSON{
				Phase:   ps.Phase.String(),
				Count:   ps.Count,
				TotalMS: float64(ps.Total) / 1e6,
				MaxUS:   float64(ps.Max) / 1e3,
			})
		}
	}
	return out
}

// runTorture runs the §9 crash-recovery torture from the CLI: fillrandom
// with rollback active, n seeded power cuts, reattach + Recover after
// each, and the host-side durability oracle. Exits non-zero on any
// oracle violation.
func runTorture(seed int64, n int, tracePath string) int {
	if seed == 0 {
		seed = 1
	}
	p := harness.DefaultTortureParams(seed)
	p.Cuts = n
	p.TracePath = tracePath
	p.Logf = func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}
	fmt.Printf("kvbench: crash-recovery torture, seed=%d power-cuts=%d\n", seed, n)
	rep := harness.RunTorture(p)
	fmt.Printf("\nphases      : %d (%d cuts fired)\n", rep.Phases, rep.CutsFired)
	fmt.Printf("writes      : %d acked, %d redirected, %d flush barriers\n", rep.Acked, rep.Redirected, rep.Barriers)
	fmt.Printf("recovery    : %d pairs replayed\n", rep.Recovered)
	fmt.Printf("faults      : injected=%d retried=%d failed=%d (dev-errors=%d)\n",
		rep.Injected, rep.DevRetries, rep.DevFailed, rep.DevErrors)
	if len(rep.Violations) > 0 {
		fmt.Printf("oracle      : %d VIOLATIONS\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Printf("  - %s\n", v)
		}
		if rep.TraceDumped {
			fmt.Printf("trace       : violating window -> %s\n", tracePath)
		}
		return 1
	}
	fmt.Println("oracle      : all checks passed")
	return 0
}

// runCacheAB is the read-cache A/B harness: it runs the mixed workload
// twice on identical seeds — hot-key front cache and block cache on,
// then both off — and writes the paired headline records plus the read
// speedup and the attribution check to path. Exits non-zero if the
// per-source read attribution fails to sum.
func runCacheAB(p harness.Params, spec harness.EngineSpec, frontBytes int64, path string) int {
	kind := harness.WorkloadMixed
	mix := p.ResolveMix()
	fmt.Printf("kvbench: %s, Mixed(%s %s theta=%.2f), scale=%d duration=%v keyspace=%d seed=%d — cache A/B (front+block on vs off)\n",
		spec.Name(), mix.Name, mix.Dist, mix.EffectiveTheta(), p.Scale, p.Duration, p.KeySpace, p.Seed)
	fmt.Printf("%7s %10s %9s %12s %11s %11s\n",
		"caches", "reads", "Kops/s", "read-p99", "front-hit", "block-hit")
	row := func(label string, res *harness.RunResult) {
		fmt.Printf("%7s %10d %9.2f %12v %10.1f%% %10.1f%%\n",
			label, res.Rec.Reads(), res.ReadKops(),
			res.Rec.ReadLatency.Quantile(0.99),
			res.KVStats.FrontCacheHitRate()*100,
			res.MainStats.BlockCacheHitRate()*100)
	}

	on := p
	on.FrontCacheBytes = frontBytes
	on.DisableBlockCache = false
	resOn := on.Run(spec, kind)
	row("on", resOn)

	off := p
	off.FrontCacheBytes = 0
	off.DisableBlockCache = true
	resOff := off.Run(spec, kind)
	row("off", resOff)

	var speedup float64
	if resOff.ReadKops() > 0 {
		speedup = resOn.ReadKops() / resOff.ReadKops()
	}
	kv := resOn.KVStats
	attributionOK := kv.Gets > 0 && kv.FrontCacheHits+kv.DevServed+kv.MainGets == kv.Gets
	fmt.Printf("speedup     : %.2fx reads with caches on (attribution-ok=%v)\n", speedup, attributionOK)

	out := struct {
		Mix           string    `json:"mix"`
		CacheOn       benchJSON `json:"cache_on"`
		CacheOff      benchJSON `json:"cache_off"`
		ReadSpeedup   float64   `json:"read_speedup"`
		AttributionOK bool      `json:"attribution_ok"`
	}{mix.Name, makeBenchJSON(on, spec, kind, resOn), makeBenchJSON(off, spec, kind, resOff), speedup, attributionOK}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("json        : cache A/B record -> %s\n", path)
	if !attributionOK {
		fmt.Fprintln(os.Stderr, "read attribution failed to sum")
		return 1
	}
	return 0
}

// runQDSweep reruns the same workload once per requested queue depth and
// prints one summary row each — the knob the NVMe layer exists for.
func runQDSweep(p harness.Params, spec harness.EngineSpec, kind harness.WorkloadKind, list string) {
	fmt.Printf("kvbench: %s, %s, scale=%d duration=%v — queue-depth sweep\n",
		spec.Name(), kind, p.Scale, p.Duration)
	fmt.Printf("%6s %12s %10s %14s %14s\n", "qd", "writes", "Kops/s", "write-p99", "stall-time")
	for _, field := range strings.Split(list, ",") {
		var depth int
		if _, err := fmt.Sscanf(strings.TrimSpace(field), "%d", &depth); err != nil || depth < 1 {
			fmt.Fprintf(os.Stderr, "bad queue depth %q\n", field)
			os.Exit(2)
		}
		q := p
		q.QueueDepth = depth
		res := q.Run(spec, kind)
		fmt.Printf("%6d %12d %10.2f %14v %14v\n",
			depth, res.Rec.Writes(), res.WriteKops(),
			res.Rec.WriteLatency.Quantile(0.99), res.MainStats.StallTime)
	}
}
