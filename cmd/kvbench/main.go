// Command kvbench is the repo's db_bench: it runs one Table IV or YCSB
// workload against one engine (rocksdb, adoc, or kvaccel on -shards hash
// partitions) on a fresh simulated testbed through internal/harness
// and prints db_bench-style summary lines, optionally with a per-second
// series, a Chrome trace, or pprof profiles of the simulator itself.
// -power-cuts runs the crash-recovery torture instead.
//
// Measurements with a protocol live in bench/ (bash bench/run.sh); the
// A/B inequalities live in go test -run TestRatchet ./internal/harness.
//
// Examples:
//
//	kvbench -engine rocksdb -workload fillrandom -threads 1 -slowdown=false
//	kvbench -engine kvaccel -workload readwhilewriting -read-pct 0.2 -rollback eager
//	kvbench -engine adoc -workload seekrandom
//	kvbench -engine kvaccel -shards 4 -workload ycsb-a -series
//	kvbench -engine rocksdb -slowdown=false -trace out.json -trace-summary
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"kvaccel/internal/core"
	"kvaccel/internal/harness"
	"kvaccel/internal/trace"
	"kvaccel/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// traceDepth is the trace ring capacity in events (oldest overwritten).
const traceDepth = 1 << 20

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		engine    = fs.String("engine", "kvaccel", "engine: rocksdb, adoc, kvaccel")
		wl        = fs.String("workload", "fillrandom", "workload: fillrandom, readwhilewriting, seekrandom, ycsb-a..ycsb-f, mixed")
		threads   = fs.Int("threads", 1, "compaction threads")
		slowdown  = fs.Bool("slowdown", true, "enable the RocksDB slowdown mechanism (rocksdb/adoc)")
		rollback  = fs.String("rollback", "lazy", "kvaccel rollback scheme: disabled, lazy, eager")
		scale     = fs.Int("scale", 10, "device/CPU scale divisor")
		duration  = fs.Duration("duration", 30*time.Second, "virtual run duration")
		keyspace  = fs.Int("keyspace", 300_000, "key domain size")
		valSize   = fs.Int("value-size", 4096, "value size in bytes")
		vthresh   = fs.Int("value-threshold", 1024, "separate values >= this many bytes into the value log (WiscKey); 0 keeps values inline")
		series    = fs.Bool("series", false, "print per-second throughput TSV")
		shards    = fs.Int("shards", 1, "kvaccel hash partitions on the one machine (values below 1 run one)")
		writers   = fs.Int("writers", 0, "concurrent writer/client threads (default: one per shard)")
		seed      = fs.Int64("seed", 1, "workload RNG seed (writer i uses seed+i*101)")
		lingerUS  = fs.Int64("linger-us", 30, "group leader adaptive linger window in unscaled virtual microseconds (multiplied by -scale; 0 disables)")
		qd        = fs.Int("qd", 0, "NVMe submission-queue depth per queue pair (0 = device default, 32)")
		ioqueues  = fs.Int("ioqueues", 0, "block-interface I/O queue pairs to stripe over (0 = default, 1)")
		faultSeed = fs.Int64("faults-seed", 0, "seed a deterministic device fault plan (0 = no injection)")
		cuts      = fs.Int("power-cuts", 0, "run the crash-recovery torture instead of a bench: cut device power N times, recover, verify the oracle")
		readPct   = fs.Float64("read-pct", 0, "read fraction: overrides the mixed-workload preset; for readwhilewriting >= 0.15 picks the 8:2 mix, else 9:1")
		zipfT     = fs.Float64("zipf-theta", 0, "zipfian skew override for mixed workloads (0 = YCSB default 0.99)")
		frontMB   = fs.Int("front-cache-mb", -1, "hot-key front cache budget in MB (kvaccel engines; -1 = 32 for mixed workloads, else off)")
		noBlock   = fs.Bool("no-block-cache", false, "disable the Main-LSM block cache (cold-cache baseline)")
		tracePath = fs.String("trace", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) of the run's virtual timeline to this file")
		traceSum  = fs.Bool("trace-summary", false, "print per-phase virtual-time attribution and the stall-window report")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the simulator itself (host real time, not virtual time) to this file")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return 2
	}

	stopProf, err := startProfiles(*cpuProf, *memProf, stderr)
	if err != nil {
		return usage("%v", err)
	}
	defer stopProf()

	if *cuts > 0 {
		return runTorture(stdout, *faultSeed, *cuts, *tracePath)
	}

	p := harness.DefaultParams()
	p.Scale = *scale
	p.Duration = *duration
	p.KeySpace = *keyspace
	p.ValueSize = *valSize
	p.QueueDepth = *qd
	p.IOQueues = *ioqueues
	p.FaultsSeed = *faultSeed
	p.Seed = *seed
	p.Writers = *writers
	p.LingerMicros = *lingerUS
	p.ValueThreshold = *vthresh
	p.ReadPct = *readPct
	p.ZipfTheta = *zipfT
	p.DisableBlockCache = *noBlock
	tracing := *tracePath != "" || *traceSum
	if tracing {
		p.Trace = trace.New(traceDepth)
	}

	spec := harness.EngineSpec{Threads: *threads, Slowdown: *slowdown}
	nShards := max(*shards, 1)
	switch *rollback {
	case "disabled":
		spec.Rollback = core.RollbackDisabled
	case "lazy":
		spec.Rollback = core.RollbackLazy
	case "eager":
		spec.Rollback = core.RollbackEager
	default:
		return usage("unknown rollback scheme %q", *rollback)
	}
	switch strings.ToLower(*engine) {
	case "rocksdb":
		spec.Kind = harness.KindRocksDB
	case "adoc":
		spec.Kind = harness.KindADOC
	case "kvaccel":
		spec.Kind = harness.KindKVAccel
	default:
		return usage("unknown engine %q", *engine)
	}
	if nShards > 1 && spec.Kind != harness.KindKVAccel {
		return usage("-shards %d: only kvaccel runs on more than one shard", nShards)
	}
	if p.Writers < 1 {
		p.Writers = nShards
	}
	var kind harness.WorkloadKind
	switch name := strings.ToLower(*wl); name {
	case "fillrandom":
		kind = harness.WorkloadA
	case "readwhilewriting":
		kind = harness.WorkloadB
		if *readPct >= 0.15 {
			kind = harness.WorkloadC
		}
	case "seekrandom":
		kind = harness.WorkloadD
	case "mixed":
		kind = harness.WorkloadMixed
	default:
		if _, ok := workload.Mix(name); !ok {
			return usage("unknown workload %q", *wl)
		}
		kind = harness.WorkloadMixed
		p.Mix = name
	}

	// The front cache is the mixed-workload read accelerator: default-on
	// there (kvaccel engines only), opt-in elsewhere via -front-cache-mb.
	if spec.Kind == harness.KindKVAccel {
		switch {
		case *frontMB >= 0:
			p.FrontCacheBytes = int64(*frontMB) << 20
		case kind == harness.WorkloadMixed:
			p.FrontCacheBytes = 32 << 20
		}
	}

	wlName := kind.String()
	if kind == harness.WorkloadMixed {
		mix := p.ResolveMix()
		wlName = fmt.Sprintf("Mixed(%s %s theta=%.2f)", mix.Name, mix.Dist, mix.EffectiveTheta())
	}
	name := spec.Name()
	if nShards > 1 {
		name = spec.ShardedName(nShards)
	}
	fmt.Fprintf(stdout, "kvbench: %s, %s, scale=%d duration=%v keyspace=%d value=%dB writers=%d seed=%d\n",
		name, wlName, p.Scale, p.Duration, p.KeySpace, p.ValueSize, max(p.Writers, 1), p.Seed)
	res := p.RunSharded(spec, nShards, kind)
	printResult(stdout, res, *faultSeed != 0)

	if *traceSum {
		fmt.Fprintf(stdout, "\n--- virtual-time attribution (%d events, %d dropped) ---\n", p.Trace.Len(), p.Trace.Dropped())
		fmt.Fprint(stdout, res.TraceSummary.Table())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, res.TraceStalls.String())
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, p.Trace); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "trace       : %d events -> %s (load in chrome://tracing or ui.perfetto.dev)\n", p.Trace.Len(), *tracePath)
	}
	if *series {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, res.Rec.WriteSeries.TSV())
		if res.Rec.Reads() > 0 {
			fmt.Fprint(stdout, res.Rec.ReadSeries.TSV())
		}
		fmt.Fprint(stdout, res.PCIeSeries.TSV())
		fmt.Fprint(stdout, res.PCIeH2D.TSV())
		fmt.Fprint(stdout, res.PCIeD2H.TSV())
	}
	return 0
}

func writeTrace(path string, t *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProfiles arms the requested pprof outputs. These measure the
// simulator's own host cost — real CPU seconds and heap bytes spent
// simulating, not virtual time (that is what -trace shows).
func startProfiles(cpuPath, memPath string, stderr io.Writer) (stop func(), err error) {
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
				fmt.Fprintln(stderr, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
			f.Close()
		}
	}, nil
}

// runTorture runs the §9 crash-recovery torture from the CLI: fillrandom
// with rollback active, n seeded power cuts, reattach + Recover after
// each, and the host-side durability oracle. Exits non-zero on any
// oracle violation.
func runTorture(w io.Writer, seed int64, n int, tracePath string) int {
	if seed == 0 {
		seed = 1
	}
	p := harness.DefaultTortureParams(seed)
	p.Cuts = n
	p.TracePath = tracePath
	p.Logf = func(format string, args ...any) {
		fmt.Fprintf(w, format+"\n", args...)
	}
	fmt.Fprintf(w, "kvbench: crash-recovery torture, seed=%d power-cuts=%d\n", seed, n)
	rep := harness.RunTorture(p)
	fmt.Fprintf(w, "\nphases      : %d (%d cuts fired)\n", rep.Phases, rep.CutsFired)
	fmt.Fprintf(w, "writes      : %d acked, %d redirected, %d flush barriers\n", rep.Acked, rep.Redirected, rep.Barriers)
	fmt.Fprintf(w, "recovery    : %d pairs replayed\n", rep.KVStats.RollbackPairs)
	printFaults(w, rep.Injected, rep.KVStats)
	if len(rep.Violations) > 0 {
		fmt.Fprintf(w, "oracle      : %d VIOLATIONS\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Fprintf(w, "  - %s\n", v)
		}
		if rep.TraceDumped {
			fmt.Fprintf(w, "trace       : violating window -> %s\n", tracePath)
		}
		return 1
	}
	fmt.Fprintln(w, "oracle      : all checks passed")
	return 0
}
