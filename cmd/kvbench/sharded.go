package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"kvaccel"
	"kvaccel/internal/core"
	"kvaccel/internal/workload"
)

func parseRollback(s string) (core.RollbackScheme, bool) {
	switch s {
	case "disabled":
		return core.RollbackDisabled, true
	case "lazy":
		return core.RollbackLazy, true
	case "eager":
		return core.RollbackEager, true
	}
	return 0, false
}

type shardedRunParams struct {
	shards   int
	writers  int
	threads  int
	rollback core.RollbackScheme
	workload string
	readFrac float64
	scale    int
	duration time.Duration
	keyspace int
	value    int
	vthresh  int
	seed     int64
	series   bool
	qd       int
	ioqueues int
	queues   bool
	// frontCacheBytes is the total hot-key front cache budget, split
	// evenly across shards by OpenSharded (0 = disabled).
	frontCacheBytes int64
	// frontCacheNegative also caches confirmed-missing keys.
	frontCacheNegative bool
}

// runSharded drives the ShardedDB front-end: N writer threads over N
// hash-partitioned KVACCEL shards on one shared simulated machine.
func runSharded(p shardedRunParams) {
	if p.shards < 1 {
		p.shards = 1
	}
	if p.writers < 1 {
		p.writers = p.shards // default: one writer per shard
	}

	opt := kvaccel.DefaultShardedOptions()
	opt.Shards = p.shards
	opt.Scale = p.scale
	opt.CompactionThreads = p.threads
	opt.Rollback = p.rollback
	opt.QueueDepth = p.qd
	opt.IOQueues = p.ioqueues
	opt.ValueThreshold = p.vthresh
	opt.FrontCacheBytes = p.frontCacheBytes
	opt.FrontCacheNegative = p.frontCacheNegative
	db := kvaccel.OpenSharded(opt)
	eng := workload.ShardedEngine{DB: db}

	cfg := workload.DefaultConfig()
	cfg.KeySpace = p.keyspace
	cfg.ValueSize = p.value
	cfg.Duration = p.duration
	if p.seed != 0 {
		cfg.Seed = p.seed
	}

	fmt.Printf("kvbench: KVAccel-sharded(%d), %s, writers=%d scale=%d duration=%v keyspace=%d value=%dB\n",
		p.shards, p.workload, p.writers, opt.Scale, p.duration, p.keyspace, p.value)

	// One recorder shared by every writer: op counters are atomic and
	// the histograms lock internally, so concurrent observes are safe.
	rec := workload.NewRecorder(fmt.Sprintf("sharded-%d", p.shards))
	var remaining atomic.Int32
	remaining.Store(int32(p.writers))
	var done atomic.Bool
	var elapsed time.Duration

	// Per-second throughput sampler (paper-equivalent cadence, as in the
	// harness: virtual seconds x scale on the time axis).
	interval := time.Second / time.Duration(opt.Scale)
	db.Run("sampler", func(r *kvaccel.Runner) {
		for !done.Load() {
			r.Sleep(interval)
			rec.Sample(r.Now().Seconds()*float64(opt.Scale), interval)
		}
	})

	for w := 0; w < p.writers; w++ {
		w := w
		db.Run(fmt.Sprintf("writer-%d", w), func(r *kvaccel.Runner) {
			c := cfg
			c.Seed = cfg.Seed + int64(w)*101 // disjoint key streams per writer
			start := r.Now()
			switch p.workload {
			case "fillrandom":
				workload.FillRandom(r, eng, c, rec)
			case "readwhilewriting":
				c.ReadFraction = p.readFrac
				workload.ReadWhileWriting(r, db.Clock(), eng, c, rec)
			case "seekrandom":
				if w == 0 {
					workload.FillSequential(r, eng, c, p.keyspace)
				}
				workload.SeekRandom(r, eng, c, rec)
			default:
				fmt.Fprintf(os.Stderr, "unknown workload %q for kvaccel-sharded\n", p.workload)
				os.Exit(2)
			}
			if d := r.Now().Sub(start); d > elapsed {
				elapsed = d // longest writer defines the run
			}
			if remaining.Add(-1) == 0 {
				done.Store(true)
				db.Close()
			}
		})
	}
	db.Wait()

	st := db.Stats()
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = p.duration.Seconds()
	}
	fmt.Printf("\nwrites      : %d ops, %.2f Kops/s, %.1f MB/s\n",
		rec.Writes(), float64(rec.Writes())/secs/1000,
		float64(rec.Writes())*float64(p.value)/1e6/secs)
	fmt.Printf("write lat   : %s\n", rec.WriteLatency)
	if rec.Reads() > 0 {
		fmt.Printf("reads       : %d ops, %.2f Kops/s\n", rec.Reads(), float64(rec.Reads())/secs/1000)
		fmt.Printf("read lat    : %s\n", rec.ReadLatency)
	}
	m := st.Main
	printEngineSummary(m, st.KVAccel.WouldStallRedirects)
	printReadAttribution(st.KVAccel)
	fmt.Printf("kvaccel     : redirected=%d rollbacks=%d\n", st.KVAccel.RedirectedPuts, st.KVAccel.Rollbacks)
	for i, s := range st.PerShard {
		fmt.Printf("shard %-6d: puts=%d redirected=%d rollbacks=%d stalls=%d stall-time=%v\n",
			i, s.KVAccel.NormalPuts+s.KVAccel.RedirectedPuts, s.KVAccel.RedirectedPuts,
			s.KVAccel.Rollbacks, s.Main.TotalStalls(), s.Main.StallTime)
	}
	if p.queues {
		for _, q := range db.QueueStats() {
			if q.Submitted == 0 {
				continue
			}
			fmt.Printf("queue       : %s\n", q)
		}
	}
	if p.series {
		fmt.Println()
		fmt.Print(rec.WriteSeries.TSV())
		if rec.Reads() > 0 {
			fmt.Print(rec.ReadSeries.TSV())
		}
	}
}
