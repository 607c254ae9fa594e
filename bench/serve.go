package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"kvaccel"
	"kvaccel/internal/lsm"
	"kvaccel/internal/server"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
	"kvaccel/internal/workload"
)

// runServe drives serve_closed. It is harness.ServeParams.RunServe with
// its defaults (4 shards, scale 1, 128 B values, YCSB-A zipfian, batching
// on) unrolled, because RunServe offers no hook between preload and the
// first client op — the boundary that separates set-up from the measured
// window. With measure false it only preloads and tears down.
func runServe(spec workloadSpec, o runOpts, window time.Duration, measure bool, tr *trace.Tracer, res *result) (float64, *measured, error) {
	load := workload.DefaultServeConfig()
	load.Clients = spec.Clients
	load.Duration = window
	load.Seed = o.Seed
	scfg := server.DefaultConfig()
	scfg.Tenants = load.Tenants
	scfg.Tracer = tr

	t0 := time.Now()
	opt := kvaccel.DefaultShardedOptions()
	opt.Shards = 4
	opt.Scale = 1
	db := kvaccel.OpenSharded(opt) // holds the clock until the first Run
	srv := server.New(db, scfg)
	sl := workload.NewServeLoad(load, spec.Keys)

	// RunServe cannot hand a tracer to ShardedDB, so below
	// server.engine_us_per_req this workload has counters only.
	stk := &stack{clk: db.Clock(), dev: db.Device(), srv: srv, tr: tr}
	for i := 0; i < db.NumShards(); i++ {
		stk.kvs = append(stk.kvs, db.Shard(i))
		stk.mains = append(stk.mains, interface{ Stats() lsm.Stats }(db.Shard(i).Main()))
	}
	m := &measured{win: &bracket{stk: stk, traced: tr != nil}}

	var (
		setup     time.Duration
		remaining atomic.Int32
		stop      atomic.Bool
		windowEnd vclock.Time
		wallEnd   time.Time
		wr        *vclock.Runner
		tput      *[]int64
	)
	remaining.Store(int32(spec.Clients))
	ready := vclock.NewEvent("bench.preload-done")
	answered := func() int64 {
		s := sl.Rec.Snapshot()
		return s.OK + s.NotFound
	}

	db.Run("bench.preload", func(r *kvaccel.Runner) {
		wr = r
		workload.FillSequential(r, workload.ShardedEngine{DB: db}, workload.Config{ValueSize: load.ValueSize}, spec.Keys)
		setup = time.Since(t0)
		if !measure {
			srv.Shutdown(r)
			db.Close()
			return
		}
		mark(tr, r, "bench.setup", 0, time.Duration(r.Now()), setup)
		m.win.begin()
		tput = sampleThroughput(db.Clock(), spec.TputWindow, answered, &stop)
		ready.Set()
	})
	for c := 0; measure && c < spec.Clients; c++ {
		c := c
		db.Run(fmt.Sprintf("bench.client.%d", c), func(r *kvaccel.Runner) {
			ready.WaitFor(r, 365*24*time.Hour)
			sl.Client(r, db.Clock(), srv, c)
			if remaining.Add(-1) != 0 {
				return
			}
			// Last client out: every reply is in, so the window ends here.
			m.win.end()
			stop.Store(true)
			windowEnd, wallEnd = r.Now(), time.Now()
			mark(tr, r, "bench.measure", m.win.snapA.At, m.win.virtual(), m.win.hostB.wall.Sub(m.win.hostA.wall))
			note("%s: draining", spec.Name)
			srv.Shutdown(r)
			db.Close()
		})
	}
	db.Wait()
	if !measure {
		return setup.Seconds(), nil, nil
	}
	m.drainVS = db.Now().Sub(windowEnd).Seconds()
	m.drainS = time.Since(wallEnd).Seconds()
	mark(tr, wr, "bench.drain", windowEnd, db.Now().Sub(windowEnd), time.Since(wallEnd))

	ls := sl.Rec.Snapshot()
	m.tput = *tput
	m.ops = ls.OK + ls.NotFound
	m.userBytes = m.win.snapB.LSM.UserBytes - m.win.snapA.LSM.UserBytes
	m.attempted = ls.Sent + ls.ConnFailed
	m.failed = ls.Errs + ls.Retry + ls.Dropped + ls.ConnFailed
	serveMetrics(res.PerLayer, ls)
	// Client latency lives in the load recorder's log-bucket histogram:
	// the mean is exact, the percentiles interpolate within a bucket.
	m.lat = latSummary{
		mean: usec(ls.Latency.Mean()), p50: usec(ls.Latency.P50()),
		p99: usec(ls.Latency.P99()), p999: usec(ls.Latency.P999()),
		n: int(ls.Latency.Count()),
	}

	if ls.Sent != ls.Answered()+ls.Dropped {
		res.problem("conservation: sent %d != answered %d + dropped %d", ls.Sent, ls.Answered(), ls.Dropped)
	}
	if ls.Errs != 0 {
		res.problem("%d requests answered with an error status", ls.Errs)
	}
	if cov := ls.PhaseCoverage(); cov < 0.95 {
		res.problem("server.phase_coverage %.3f < 0.95", cov)
	}
	return setup.Seconds(), m, nil
}
