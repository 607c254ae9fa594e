package harness

import (
	"bytes"
	"fmt"
	"time"

	"kvaccel"
	"kvaccel/internal/core"
	"kvaccel/internal/nvme"
	"kvaccel/internal/server"
	"kvaccel/internal/vclock"
	"kvaccel/internal/workload"
)

// ServeParams configures one serving-tier benchmark run: KVACCEL shards
// behind one kvaccel.DB, a server in front of it, and a fleet of RPC
// clients.
type ServeParams struct {
	// Scale is the time-compression factor (see Params.Scale).
	Scale int
	// Shards is the engine shard count.
	Shards int
	// Preload loads this many sequential keys through the engine before
	// any client connects, so reads have something to hit.
	Preload int

	// Server is the serving-tier configuration (batching, admission).
	Server server.Config

	// Load is the client-side configuration (clients, mix, loop mode).
	Load workload.ServeConfig
}

// DefaultServeParams is the batched 1024-client closed-loop YCSB-A setup
// on four shards at scale 1.
func DefaultServeParams() ServeParams {
	return ServeParams{
		Scale:   1,
		Shards:  4,
		Preload: 20_000,
		Server:  server.DefaultConfig(),
		Load:    workload.DefaultServeConfig(),
	}
}

// serveSpec is the engine a serving run puts behind the server.
var serveSpec = EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackLazy}

// ServeResult carries everything one serving run produced.
type ServeResult struct {
	// Load is the client-observed accounting (latency, goodput, sheds).
	Load workload.ServeStats
	// Server is the serving tier's own counters.
	Server server.Stats
	// Engine is the engine-side view (stalls, redirects, flushes).
	Engine kvaccel.Stats
	// Queues snapshots the shared device's NVMe queue pairs.
	Queues []nvme.QueueStats
	// Elapsed is the longest client's measured window (virtual).
	Elapsed time.Duration
	// Clients is the number of clients that ran.
	Clients int
	// Kernel is the run clock's event counts, preload and drain included.
	Kernel vclock.Stats
	// AckedChecked is how many OK-acked PUTs (a sample the load generator
	// keeps) were read back from the engine after the last client
	// finished; AckedLost is how many of them were missing or held another
	// value. An acked write is there to be read: AckedLost must be 0.
	AckedChecked, AckedLost int
}

// open renders the serving machine through the one path every run takes.
func (p ServeParams) open() *rig { return Params{Scale: p.Scale}.open(serveSpec, p.Shards) }

// Goodput is engine-answered ops per virtual second.
func (res *ServeResult) Goodput() float64 { return res.Load.Goodput(res.Elapsed) }

// RunServe executes the serving benchmark: open the engine the way every
// run does, start the server, preload, unleash the clients, and tear
// everything down in dependency order once the last client finishes.
func (p ServeParams) RunServe() *ServeResult {
	db := p.open().db
	srv := server.New(db, p.Server)
	load := workload.NewServeLoad(p.Load, p.Preload)
	cfg := load.Config()

	var (
		remaining = cfg.Clients
		elapsed   time.Duration
		checked   int
		lost      int
	)
	// Clients hold here until the preload is on disk; the event keeps
	// them parked without consuming virtual time.
	ready := vclock.NewEvent("serve.preload-done")

	db.Run("serve.preload", func(r *kvaccel.Runner) {
		eng := workload.KVAccelEngine{DB: db}
		wcfg := workload.Config{ValueSize: cfg.ValueSize}
		workload.FillSequential(r, eng, wcfg, p.Preload)
		ready.Set()
	})

	for c := 0; c < cfg.Clients; c++ {
		c := c
		db.Run(fmt.Sprintf("serve.client.%d", c), func(r *kvaccel.Runner) {
			ready.WaitFor(r, 365*24*time.Hour)
			start := r.Now()
			load.Client(r, db.Clock(), srv, c)
			d := r.Now().Sub(start)
			if d > elapsed {
				elapsed = d
			}
			if remaining--; remaining == 0 {
				// Every reply is in. What was acked must be there.
				for _, n := range load.Rec.Snapshot().AckedPuts {
					v, ok, err := db.Get(r, workload.Key(n))
					checked++
					if err != nil || !ok || !bytes.Equal(v, workload.MakeValue(n, cfg.ValueSize)) {
						lost++
					}
				}
				// Last client out shuts the tier down: connections have
				// all closed, so Shutdown returns once in-flight replies
				// drain, and only then does the engine close.
				srv.Shutdown(r)
				db.Close()
			}
		})
	}
	db.Wait()

	res := &ServeResult{
		Load:    load.Rec.Snapshot(),
		Server:  srv.Stats(),
		Engine:  db.Stats(),
		Queues:  db.QueueStats(),
		Elapsed: elapsed,
		Clients: cfg.Clients,
		Kernel:  db.Clock().Stats(),

		AckedChecked: checked,
		AckedLost:    lost,
	}
	if res.Elapsed <= 0 {
		res.Elapsed = cfg.Duration
	}
	return res
}
