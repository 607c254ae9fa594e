// Package kvaccel is the public API of the KVACCEL reproduction: a
// write-accelerated LSM key-value store that bypasses write stalls with
// host-SSD collaboration (Kim et al., IPDPS 2025).
//
// A kvaccel.DB bundles a complete simulated machine — virtual-time
// kernel, host CPU pool, dual-interface SSD (NAND array + FTL + PCIe
// link + in-device Dev-LSM), block-interface file system, and the
// Main-LSM engine — behind a RocksDB-like interface. All I/O and compute
// spend *virtual* time: a 600-second experiment completes in real
// seconds, deterministically enough to reproduce the paper's figures.
//
// Quick start:
//
//	db := kvaccel.Open(kvaccel.DefaultOptions())
//	db.Run("main", func(r *kvaccel.Runner) {
//		_ = db.Put(r, []byte("k"), []byte("v"))
//		v, ok, _ := db.Get(r, []byte("k"))
//		fmt.Println(ok, string(v))
//	})
//	db.Wait()  // start virtual time and join the simulation
//	db.Close() // optional once Wait has returned
//
// Every operation takes a *Runner: the handle of a simulated thread.
// Create additional concurrent actors (writers, readers, monitors) with
// db.Run; they interleave in virtual time exactly as OS threads would.
// Virtual time starts at Wait: the goroutine that opened the DB counts as
// a simulated thread until then, so every thread it starts with Run
// starts at time zero, however long it takes between calls.
package kvaccel

import (
	"kvaccel/internal/core"
	"kvaccel/internal/lsm"
	"kvaccel/internal/nvme"
	"kvaccel/internal/ssd"
	"kvaccel/internal/vclock"
)

// Runner is the handle of one simulated thread; every DB operation is
// performed on behalf of a Runner.
type Runner = vclock.Runner

// RollbackScheme selects when buffered writes drain back to the
// Main-LSM.
type RollbackScheme = core.RollbackScheme

// Rollback scheme aliases (§V-E "Rollback Scheduling").
const (
	// RollbackDisabled defers draining to explicit Rollback calls.
	RollbackDisabled = core.RollbackDisabled
	// RollbackLazy drains only when the engine is quiet (best for
	// write-heavy workloads).
	RollbackLazy = core.RollbackLazy
	// RollbackEager drains as soon as no stall is present (best for
	// mixed read/write workloads).
	RollbackEager = core.RollbackEager
)

// Options configures a DB.
type Options struct {
	// Scale divides device bandwidth and engine buffer sizes and
	// multiplies per-op CPU costs; 1 models the paper's Cosmos+ board,
	// 10 (the default from DefaultOptions) runs 10x-compressed
	// experiments. Values below 1 are clamped to 1 (full-fidelity), not
	// rewritten to the default: a caller who set Scale explicitly asked
	// for the least-compressed run, never a silently slower one.
	Scale int
	// CompactionThreads is the Main-LSM background compaction
	// parallelism.
	CompactionThreads int
	// Rollback selects the drain scheduling scheme.
	Rollback RollbackScheme
	// EnableRedirection turns the write accelerator on (true is
	// KVACCEL; false degrades to plain RocksDB-like behaviour — the
	// ablation baseline). With it on, a write the Main-LSM would park in
	// a hard stall fails over to the Dev-LSM immediately instead.
	EnableRedirection bool
	// ValueThreshold enables WiscKey-style value separation in the
	// Main-LSM: Put values at least this many bytes long live in an
	// append-only value log and the LSM carries a 13-byte pointer, so
	// flushes and compactions move pointers, not payloads. 0 (the
	// default) disables separation.
	ValueThreshold int
	// DevReadCacheBytes enables a controller-DRAM read cache in front of
	// Dev-LSM NAND reads — the extension the paper names as the fix for
	// its Table V range-query deficit. 0 (default) reproduces the paper.
	DevReadCacheBytes int64
	// FrontCacheBytes enables a HotRing-style hot-key front cache in the
	// controller's read path: skewed point reads are answered from host
	// DRAM before either LSM is consulted. 0 (default) reproduces the
	// paper. Sharded DBs split the budget evenly across shards.
	FrontCacheBytes int64
}

// DefaultOptions mirrors the paper's setup at scale 10.
func DefaultOptions() Options {
	return Options{
		Scale:             10,
		CompactionThreads: 1,
		Rollback:          RollbackLazy,
		EnableRedirection: true,
	}
}

// DB is a KVACCEL database plus the simulated machine it runs on: the
// one-shard case of ShardedDB.
type DB struct {
	s  *ShardedDB
	kv *core.DB // the one shard
}

// Open builds the full stack and starts its background runners.
func Open(opt Options) *DB {
	s := OpenSharded(ShardedOptions{Options: opt, Shards: 1})
	return &DB{s: s, kv: s.shards[0]}
}

// Run starts fn as a simulated thread named name: from another simulated
// thread, or from the goroutine that opened the DB before it calls Wait.
// Every thread started before Wait starts at time zero.
func (db *DB) Run(name string, fn func(r *Runner)) { db.s.Run(name, fn) }

// Wait starts virtual time and blocks the calling OS goroutine until every
// simulated thread has exited (call Close first, from inside the
// simulation or from this goroutine, or make sure all runners return).
func (db *DB) Wait() { db.s.Wait() }

// Close stops background runners; in-flight work completes first. Called
// from a simulated thread, or from the opening goroutine before Wait, it
// lets Wait return once the last thread has.
func (db *DB) Close() { db.s.Close() }

// Put stores a key-value pair, transparently redirecting through the
// SSD's KV interface during Main-LSM write stalls.
func (db *DB) Put(r *Runner, key, value []byte) error { return db.kv.Put(r, key, value) }

// Delete removes a key.
func (db *DB) Delete(r *Runner, key []byte) error { return db.kv.Delete(r, key) }

// Get returns the newest value for key; ok is false if absent.
// The value is read-only and may alias engine memory. Copy it to modify
// it, or to keep it past its use, since it pins the buffer it points into.
func (db *DB) Get(r *Runner, key []byte) (value []byte, ok bool, err error) {
	return db.kv.Get(r, key)
}

// Iterator is the dual-LSM range cursor.
type Iterator = core.Iterator

// Batch stages writes that commit atomically (one WAL record on the
// normal path, one compound KV command on the stall path).
type Batch = lsm.Batch

// WriteBatch commits a batch atomically through the controller.
func (db *DB) WriteBatch(r *Runner, b *Batch) error { return db.kv.WriteBatch(r, b) }

// NewIterator opens a merged range cursor over both LSMs.
func (db *DB) NewIterator(r *Runner) *Iterator { return db.kv.NewIterator(r) }

// Flush forces the Main-LSM memtable to disk. A nil return is a
// durability barrier for every previously acknowledged write.
func (db *DB) Flush(r *Runner) error { return db.kv.Flush(r) }

// Rollback drains the Dev-LSM into the Main-LSM immediately (§V-E).
func (db *DB) Rollback(r *Runner) error { return db.kv.RollbackNow(r) }

// SimulateCrash drops the volatile metadata table (§VI-D).
func (db *DB) SimulateCrash() { db.kv.SimulateCrash() }

// Recover restores a consistent single-database view after a crash.
func (db *DB) Recover(r *Runner) error { return db.kv.Recover(r) }

// Stats aggregates the interesting counters across layers.
type Stats struct {
	KVAccel core.Stats
	Main    lsm.Stats
}

// Stats returns a snapshot of the system's counters.
func (db *DB) Stats() Stats { return shardStats(db.kv) }

func shardStats(kv *core.DB) Stats {
	return Stats{KVAccel: kv.Stats(), Main: kv.Main().Stats()}
}

// QueueStats snapshots every NVMe queue pair on the device: submission
// counts, occupancy, and submit-to-completion latency histograms.
func (db *DB) QueueStats() []nvme.QueueStats { return db.s.QueueStats() }

// Now returns the current virtual time.
func (db *DB) Now() vclock.Time { return db.s.Now() }

// Internals exposes the assembled components for advanced use
// (experiments, monitoring, ablations).
func (db *DB) Internals() (*core.DB, *ssd.Device) { return db.kv, db.s.Device() }
