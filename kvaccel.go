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
//
// Options.Shards splits the store into hash-partitioned write domains on
// the one machine (§V-D): each shard is a whole KVACCEL — Main-LSM,
// Dev-LSM slice, detector, metadata manager and rollback scheduler. The
// default, one shard, is the paper's system.
package kvaccel

import (
	"kvaccel/internal/core"
	"kvaccel/internal/encoding"
	"kvaccel/internal/iterkit"
	"kvaccel/internal/lsm"
	"kvaccel/internal/machine"
	"kvaccel/internal/memtable"
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

// Options configures a DB. Buffer budgets (memtable, levels, block cache,
// device DRAM, front cache) are the whole machine's and are divided among
// the shards, so a sharded store spends the memory of an unsharded one.
type Options struct {
	// Scale divides device bandwidth and engine buffer sizes and
	// multiplies per-op CPU costs; 1 models the paper's Cosmos+ board,
	// 10 (the default from DefaultOptions) runs 10x-compressed
	// experiments. Values below 1 are clamped to 1 (full-fidelity), not
	// rewritten to the default: a caller who set Scale explicitly asked
	// for the least-compressed run, never a silently slower one.
	Scale int
	// Shards is the number of independent write domains (default 1;
	// values below 1 clamp to 1). Each shard owns a Main-LSM over its own
	// slice of the block region, a Dev-LSM over its own slice of the KV
	// region, and its own detector, metadata manager, and rollback
	// scheduler.
	Shards int
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
	// paper.
	FrontCacheBytes int64
}

// DefaultOptions mirrors the paper's setup at scale 10, on one shard.
func DefaultOptions() Options {
	return Options{
		Scale:             10,
		Shards:            1,
		CompactionThreads: 1,
		Rollback:          RollbackLazy,
		EnableRedirection: true,
	}
}

// DefaultShardedOptions is DefaultOptions with four shards; the bench
// module still calls it.
func DefaultShardedOptions() Options {
	opt := DefaultOptions()
	opt.Shards = 4
	return opt
}

// DB is a KVACCEL database plus the simulated machine it runs on: N
// hash-partitioned KVACCEL shards sharing one virtual clock, one host CPU
// pool, and one dual-interface SSD (NAND array, FTL, PCIe link). Keys
// route to shards by hash, so writers on different shards never contend
// on a memtable, WAL, or metadata table — only on the shared hardware,
// which is the contention the paper models.
//
// Cross-shard semantics: Put/Delete/Get are exactly as strong as on one
// shard. WriteBatch is atomic per shard but not across shards (each shard
// commits its sub-batch independently). NewIterator returns a merged
// cursor that is a point-in-time view per shard, not a global snapshot.
type DB struct {
	m      *machine.Machine
	shards []*core.DB
}

// Open builds one simulated machine and opt.Shards KVACCEL shards on it,
// and starts their background runners.
func Open(opt Options) *DB {
	cfg := machine.DeviceConfig(opt.Scale)
	cfg.DevLSM.ReadCacheBytes = opt.DevReadCacheBytes
	m := machine.New(cfg, opt.Shards)

	lopt := machine.LSMOptions(opt.Scale)
	lopt.CompactionThreads = opt.CompactionThreads
	lopt.ValueThreshold = opt.ValueThreshold
	copt := core.DefaultOptions()
	copt.Rollback = opt.Rollback
	copt.StallFailover = opt.EnableRedirection
	copt.FrontCacheBytes = opt.FrontCacheBytes
	shards, _ := m.OpenKVAccel(lopt, copt)
	return NewDB(m, shards)
}

// OpenSharded is Open; the bench module still calls it by this name.
func OpenSharded(opt Options) *DB { return Open(opt) }

// NewDB fronts KVACCEL shards already opened on m (by
// machine.OpenKVAccel) with the hash router: Open's second half, for the
// harness, which assembles m itself to hand the machine a tracer and a
// fault plan.
func NewDB(m *machine.Machine, shards []*core.DB) *DB {
	return &DB{m: m, shards: shards}
}

// shardIndex routes key to one of n shards by FNV-1a, which is fixed
// across process restarts, so a reopened sharded store routes every key
// back to the shard that holds it.
func shardIndex(key []byte, n int) int { return int(encoding.FNV1a(key) % uint64(n)) }

// ShardIndex returns the index of the shard that owns key — the routing
// hook serving tiers use to group requests by shard before committing
// them as per-shard batches.
func (db *DB) ShardIndex(key []byte) int {
	if len(db.shards) == 1 {
		return 0
	}
	return shardIndex(key, len(db.shards))
}

// shard returns the core.DB owning key.
func (db *DB) shard(key []byte) *core.DB { return db.shards[db.ShardIndex(key)] }

// Run starts fn as a simulated thread named name: from another simulated
// thread, or from the goroutine that opened the DB before it calls Wait.
// Virtual time starts at Wait, so every thread Run starts before then
// starts at time zero, however long the caller takes between calls.
func (db *DB) Run(name string, fn func(r *Runner)) { db.m.Clk.Go(name, fn) }

// Wait starts virtual time and blocks the calling OS goroutine until every
// simulated thread has exited (call Close first, from inside the
// simulation or from this goroutine, or make sure all runners return).
func (db *DB) Wait() { db.m.Clk.Wait() }

// Now returns the current virtual time.
func (db *DB) Now() vclock.Time { return db.m.Clk.Now() }

// Clock exposes the shared virtual clock (companion runners, samplers).
func (db *DB) Clock() *vclock.Clock { return db.m.Clk }

// Close shuts every shard down; in-flight work completes first. Called
// from a simulated thread, or from the opening goroutine before Wait, it
// lets Wait return once the last thread has.
func (db *DB) Close() {
	for _, s := range db.shards {
		s.Close()
	}
}

// Put stores a key-value pair on the owning shard, transparently
// redirecting through the SSD's KV interface during Main-LSM write
// stalls.
func (db *DB) Put(r *Runner, key, value []byte) error {
	return db.shard(key).Put(r, key, value)
}

// Delete removes a key on the owning shard.
func (db *DB) Delete(r *Runner, key []byte) error {
	return db.shard(key).Delete(r, key)
}

// Get returns the newest value for key from the owning shard; ok is false
// if absent. The value is read-only and may alias engine memory. Copy it
// to modify it, or to keep it past its use, since it pins the buffer it
// points into.
func (db *DB) Get(r *Runner, key []byte) (value []byte, ok bool, err error) {
	return db.shard(key).Get(r, key)
}

// Batch stages writes that commit atomically (one WAL record on the
// normal path, one compound KV command on the stall path).
type Batch = lsm.Batch

// WriteBatch splits b by owning shard and commits each sub-batch
// atomically on its shard. Atomicity is per shard: a reader may observe
// one shard's portion before another's commits.
func (db *DB) WriteBatch(r *Runner, b *Batch) error {
	if len(db.shards) == 1 {
		return db.shards[0].WriteBatch(r, b)
	}
	sub := make([]*lsm.Batch, len(db.shards))
	b.Ops(func(kind memtable.Kind, key, value []byte) {
		i := shardIndex(key, len(db.shards))
		if sub[i] == nil {
			sub[i] = &lsm.Batch{}
		}
		if kind == memtable.KindDelete {
			sub[i].Delete(key)
		} else {
			sub[i].Put(key, value)
		}
	})
	for i, sb := range sub {
		if sb == nil {
			continue
		}
		if err := db.shards[i].WriteBatch(r, sb); err != nil {
			return err
		}
	}
	return nil
}

// Iterator is the range cursor: the user-key merge of every shard's
// dual-LSM iterator.
type Iterator = iterkit.MergedCursor

// NewIterator opens a dual-LSM cursor on every shard and merges them in
// user-key order. Hash routing makes shard key sets disjoint, so the
// merge never sees duplicate keys.
func (db *DB) NewIterator(r *Runner) *Iterator {
	children := make([]iterkit.Cursor, len(db.shards))
	for i, s := range db.shards {
		children[i] = s.NewIterator(r)
	}
	return iterkit.NewMergedCursor(children)
}

// each runs fn on every shard in order and returns the first error.
func (db *DB) each(fn func(s *core.DB) error) error {
	var first error
	for _, s := range db.shards {
		if err := fn(s); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Flush forces every shard's Main-LSM memtable to disk. A nil return is
// a durability barrier for every previously acknowledged write;
// otherwise it is the first shard's background error.
func (db *DB) Flush(r *Runner) error {
	return db.each(func(s *core.DB) error { return s.Flush(r) })
}

// Rollback drains every shard's Dev-LSM into its Main-LSM immediately
// (§V-E).
func (db *DB) Rollback(r *Runner) error {
	return db.each(func(s *core.DB) error { return s.RollbackNow(r) })
}

// SimulateCrash drops every shard's volatile metadata table (§VI-D).
func (db *DB) SimulateCrash() {
	for _, s := range db.shards {
		s.SimulateCrash()
	}
}

// Recover restores a consistent view on every shard after a crash.
func (db *DB) Recover(r *Runner) error {
	return db.each(func(s *core.DB) error { return s.Recover(r) })
}

// NumShards returns the shard count.
func (db *DB) NumShards() int { return len(db.shards) }

// Shard exposes shard i's KVACCEL controller — its detector, Main-LSM
// and counters — for monitoring and experiments.
func (db *DB) Shard(i int) *core.DB { return db.shards[i] }

// Device exposes the shared dual-interface SSD.
func (db *DB) Device() *ssd.Device { return db.m.Dev }

// QueueStats snapshots every NVMe queue pair on the shared device — each
// shard's block queue(s) and KV-region queue appear as separate entries,
// with submission counts, occupancy, and latency histograms.
func (db *DB) QueueStats() []nvme.QueueStats { return db.m.Dev.QueueStats() }

// Stats is the system-wide view: every counter summed across shards,
// plus the per-shard breakdown.
type Stats struct {
	KVAccel core.Stats
	Main    lsm.Stats
	// PerShard holds each shard's own counters, indexed by shard; an
	// entry's own PerShard is nil.
	PerShard []Stats
}

// Stats returns a snapshot of the system's counters.
func (db *DB) Stats() Stats {
	out := Stats{PerShard: make([]Stats, len(db.shards))}
	for i, s := range db.shards {
		st := Stats{KVAccel: s.Stats(), Main: s.Main().Stats()}
		out.PerShard[i] = st
		out.KVAccel = out.KVAccel.Add(st.KVAccel)
		out.Main = out.Main.Add(st.Main)
	}
	return out
}
