package kvaccel

import (
	"kvaccel/internal/core"
	"kvaccel/internal/iterkit"
	"kvaccel/internal/lsm"
	"kvaccel/internal/machine"
	"kvaccel/internal/memtable"
	"kvaccel/internal/nvme"
	"kvaccel/internal/ssd"
	"kvaccel/internal/vclock"
)

// ShardedOptions configures a ShardedDB. The embedded Options apply to
// every shard; buffer budgets (memtable, levels, block cache, device
// DRAM) are divided by Shards so the sharded store spends the same total
// memory as an unsharded one. Options.Scale follows the same clamping
// rule as Open: values below 1 clamp to 1.
type ShardedOptions struct {
	Options
	// Shards is the number of independent write domains (clamped to at
	// least 1). Each shard owns a Main-LSM over its own slice of the
	// block region, a Dev-LSM over its own slice of the KV region, and
	// its own detector, metadata manager, and rollback scheduler.
	Shards int
}

// DefaultShardedOptions mirrors DefaultOptions with four shards.
func DefaultShardedOptions() ShardedOptions {
	return ShardedOptions{Options: DefaultOptions(), Shards: 4}
}

// ShardedDB is a hash-partitioned front-end over N independent KVACCEL
// shards that share one simulated machine: one virtual clock, one host
// CPU pool, and one dual-interface SSD (NAND array, FTL, PCIe link).
// Keys route to shards by hash, so writers on different shards never
// contend on a memtable, WAL, or metadata table — only on the shared
// hardware, which is the contention the paper models.
//
// Cross-shard semantics: Put/Delete/Get are exactly as strong as on DB.
// WriteBatch is atomic per shard but not across shards (each shard
// commits its sub-batch independently). NewIterator returns a merged
// cursor that is a point-in-time view per shard, not a global snapshot.
type ShardedDB struct {
	m      *machine.Machine
	shards []*core.DB
}

// OpenSharded builds one simulated machine and N KVACCEL shards on it.
func OpenSharded(opt ShardedOptions) *ShardedDB {
	cfg := machine.DeviceConfig(opt.Scale)
	if opt.KVRegionBytes > 0 {
		cfg.KVRegionBytes = opt.KVRegionBytes
	}
	cfg.DevLSM.ReadCacheBytes = opt.DevReadCacheBytes
	if opt.QueueDepth > 0 {
		cfg.NVMe.QueueDepth = opt.QueueDepth
	}
	if opt.IOQueues > 0 {
		cfg.IOQueues = opt.IOQueues
	}
	cfg.Faults = opt.Faults
	m := machine.New(cfg, opt.HostCores, opt.Shards)

	lopt := machine.LSMOptions(opt.Scale)
	lopt.CompactionThreads = opt.CompactionThreads
	lopt.ValueThreshold = opt.ValueThreshold
	if opt.VLogGCDiscardRatio > 0 {
		lopt.VLogGCDiscardRatio = opt.VLogGCDiscardRatio
	}
	lopt.EnableCompactionOffload = opt.OffloadCompaction
	copt := core.DefaultOptions()
	copt.Rollback = opt.Rollback
	if opt.DetectorPeriod > 0 {
		copt.DetectorPeriod = opt.DetectorPeriod
	}
	copt.StallFailover = opt.EnableRedirection
	copt.FrontCacheBytes = opt.FrontCacheBytes
	copt.FrontCacheNegative = opt.FrontCacheNegative
	copt.FrontCacheDoorkeeper = opt.FrontCacheDoorkeeper
	shards, _ := m.OpenKVAccel(lopt, copt)
	return NewShardedDB(m, shards)
}

// NewShardedDB fronts KVACCEL shards already opened on m (by
// machine.OpenKVAccel) with the hash router: OpenSharded's second half,
// for the harness, which assembles m itself to hand the machine a tracer
// and a fault plan.
func NewShardedDB(m *machine.Machine, shards []*core.DB) *ShardedDB {
	return &ShardedDB{m: m, shards: shards}
}

// FNV-1a: deterministic across process restarts, so a reopened sharded
// store routes every key back to the shard that holds it.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func shardIndex(key []byte, n int) int {
	h := fnvOffset64
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return int(h % uint64(n))
}

// shard returns the core.DB owning key.
func (db *ShardedDB) shard(key []byte) *core.DB {
	return db.shards[shardIndex(key, len(db.shards))]
}

// ShardIndex returns the index of the shard that owns key — the routing
// hook serving tiers use to group requests by shard before committing
// them as per-shard batches.
func (db *ShardedDB) ShardIndex(key []byte) int {
	return shardIndex(key, len(db.shards))
}

// Run starts fn as a simulated thread named name: from another simulated
// thread, or from the goroutine that opened the store before it calls
// Wait. Virtual time starts at Wait, so every thread Run starts before
// then starts at time zero, however long the caller takes between calls.
func (db *ShardedDB) Run(name string, fn func(r *Runner)) { db.m.Clk.Go(name, fn) }

// Wait starts virtual time and blocks until every simulated thread has
// exited.
func (db *ShardedDB) Wait() { db.m.Clk.Wait() }

// Now returns the current virtual time.
func (db *ShardedDB) Now() vclock.Time { return db.m.Clk.Now() }

// Clock exposes the shared virtual clock (companion runners, samplers).
func (db *ShardedDB) Clock() *vclock.Clock { return db.m.Clk }

// Close shuts every shard down; in-flight work completes first. Called
// from a simulated thread, or from the opening goroutine before Wait, it
// lets Wait return once the last thread has.
func (db *ShardedDB) Close() {
	for _, s := range db.shards {
		s.Close()
	}
}

// Put stores a key-value pair on the owning shard.
func (db *ShardedDB) Put(r *Runner, key, value []byte) error {
	return db.shard(key).Put(r, key, value)
}

// Delete removes a key on the owning shard.
func (db *ShardedDB) Delete(r *Runner, key []byte) error {
	return db.shard(key).Delete(r, key)
}

// Get returns the newest value for key from the owning shard.
// The value is read-only and may alias engine memory. Copy it to modify
// it, or to keep it past its use, since it pins the buffer it points into.
func (db *ShardedDB) Get(r *Runner, key []byte) (value []byte, ok bool, err error) {
	return db.shard(key).Get(r, key)
}

// WriteBatch splits b by owning shard and commits each sub-batch
// atomically on its shard. Atomicity is per shard: a reader may observe
// one shard's portion before another's commits.
func (db *ShardedDB) WriteBatch(r *Runner, b *Batch) error {
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

// MergedIterator is the cross-shard range cursor: the k-way user-key
// merge of every shard's dual-LSM iterator.
type MergedIterator = iterkit.MergedCursor

// NewIterator opens a dual-LSM cursor on every shard and merges them in
// user-key order. Hash routing makes shard key sets disjoint, so the
// merge never sees duplicate keys.
func (db *ShardedDB) NewIterator(r *Runner) *MergedIterator {
	children := make([]iterkit.Cursor, len(db.shards))
	for i, s := range db.shards {
		children[i] = s.NewIterator(r)
	}
	return iterkit.NewMergedCursor(children)
}

// Flush forces every shard's Main-LSM memtable to disk, returning the
// first shard's background error, if any.
func (db *ShardedDB) Flush(r *Runner) error {
	var first error
	for _, s := range db.shards {
		if err := s.Flush(r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Rollback drains every shard's Dev-LSM into its Main-LSM immediately.
func (db *ShardedDB) Rollback(r *Runner) error {
	var first error
	for _, s := range db.shards {
		if err := s.RollbackNow(r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SimulateCrash drops every shard's volatile metadata table.
func (db *ShardedDB) SimulateCrash() {
	for _, s := range db.shards {
		s.SimulateCrash()
	}
}

// Recover restores a consistent view on every shard after a crash.
func (db *ShardedDB) Recover(r *Runner) error {
	var first error
	for _, s := range db.shards {
		if err := s.Recover(r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NumShards returns the shard count.
func (db *ShardedDB) NumShards() int { return len(db.shards) }

// Shard exposes shard i's core.DB for monitoring and experiments.
func (db *ShardedDB) Shard(i int) *core.DB { return db.shards[i] }

// Device exposes the shared dual-interface SSD.
func (db *ShardedDB) Device() *ssd.Device { return db.m.Dev }

// QueueStats snapshots every NVMe queue pair on the shared device —
// each shard's block queue(s) and KV-region queue appear as separate
// entries.
func (db *ShardedDB) QueueStats() []nvme.QueueStats { return db.m.Dev.QueueStats() }

// ShardedStats is the system-wide view plus the per-shard breakdown.
// The embedded Stats has the same shape DB.Stats returns, with every
// counter summed across shards.
type ShardedStats struct {
	Stats
	// PerShard holds each shard's own counters, indexed by shard.
	PerShard []Stats
}

// Stats aggregates every shard's counters into one Stats plus the
// per-shard breakdown.
func (db *ShardedDB) Stats() ShardedStats {
	out := ShardedStats{PerShard: make([]Stats, len(db.shards))}
	for i, s := range db.shards {
		st := shardStats(s)
		out.PerShard[i] = st
		out.Stats.KVAccel = out.Stats.KVAccel.Add(st.KVAccel)
		out.Stats.Main = out.Stats.Main.Add(st.Main)
	}
	return out
}
