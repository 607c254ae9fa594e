package workload

import (
	"kvaccel"
	"kvaccel/internal/lsm"
	"kvaccel/internal/vclock"
)

// LSMEngine adapts lsm.DB (the RocksDB and ADOC baselines) to Engine.
type LSMEngine struct{ DB *lsm.DB }

// Put forwards to the Main-LSM.
func (e LSMEngine) Put(r *vclock.Runner, key, value []byte) error { return e.DB.Put(r, key, value) }

// Delete forwards to the Main-LSM.
func (e LSMEngine) Delete(r *vclock.Runner, key []byte) error { return e.DB.Delete(r, key) }

// Get forwards to the Main-LSM.
func (e LSMEngine) Get(r *vclock.Runner, key []byte) ([]byte, bool, error) {
	return e.DB.Get(r, key)
}

// NewIterator opens a Main-LSM range cursor.
func (e LSMEngine) NewIterator(r *vclock.Runner) Iterator { return e.DB.NewIterator(r) }

// Flush drains the memtable.
func (e LSMEngine) Flush(r *vclock.Runner) { e.DB.Flush(r) }

// KVAccelEngine adapts kvaccel.DB — one KVACCEL shard or several behind
// the hash router — to Engine.
type KVAccelEngine struct{ DB *kvaccel.DB }

// ShardedEngine is KVAccelEngine; the bench module still names it.
type ShardedEngine = KVAccelEngine

// Put routes to the owning shard's controller.
func (e KVAccelEngine) Put(r *vclock.Runner, key, value []byte) error {
	return e.DB.Put(r, key, value)
}

// Delete routes a tombstone to the owning shard.
func (e KVAccelEngine) Delete(r *vclock.Runner, key []byte) error { return e.DB.Delete(r, key) }

// Get routes to the owning shard's metadata-directed read path.
func (e KVAccelEngine) Get(r *vclock.Runner, key []byte) ([]byte, bool, error) {
	return e.DB.Get(r, key)
}

// NewIterator opens the merged dual-LSM cursor.
func (e KVAccelEngine) NewIterator(r *vclock.Runner) Iterator { return e.DB.NewIterator(r) }

// Flush drains every shard's Main-LSM memtable.
func (e KVAccelEngine) Flush(r *vclock.Runner) { e.DB.Flush(r) }
