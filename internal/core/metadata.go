package core

import (
	"hash/maphash"
	"sync"
	"unsafe"
)

// MetadataManager is the in-memory hash table that tracks which keys'
// newest version lives in the Dev-LSM (§V-C). It answers the membership
// test on every read and write; Table VI reports its insert/check/delete
// costs at a fraction of a microsecond, which the lock-striped design
// preserves under concurrency. Each core.DB owns one manager, so the
// sharded front-end runs N independent tables — one per write domain —
// with no cross-shard synchronization on the hot path.
//
// The table lives in volatile host memory: on a crash it is lost, and
// recovery rebuilds the database state by rolling back every key-value
// pair in the KV interface (§VI-D).
//
// Keys are copied, because callers reuse their key buffers, into a
// per-shard append-only arena of metaArenaChunk-byte chunks, and the map
// holds string views of the copies. Removing a key does not free its
// bytes: a shard retains at most the bytes of every key inserted since
// its map was last empty, plus one partly used chunk. A rollback removes
// every key it merged, so between rollbacks that is bounded by the keys
// the Dev-LSM buffers; a shard whose map empties, and every shard on
// Clear, drops its arena.
type MetadataManager struct {
	seed   maphash.Seed
	shards []metaShard
}

// metaArenaChunk is the size of one arena allocation: a 16-byte key costs
// 1/1024 of an allocation, a fraction of what the map's own growth costs
// per insert. A key longer than a quarter chunk gets an allocation of its
// own.
const metaArenaChunk = 16 << 10

type metaShard struct {
	mu    sync.RWMutex
	keys  map[string]struct{}
	arena []byte // the chunk new keys are copied into; never written behind len
}

// NewMetadataManager returns a manager with the given shard count
// (rounded up to at least 1).
func NewMetadataManager(shards int) *MetadataManager {
	if shards < 1 {
		shards = 1
	}
	m := &MetadataManager{seed: maphash.MakeSeed(), shards: make([]metaShard, shards)}
	for i := range m.shards {
		m.shards[i].keys = make(map[string]struct{})
	}
	return m
}

func (m *MetadataManager) shard(key []byte) *metaShard {
	h := maphash.Bytes(m.seed, key)
	return &m.shards[h%uint64(len(m.shards))]
}

// copyKey returns a string holding a copy of key that nothing writes
// again. Called with s.mu held.
func (s *metaShard) copyKey(key []byte) string {
	if len(key) == 0 {
		return ""
	}
	var dst []byte
	if len(key) > metaArenaChunk/4 {
		dst = make([]byte, len(key))
	} else {
		if cap(s.arena)-len(s.arena) < len(key) {
			s.arena = make([]byte, 0, metaArenaChunk)
		}
		n := len(s.arena)
		s.arena = s.arena[:n+len(key)]
		dst = s.arena[n:]
	}
	copy(dst, key)
	return unsafe.String(unsafe.SliceData(dst), len(dst))
}

// Insert records that key's newest version is in the Dev-LSM. A key
// already present costs a lookup and no allocation.
func (m *MetadataManager) Insert(key []byte) {
	s := m.shard(key)
	s.mu.Lock()
	if _, ok := s.keys[string(key)]; !ok {
		s.keys[s.copyKey(key)] = struct{}{}
	}
	s.mu.Unlock()
}

// Contains reports whether key's newest version is in the Dev-LSM.
func (m *MetadataManager) Contains(key []byte) bool {
	s := m.shard(key)
	s.mu.RLock()
	_, ok := s.keys[string(key)]
	s.mu.RUnlock()
	return ok
}

// Remove clears key's Dev-LSM record (its newest version is now in the
// Main-LSM) and reports whether it was present.
func (m *MetadataManager) Remove(key []byte) bool {
	s := m.shard(key)
	s.mu.Lock()
	_, ok := s.keys[string(key)]
	if ok {
		delete(s.keys, string(key))
		if len(s.keys) == 0 {
			s.arena = nil // no view of it is left; its chunks become garbage
		}
	}
	s.mu.Unlock()
	return ok
}

// Count returns the number of tracked keys.
func (m *MetadataManager) Count() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.keys)
		s.mu.RUnlock()
	}
	return n
}

// Clear drops every record — the simulated crash of §VI-D.
func (m *MetadataManager) Clear() {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		s.keys = make(map[string]struct{})
		s.arena = nil
		s.mu.Unlock()
	}
}
