package core

import "unsafe"

// MetadataManager is the in-memory hash table that tracks which keys'
// newest version lives in the Dev-LSM (§V-C). It answers the membership
// test on every read and write; Table VI reports its insert/check/delete
// costs at a fraction of a microsecond. Each core.DB owns one manager, so
// the sharded front-end runs N independent tables, one per write domain.
//
// The table lives in volatile host memory: on a crash it is lost, and
// recovery rebuilds the database state by rolling back every key-value
// pair in the KV interface (§VI-D).
//
// Keys are copied, because callers reuse their key buffers, into an
// append-only arena of metaArenaChunk-byte chunks, and the map holds
// string views of the copies. Removing a key does not free its bytes: the
// manager retains at most the bytes of every key inserted since its map
// was last empty, plus one partly used chunk. A rollback removes every key
// it merged, so between rollbacks that is bounded by the keys the Dev-LSM
// buffers; the arena is dropped when the map empties and on Clear.
type MetadataManager struct {
	keys  map[string]struct{}
	arena []byte // the chunk new keys are copied into; never written behind len
}

// metaArenaChunk is the size of one arena allocation: a 16-byte key costs
// 1/1024 of an allocation, a fraction of what the map's own growth costs
// per insert. A key longer than a quarter chunk gets an allocation of its
// own.
const metaArenaChunk = 16 << 10

// NewMetadataManager returns an empty manager.
func NewMetadataManager() *MetadataManager {
	return &MetadataManager{keys: make(map[string]struct{})}
}

// copyKey returns a string holding a copy of key that nothing writes
// again.
func (m *MetadataManager) copyKey(key []byte) string {
	if len(key) == 0 {
		return ""
	}
	var dst []byte
	if len(key) > metaArenaChunk/4 {
		dst = make([]byte, len(key))
	} else {
		if cap(m.arena)-len(m.arena) < len(key) {
			m.arena = make([]byte, 0, metaArenaChunk)
		}
		n := len(m.arena)
		m.arena = m.arena[:n+len(key)]
		dst = m.arena[n:]
	}
	copy(dst, key)
	return unsafe.String(unsafe.SliceData(dst), len(dst))
}

// Insert records that key's newest version is in the Dev-LSM. A key
// already present costs a lookup and no allocation.
func (m *MetadataManager) Insert(key []byte) {
	if _, ok := m.keys[string(key)]; !ok {
		m.keys[m.copyKey(key)] = struct{}{}
	}
}

// Contains reports whether key's newest version is in the Dev-LSM.
func (m *MetadataManager) Contains(key []byte) bool {
	_, ok := m.keys[string(key)]
	return ok
}

// Remove clears key's Dev-LSM record (its newest version is now in the
// Main-LSM) and reports whether it was present.
func (m *MetadataManager) Remove(key []byte) bool {
	_, ok := m.keys[string(key)]
	if ok {
		delete(m.keys, string(key))
		if len(m.keys) == 0 {
			m.arena = nil // no view of it is left; its chunks become garbage
		}
	}
	return ok
}

// Count returns the number of tracked keys.
func (m *MetadataManager) Count() int { return len(m.keys) }

// Clear drops every record — the simulated crash of §VI-D.
func (m *MetadataManager) Clear() {
	m.keys = make(map[string]struct{})
	m.arena = nil
}
