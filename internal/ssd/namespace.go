package ssd

import (
	"bytes"

	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// KVNamespace is a tenant-isolated view of the KV interface (§V-D
// "Multi-Tenancy and Multi-Device Support"): keys are transparently
// prefixed with the namespace id, so tenants cannot observe each other's
// pairs. Pair a KVNamespace with a BlockNamespace of the same tenant to
// give each tenant both interfaces, as the paper describes.
//
// KVReset is deliberately absent here: the reset command wipes the whole
// KV region and is a device-wide administrative operation.
type KVNamespace struct {
	kv     *KVRegion
	prefix []byte
}

// KVNamespace returns the tenant view for id over the full KV region.
func (d *Device) KVNamespace(id uint16) *KVNamespace {
	return &KVNamespace{kv: d.full, prefix: []byte{byte(id >> 8), byte(id)}}
}

func (ns *KVNamespace) wrap(key []byte) []byte {
	out := make([]byte, 0, len(ns.prefix)+len(key))
	out = append(out, ns.prefix...)
	return append(out, key...)
}

// Put stores a pair under this namespace.
func (ns *KVNamespace) Put(r *vclock.Runner, kind memtable.Kind, key, value []byte) error {
	return ns.kv.KVPut(r, kind, ns.wrap(key), value)
}

// Get reads a pair from this namespace.
func (ns *KVNamespace) Get(r *vclock.Runner, key []byte) (value []byte, kind memtable.Kind, found bool, err error) {
	return ns.kv.KVGet(r, ns.wrap(key))
}

// BulkScan streams this namespace's pairs (keys unprefixed) in order.
func (ns *KVNamespace) BulkScan(r *vclock.Runner, emit func(entries []memtable.Entry)) error {
	return ns.kv.KVBulkScan(r, func(entries []memtable.Entry) {
		var mine []memtable.Entry
		for _, e := range entries {
			if bytes.HasPrefix(e.Key, ns.prefix) {
				e.Key = e.Key[len(ns.prefix):]
				mine = append(mine, e)
			}
		}
		if len(mine) > 0 {
			emit(mine)
		}
	})
}

// NewIterator opens a cursor scoped to this namespace.
func (ns *KVNamespace) NewIterator(r *vclock.Runner) *KVNamespaceIterator {
	return &KVNamespaceIterator{ns: ns, it: ns.kv.newKVIterator(r)}
}

// KVNamespaceIterator filters the device iterator to one tenant.
type KVNamespaceIterator struct {
	ns *KVNamespace
	it *KVIterator
}

// Seek positions at the first tenant key >= key.
func (it *KVNamespaceIterator) Seek(key []byte) {
	it.it.Seek(it.ns.wrap(key))
}

// SeekToFirst positions at the tenant's smallest key.
func (it *KVNamespaceIterator) SeekToFirst() {
	it.it.Seek(it.ns.prefix)
}

// Next advances within the tenant.
func (it *KVNamespaceIterator) Next() { it.it.Next() }

// Valid reports whether the cursor is on one of this tenant's entries.
func (it *KVNamespaceIterator) Valid() bool {
	return it.it.Valid() && bytes.HasPrefix(it.it.Entry().Key, it.ns.prefix)
}

// Entry returns the current record with the namespace prefix stripped.
func (it *KVNamespaceIterator) Entry() memtable.Entry {
	e := it.it.Entry()
	e.Key = e.Key[len(it.ns.prefix):]
	return e
}
