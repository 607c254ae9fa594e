package core

import (
	"kvaccel/internal/iterkit"
	"kvaccel/internal/lsm"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// MainEngine is the narrow contract KVACCEL's software modules require
// of the host-side engine: the write/read/scan surface the Controller
// drives and the drain merges with, and the stall-signal/stats surface
// the Detector polls. *lsm.DB satisfies it; the controller, detector,
// rollback, and metadata layers compile only against this interface, so
// an alternative host engine can be swapped in without touching this
// package.
type MainEngine interface {
	// PutWith, DeleteWith and WriteWith are the Controller's writes;
	// WriteWith commits a batch atomically (one WAL record). With
	// WriteOptions.NoStallWait they return lsm.ErrWouldStall instead of
	// parking in a hard write stall, which is the Controller's cue to
	// fail the write over to the Dev-LSM; zero options block, as the
	// fallback after a refused failover and the drain's merges do.
	PutWith(r *vclock.Runner, wo lsm.WriteOptions, key, value []byte) error
	DeleteWith(r *vclock.Runner, wo lsm.WriteOptions, key []byte) error
	WriteWith(r *vclock.Runner, wo lsm.WriteOptions, b *lsm.Batch) error
	// Get is the normal-path point read, and GetStep the same read as a
	// stepped primitive, for a kernel task.
	Get(r *vclock.Runner, key []byte) (value []byte, ok bool, err error)
	GetStep(r *vclock.Runner, rd *lsm.Read) (done bool)
	// NewIterator opens a range cursor over the engine's contents.
	NewIterator(r *vclock.Runner) *lsm.Iterator
	// Flush forces the active memtable to disk and returns the engine's
	// sticky background error, if any: a nil return is a durability
	// barrier for every prior write. WaitIdle parks until background
	// work drains.
	Flush(r *vclock.Runner) error
	WaitIdle(r *vclock.Runner)
	// Health is the stall signal the Detector samples every period.
	Health() lsm.Health
	// Stats exposes the engine's cumulative counters.
	Stats() lsm.Stats
	// Close stops background work; in-flight operations complete first.
	Close()
}

// KVDevice is the key-value command surface KVACCEL requires of the
// dual-interface SSD: PUT/GET, the compound and bulk-scan
// commands the batch and rollback paths use, reset, iteration, and a
// usage report. *ssd.KVRegion satisfies it — either the full KV region
// (single write domain) or one per-shard slice of it — as does any
// second device's KV view in the multi-device mode of §V-D.
// Every command can complete with an error status — an injected media
// error, a timeout, or faults.ErrDeviceGone after a power cut — and the
// controller's retry policy decides what the host does about it.
type KVDevice interface {
	// KVPut stores one record; kind distinguishes values, tombstones,
	// and supersede markers.
	KVPut(r *vclock.Runner, kind memtable.Kind, key, value []byte) error
	// KVPutCompound commits several records under one command header —
	// the device-side half of atomic write batches.
	KVPutCompound(r *vclock.Runner, entries []memtable.Entry) error
	// KVGet returns the newest buffered record for key.
	KVGet(r *vclock.Runner, key []byte) (value []byte, kind memtable.Kind, found bool, err error)
	// KVReset wipes the device's buffered pairs (§V-E step 8).
	KVReset(r *vclock.Runner) error
	// KVBulkScan streams every buffered pair in key order, in DMA-sized
	// chunks (§V-E steps 3-6). A chunk's entries are the caller's only
	// until emit returns: the drain copies what it keeps. A non-nil error
	// means the emitted chunks are a prefix of the device's contents, not
	// all of it.
	KVBulkScan(r *vclock.Runner, emit func(entries []memtable.Entry)) error
	// NewKVIterator opens a host-visible cursor (SEEK/NEXT commands).
	NewKVIterator(r *vclock.Runner) iterkit.Iterator
	// KVEmpty reports whether no pairs are buffered.
	KVEmpty() bool
	// KVUsage reports buffered pair count and logical bytes.
	KVUsage() (entries, bytes int64)
}
