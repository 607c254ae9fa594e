package lsm

import (
	"kvaccel/internal/encoding"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// Batch collects writes that commit atomically: one WAL record covers the
// whole batch, so after a crash either every operation replays or none
// does — the atomicity half of the paper's §V-G transaction discussion
// (compound commands in the KV-SSD literature [33] play the same role on
// the device side).
//
// Put and Delete copy the key and value they are given, into one arena
// the batch keeps: the caller's buffers are its own again as soon as the
// call returns, and a batch that is Reset and refilled stages without
// allocating once the arena has grown to the largest batch it has held.
// In the other direction, Write (and every engine's WriteBatch above it)
// keeps nothing of the batch once it has returned: the records were
// copied into the log and the memtable, or onto the device.
type Batch struct {
	ops   []batchOp
	bytes int
	arena []byte // every staged key and value, back to back; ops alias it
}

type batchOp struct {
	kind  memtable.Kind
	key   []byte
	value []byte
}

// stage copies p onto the end of the arena and returns the copy. When the
// arena has to grow, ops staged before keep aliasing the array it leaves
// behind, which stays intact until they are Reset away.
func (b *Batch) stage(p []byte) []byte {
	n := len(b.arena)
	b.arena = append(b.arena, p...)
	return b.arena[n:len(b.arena):len(b.arena)]
}

// Put stages an insert.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{kind: memtable.KindPut, key: b.stage(key), value: b.stage(value)})
	b.bytes += len(key) + len(value) + 16
}

// Delete stages a tombstone.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{kind: memtable.KindDelete, key: b.stage(key)})
	b.bytes += len(key) + 16
}

// Len returns the number of staged operations.
func (b *Batch) Len() int { return len(b.ops) }

// Bytes returns the approximate staged payload size.
func (b *Batch) Bytes() int { return b.bytes }

// Reset empties the batch for reuse, keeping the op list's and the
// arena's memory. What was staged is gone with it: call Reset only once
// the Write that carried the batch has returned.
func (b *Batch) Reset() {
	clear(b.ops) // no stale aliases of an arena array the batch has outgrown
	b.ops = b.ops[:0]
	b.arena = b.arena[:0]
	b.bytes = 0
}

// Ops visits the staged operations in order.
func (b *Batch) Ops(fn func(kind memtable.Kind, key, value []byte)) {
	for _, op := range b.ops {
		fn(op.kind, op.key, op.value)
	}
}

// walBatchMarker opens every WAL record the write path emits.
const walBatchMarker = 0xB7

// decodeBatch parses an appendGroupPayload record, calling fn per
// operation.
func decodeBatch(p []byte, fn func(kind memtable.Kind, key, value []byte) error) error {
	if len(p) < 2 || p[0] != walBatchMarker {
		return encoding.ErrCorrupt
	}
	count, rest, err := encoding.Uvarint(p[1:])
	if err != nil {
		return err
	}
	for i := uint64(0); i < count; i++ {
		if len(rest) < 1 {
			return encoding.ErrCorrupt
		}
		kind := memtable.Kind(rest[0])
		var klen, vlen uint64
		if klen, rest, err = encoding.Uvarint(rest[1:]); err != nil {
			return err
		}
		if uint64(len(rest)) < klen {
			return encoding.ErrCorrupt
		}
		key := rest[:klen]
		rest = rest[klen:]
		if vlen, rest, err = encoding.Uvarint(rest); err != nil {
			return err
		}
		if uint64(len(rest)) < vlen {
			return encoding.ErrCorrupt
		}
		value := rest[:vlen]
		rest = rest[vlen:]
		if err := fn(kind, key, value); err != nil {
			return err
		}
	}
	return nil
}

// Write commits a batch atomically: consecutive sequence numbers inside
// one WAL record, so a crash replays all of it or none. The batch joins
// the same write group queue as single-record writes, so a group may carry
// several batches (and loose Puts) under one WAL append while keeping each
// batch's records contiguous.
func (db *DB) Write(r *vclock.Runner, b *Batch) error {
	return db.WriteWith(r, WriteOptions{}, b)
}

// WriteWith is Write with per-write admission options.
func (db *DB) WriteWith(r *vclock.Runner, wo WriteOptions, b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	w := db.newWriter()
	w.ops, w.noStall, w.userBytes = b.ops, wo.NoStallWait, int64(b.bytes-16*len(b.ops))
	return db.commit(r, w)
}
