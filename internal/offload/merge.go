package offload

import (
	"bytes"
	"fmt"

	"kvaccel/internal/iterkit"
	"kvaccel/internal/memtable"
	"kvaccel/internal/sstable"
)

// ChunkBytes is the granularity at which merge CPU is charged, matching
// the host compaction path so offloaded and host merges interleave with
// other work the same way.
const ChunkBytes = 256 << 10

// MergeParams parameterizes one merge-emit pass. The zero hooks give the
// device-side behavior (keep only the newest version per user key, elide
// bottom-level tombstones); the host path plugs in its snapshot-retention
// and value-log-discard hooks. Everything that influences output bytes —
// builder options, the split threshold, the keep decisions — flows
// through here, which is what keeps the two paths identical.
type MergeParams struct {
	Builder        sstable.BuilderOptions
	MaxFileSize    int64
	DropTombstones bool

	// KeepDup reports whether an older version of the current user key
	// must be retained (host: newest version visible to a live snapshot).
	// Nil drops every superseded version.
	KeepDup func(seq, lastKeptSeq uint64) bool
	// KeepTombstone reports whether a bottom-level tombstone must be
	// retained despite DropTombstones (host: a snapshot still observes the
	// deletion). Nil elides it.
	KeepTombstone func(seq uint64) bool
	// OnDrop observes each dropped superseded version (host: value-log
	// discard accounting). May be nil.
	OnDrop func(e memtable.Entry)
	// Charge is called with accumulated merge work in bytes, roughly every
	// ChunkBytes (host: Main-LSM CPU pool; device: ARM core). May be nil.
	Charge func(n int)
	// Emit receives each finished table. A non-nil error aborts the merge.
	Emit func(data []byte, meta sstable.Meta) error
}

// Merge runs the canonical compaction merge-emit loop over it: keep the
// newest version of each user key (plus whatever KeepDup retains), elide
// droppable tombstones, cut a new table whenever the builder crosses
// MaxFileSize. The iterator must yield internal-key order (user key
// ascending, seq descending within a key).
func Merge(it iterkit.Iterator, p MergeParams) error {
	charge := p.Charge
	if charge == nil {
		charge = func(int) {}
	}
	newBuilder := func() *sstable.Builder {
		b := sstable.NewBuilder(p.Builder)
		b.SizeHint(int(p.MaxFileSize)) // a table is cut as its data blocks cross it
		return b
	}
	b := newBuilder()
	emit := func() error {
		if b.Entries() == 0 {
			return nil
		}
		data, meta, err := b.Finish()
		if err != nil {
			return err
		}
		if err := p.Emit(data, meta); err != nil {
			return err
		}
		b = newBuilder()
		return nil
	}

	pendingCPU := 0
	var lastUserKey []byte
	haveUser := false
	var lastKeptSeq uint64
	for it.SeekToFirst(); it.Valid(); it.Next() {
		e := it.Entry()
		pendingCPU += len(e.Key) + len(e.Value) + 16
		if pendingCPU >= ChunkBytes {
			charge(pendingCPU)
			pendingCPU = 0
		}
		// Keep the newest version of each user key, plus any older version
		// KeepDup retains; the merge iterator yields newest-first within a
		// key.
		if haveUser && bytes.Equal(e.Key, lastUserKey) {
			if p.KeepDup == nil || !p.KeepDup(e.Seq, lastKeptSeq) {
				if p.OnDrop != nil {
					p.OnDrop(e)
				}
				continue
			}
		} else if e.Kind == memtable.KindDelete && p.DropTombstones &&
			(p.KeepTombstone == nil || !p.KeepTombstone(e.Seq)) {
			// A bottom-level tombstone shadowing nothing deeper is elided.
			lastUserKey = append(lastUserKey[:0], e.Key...)
			haveUser = true
			lastKeptSeq = e.Seq
			continue
		}
		lastUserKey = append(lastUserKey[:0], e.Key...)
		haveUser = true
		lastKeptSeq = e.Seq
		if err := b.Add(e.Key, e.Seq, e.Kind, e.Value); err != nil {
			return fmt.Errorf("offload: merge out of order: %w", err)
		}
		if p.MaxFileSize > 0 && int64(b.EstimatedSize()) >= p.MaxFileSize {
			if err := emit(); err != nil {
				return err
			}
		}
	}
	if pendingCPU > 0 {
		charge(pendingCPU)
	}
	return emit()
}
