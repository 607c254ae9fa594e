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

// MergeParams parameterizes one merge-emit pass: keep only the newest
// version per user key, elide bottom-level tombstones when asked; the
// host path adds its value-log-discard hook. Everything that influences
// output bytes — builder options, the split threshold, the tombstone
// decision — flows through here, which is what keeps the host and device
// paths identical.
type MergeParams struct {
	Builder        sstable.BuilderOptions
	MaxFileSize    int64
	DropTombstones bool

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
// newest version of each user key, elide droppable tombstones, cut a new
// table whenever the builder crosses MaxFileSize. The iterator must yield
// internal-key order (user key ascending, seq descending within a key),
// so a table is only ever cut between user keys.
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
	for it.SeekToFirst(); it.Valid(); it.Next() {
		e := it.Entry()
		pendingCPU += len(e.Key) + len(e.Value) + 16
		if pendingCPU >= ChunkBytes {
			charge(pendingCPU)
			pendingCPU = 0
		}
		// Keep the newest version of each user key; the merge iterator
		// yields newest-first within a key.
		if haveUser && bytes.Equal(e.Key, lastUserKey) {
			if p.OnDrop != nil {
				p.OnDrop(e)
			}
			continue
		}
		lastUserKey = append(lastUserKey[:0], e.Key...)
		haveUser = true
		if e.Kind == memtable.KindDelete && p.DropTombstones {
			// A bottom-level tombstone shadowing nothing deeper is elided.
			continue
		}
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
