package lsm

import (
	"bytes"
	"fmt"

	"kvaccel/internal/fold"
	"kvaccel/internal/iterkit"
	"kvaccel/internal/memtable"
	"kvaccel/internal/sstable"
)

// mergeParams parameterizes one flush's or compaction's merge-emit pass.
type mergeParams struct {
	builder        sstable.BuilderOptions
	sizeHint       int   // each table's buffer (sstable.Builder.SizeHint)
	maxFileSize    int64 // a table is cut as it crosses this; 0 never cuts
	dropTombstones bool

	// onDrop observes each dropped superseded version (value-log discard
	// accounting). May be nil.
	onDrop func(e memtable.Entry)
	// charge is called with the merge work done since its last call, in
	// bytes, about every cpuChunk and once at the end. May be nil.
	charge func(n int)
	// emit receives each finished table. A non-nil error aborts the merge.
	emit func(data fold.Payload, meta sstable.Meta) error
}

// merge runs the flush and compaction merge-emit loop over it: keep the
// newest version of each user key, elide droppable tombstones, cut a new
// table whenever the builder crosses maxFileSize. The iterator must yield
// internal-key order (user key ascending, seq descending within a key),
// so a table is only ever cut between user keys. Older versions are safe
// to drop: no reader reads at an older sequence number (there are no
// snapshots; Get and iterators take a key's newest version), and an
// iterator that pinned an immutable memtable reads it, not its flush.
func merge(it iterkit.Iterator, p mergeParams) error {
	newBuilder := func() *sstable.Builder {
		b := sstable.NewBuilder(p.builder)
		b.SizeHint(p.sizeHint)
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
		if err := p.emit(data, meta); err != nil {
			return err
		}
		b = newBuilder()
		return nil
	}
	charge := func(n int) {
		if p.charge != nil {
			p.charge(n)
		}
	}

	pendingCPU := 0
	var lastUserKey []byte
	haveUser := false
	for it.SeekToFirst(); it.Valid(); it.Next() {
		e := it.Entry()
		pendingCPU += len(e.Key) + len(e.Value) + 16
		if pendingCPU >= cpuChunk {
			charge(pendingCPU)
			pendingCPU = 0
		}
		// Keep the newest version of each user key; the merge iterator
		// yields newest-first within a key.
		if haveUser && bytes.Equal(e.Key, lastUserKey) {
			if p.onDrop != nil {
				p.onDrop(e)
			}
			continue
		}
		lastUserKey = append(lastUserKey[:0], e.Key...)
		haveUser = true
		if e.Kind == memtable.KindDelete && p.dropTombstones {
			// A bottom-level tombstone shadowing nothing deeper is elided.
			continue
		}
		if err := b.Add(e.Key, e.Seq, e.Kind, e.Value); err != nil {
			return fmt.Errorf("lsm: merge out of order: %w", err)
		}
		if p.maxFileSize > 0 && int64(b.EstimatedSize()) >= p.maxFileSize {
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
