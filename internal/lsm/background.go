package lsm

import (
	"bytes"
	"sort"

	"kvaccel/internal/encoding"
	"kvaccel/internal/fold"
	"kvaccel/internal/iterkit"
	"kvaccel/internal/memtable"
	"kvaccel/internal/sstable"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
)

// cpuChunk is the granularity at which merge CPU time is charged, so core
// occupancy interleaves realistically with other work.
const cpuChunk = 256 << 10 // bytes of merge work per CPU charge

// chargeCPU charges n bytes of merge or memtable-dump work at perKB per
// KiB.
func (db *DB) chargeCPU(r *vclock.Runner, perKB vclock.Duration, n int) {
	if n > 0 {
		db.opt.CPU.Run(r, perKB*vclock.Duration(n)/1024)
	}
}

// flushWorker drains the immutable-memtable queue.
func (db *DB) flushWorker(r *vclock.Runner) {
	for {
		db.bgCond.WaitUntil(r, flushQueued, db)
		if db.closed {
			return
		}
		job := db.imm[0]
		// Writers insert into their claimed memtable after their group's
		// WAL append; wait for in-flight inserts on this table to drain so
		// the SST captures every record the WAL already holds. Appliers never block on
		// anything but the CPU pool, so this always makes progress.
		db.bgCond.WaitUntil(r, flushApplied, db)
		db.flushing = true
		fsp := db.opt.Trace.Begin(r, trace.PhaseFlush, "flush")

		// The OS would have written these dirty WAL pages back by now;
		// charge that device traffic before the memtable becomes an SST.
		// A failed sync means acked records may not be durable; surface
		// it, but still attempt the flush — a successful SST supersedes
		// the broken log.
		if serr := job.log.Sync(r); serr != nil {
			db.setBackgroundError(serr)
		}
		// Value bytes must be durable before the pointers referencing them
		// land in an SST: an SST-resident pointer into a torn vlog tail
		// would survive the crash its value did not.
		if db.vlog != nil {
			if serr := db.vlog.Sync(r); serr != nil {
				db.setBackgroundError(serr)
			}
		}
		meta, err := db.buildSST(r, job.mt, 0)
		if err != nil {
			// Device full mid-flush: go read-only. The immutable memtable
			// stays queued so reads keep serving it; this worker parks
			// until shutdown instead of retrying a doomed flush.
			fsp.End(r)
			db.setBackgroundError(err)
			db.flushing = false
			db.bgCond.WaitUntil(r, dbClosed, db)
			return
		}

		var flushedBytes int64
		if meta != nil {
			nv := db.vers.clone()
			nv.addFile(meta)
			db.installVersion(nv) // a flush retires no file
			db.stats.Flushes++
			flushedBytes = meta.Size
		}
		db.stats.FlushBytes += flushedBytes
		db.imm = db.imm[1:]
		db.flushing = false
		db.stats.WALBytesWritten += job.log.BytesWritten()
		db.pending = db.vers.pendingCompactionBytes(&db.opt)

		perr := db.persistManifest(r)
		job.log.Close()
		if perr == nil {
			job.log.Delete(r)
		}
		fsp.EndArg(r, flushedBytes)
		db.writeCond.Broadcast()
		db.bgCond.Broadcast()
		if perr != nil {
			// CURRENT still points at the pre-flush manifest, so the WAL
			// just kept is the only durable copy of these records. Go
			// read-only and park: a later install persisting a newer
			// manifest would make the stale log replay over newer data.
			db.setBackgroundError(perr)
			db.bgCond.WaitUntil(r, dbClosed, db)
			return
		}
	}
}

// The predicates of the background waits (vclock.Cond.WaitUntil). Each
// only reads the DB, so the kernel checks it for the waiter, which runs
// only once there is something to do.
func dbClosed(db any) bool { return db.(*DB).closed }

func flushQueued(a any) bool {
	db := a.(*DB)
	return db.closed || len(db.imm) > 0
}

// flushApplied: no insert is in flight on the oldest immutable memtable.
func flushApplied(a any) bool {
	db := a.(*DB)
	return db.applying[db.imm[0].mt] <= 0
}

// buildSST writes one memtable as an SST at the given level through
// merge, spending flush CPU and flush-I/O device time; it returns nil for
// an empty memtable. The value-log bytes of the versions it drops count
// as discarded.
func (db *DB) buildSST(r *vclock.Runner, mt *memtable.Table, level int) (meta *FileMeta, err error) {
	var discard int64
	err = merge(mt.NewIterator(), mergeParams{
		builder: db.opt.builderOptions(),
		// Each key's newest version is written. The memtable counts 32
		// bytes of node overhead per entry, a data block 11 or 12 of record
		// header: 20 back per entry sizes a buffer fs.WriteFile keeps.
		sizeHint: int(mt.NewestSize()) - 20*mt.NewestCount(),
		onDrop:   discardOf(&discard),
		charge:   func(n int) { db.chargeCPU(r, db.opt.Cost.FlushCPUPerKB, n) },
		emit: func(data fold.Payload, m sstable.Meta) (err error) {
			meta, err = db.writeTable(r, data, m, level, trace.PhaseFlushIO)
			return err
		},
	})
	if err == nil {
		db.stats.VLogDiscardBytes += discard
	}
	return meta, err
}

// discardOf returns a merge's onDrop: it adds to *n the value-log bytes
// each dropped pointer leaves dead in the log.
func discardOf(n *int64) func(memtable.Entry) {
	return func(e memtable.Entry) {
		if e.Kind == memtable.KindValuePtr {
			if ptr, err := encoding.DecodeValuePointer(e.Value); err == nil {
				*n += int64(ptr.Len)
			}
		}
	}
}

// writeTable persists encoded table bytes and opens its reader, tracing
// the device write under ioPh (flush-io vs compaction-io). A write
// failure (device full) surfaces as a sticky background error.
func (db *DB) writeTable(r *vclock.Runner, data fold.Payload, meta sstable.Meta, level int, ioPh trace.Phase) (*FileMeta, error) {
	num := db.nextFileNum
	db.nextFileNum++

	name := SSTName(num)
	wsp := db.opt.Trace.Begin(r, ioPh, "sst-write")
	// Flush and compaction output is maintenance traffic: tag it so the
	// queue stats keep it out of the foreground admission numbers.
	err := db.fsys.WriteFileBackground(r, name, data)
	wsp.EndArg(r, int64(meta.Size))
	if err != nil {
		return nil, err
	}
	rd, err := sstable.Open(r, &fileSource{db: db, name: name, size: meta.Size})
	if err != nil {
		return nil, err
	}
	return &FileMeta{
		Num:      num,
		Level:    level,
		Smallest: meta.Smallest,
		Largest:  meta.Largest,
		Size:     int64(meta.Size),
		Entries:  meta.Entries,
		reader:   rd,
	}, nil
}

// fileSource adapts an fs file to sstable.Source for the long-lived
// readers serving foreground Gets.
type fileSource struct {
	db   *DB
	name string
	size int
}

func (s *fileSource) ReadAt(r *vclock.Runner, off, length int) ([]byte, error) {
	return s.db.fsys.ReadAt(r, s.name, off, length)
}
func (s *fileSource) Size() int { return s.size }

// compactionReadahead is the sequential-read window compaction inputs use
// (RocksDB's compaction_readahead_size, 2 MiB): one large device read per
// window instead of one per block, reaching the array's die parallelism.
const compactionReadahead = 2 << 20

// readaheadSource serves a compaction's sequential reads of one table
// from a sliding prefetched window, its device reads tagged background.
// A block in one literal span of the payload (short values; the index,
// filter and footer) is a view; any other is materialised into own, so
// nothing read may outlive the next read: the merge copies what it keeps.
type readaheadSource struct {
	inner           fileSource
	tr              *trace.Tracer
	win             fold.Payload // the table's payload, from file offset base
	base, off, size int          // and the window
	own             []byte
}

func (s *readaheadSource) ReadAt(r *vclock.Runner, off, length int) ([]byte, error) {
	if off < s.off || off+length > s.off+s.size {
		want := min(max(compactionReadahead, length), s.inner.size-off)
		rsp := s.tr.Begin(r, trace.PhaseCompactionIO, "sst-read")
		win, base, err := s.inner.db.fsys.ReadExtentBackground(r, s.inner.name, off, want)
		rsp.EndArg(r, int64(want))
		if err != nil {
			return nil, err
		}
		s.win, s.base, s.off, s.size = win, base, off, want
	}
	if v, ok := s.win.View(off-s.base, length); ok {
		return v, nil
	}
	if cap(s.own) < length {
		s.own = make([]byte, length)
	}
	s.win.Fill(s.own[:length], off-s.base)
	return s.own[:length], nil
}

func (s *readaheadSource) Size() int { return s.inner.size }

// compactionIterator opens a readahead iterator over f.
func (db *DB) compactionIterator(r *vclock.Runner, f *FileMeta) (iterkit.Iterator, error) {
	src := &readaheadSource{inner: fileSource{db: db, name: f.Name(), size: int(f.Size)}, tr: db.opt.Trace}
	rd, err := sstable.Open(r, src)
	if err != nil {
		return nil, err
	}
	return rd.NewIterator(r), nil
}

// compaction describes one picked compaction job.
type compaction struct {
	level   int // input level (0 for L0→L1)
	target  int
	inputs  []*FileMeta // files at level
	overlap []*FileMeta // files at target
	// dropTombstones is true when the output level is the bottom-most
	// level holding data, so deletions can be elided.
	dropTombstones bool
}

func (c *compaction) allFiles() []*FileMeta {
	all := make([]*FileMeta, 0, len(c.inputs)+len(c.overlap))
	all = append(all, c.inputs...)
	all = append(all, c.overlap...)
	return all
}

// compactionWorker is one background compaction thread. Workers with
// id >= compactionThreads idle, which is how SetCompactionThreads scales
// parallelism up and down at runtime.
func (db *DB) compactionWorker(r *vclock.Runner, id int) {
	slot := &compactionSlot{db: db, id: id}
	for {
		db.bgCond.WaitUntil(r, compactionDue, slot)
		if db.closed {
			return
		}
		c := slot.found
		db.claimCompaction(c)
		db.activeCompactions++

		db.doCompaction(r, c)

		db.activeCompactions--
		db.pending = db.vers.pendingCompactionBytes(&db.opt)
		db.writeCond.Broadcast()
		db.bgCond.Broadcast()
	}
}

// compactionSlot is a compaction worker's wait: the argument of
// compactionDue, which leaves the compaction it found in found.
type compactionSlot struct {
	db    *DB
	id    int
	found *compaction
}

// compactionDue reports whether a compaction worker has anything to do:
// the DB closed, or the worker is among the allowed threads and a
// compaction is there to pick. Nothing runs between the check that
// holds and the worker's return from its wait, so what it found is what
// the worker would find.
func compactionDue(a any) bool {
	s := a.(*compactionSlot)
	if s.db.closed {
		return true
	}
	s.found = nil
	if s.id < s.db.compactionThreads {
		s.found = s.db.findCompaction()
	}
	return s.found != nil
}

// findCompaction selects the next compaction, or nil, without claiming
// its files (claimCompaction does).
//
// Level choice follows RocksDB's score model: L0 scores by file count
// over its trigger, deeper levels by bytes over target, and the highest
// feasible score wins. That ordering is what lets additional compaction
// threads drain L1→L2 (and deeper) debt in parallel with the serialized
// L0→L1 compaction instead of starving behind it.
func (db *DB) findCompaction() *compaction {
	if db.bgErr != nil {
		return nil
	}
	type candidate struct {
		level int
		score float64
	}
	var cands []candidate
	if n := len(db.vers.levels[0]); n >= db.opt.L0CompactionTrigger {
		cands = append(cands, candidate{0, float64(n) / float64(db.opt.L0CompactionTrigger)})
	}
	for l := 1; l < db.opt.MaxLevels-1; l++ {
		t := targetBytes(&db.opt, l)
		if t == 0 {
			continue
		}
		if score := float64(db.vers.levelBytes(l)) / float64(t); score > 1 {
			cands = append(cands, candidate{l, score})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].score > cands[j].score })

	for _, cand := range cands {
		if cand.level == 0 {
			// L0→L1 is serialized: all L0 files merge with overlapping L1.
			if db.compactingL0 || anyBeingCompacted(db.vers.levels[0]) {
				continue
			}
			c := &compaction{level: 0, target: 1}
			c.inputs = append(c.inputs, db.vers.levels[0]...)
			smallest, largest := keyRange(c.inputs)
			c.overlap = db.vers.overlapping(1, smallest, largest)
			if anyBeingCompacted(c.overlap) {
				continue
			}
			return c
		}
		if c := db.pickLevelFile(cand.level); c != nil {
			return c
		}
	}
	return nil
}

// claimCompaction marks c's files as being compacted (L0→L1 also takes
// the L0 slot; a deeper pick moves its level's round-robin cursor past
// its file) and decides whether it may drop tombstones.
func (db *DB) claimCompaction(c *compaction) {
	if c.level == 0 {
		db.compactingL0 = true
	} else {
		db.cursor[c.level] = append([]byte(nil), c.inputs[0].Largest...)
	}
	markCompacting(c.allFiles(), true)
	c.dropTombstones = db.bottomMost(c.target)
}

// pickLevelFile picks one file at level l (round-robin cursor) plus
// its next-level overlap.
func (db *DB) pickLevelFile(l int) *compaction {
	files := db.vers.levels[l]
	start := 0
	if cur := db.cursor[l]; cur != nil {
		for i, f := range files {
			if bytes.Compare(f.Smallest, cur) > 0 {
				start = i
				break
			}
		}
	}
	for n := 0; n < len(files); n++ {
		f := files[(start+n)%len(files)]
		if f.beingCompacted {
			continue
		}
		overlap := db.vers.overlapping(l+1, f.Smallest, f.Largest)
		if anyBeingCompacted(overlap) {
			continue
		}
		return &compaction{level: l, target: l + 1, inputs: []*FileMeta{f}, overlap: overlap}
	}
	return nil
}

// bottomMost reports whether no level deeper than l holds data.
func (db *DB) bottomMost(l int) bool {
	for i := l + 1; i < db.opt.MaxLevels; i++ {
		if len(db.vers.levels[i]) > 0 {
			return false
		}
	}
	return true
}

func anyBeingCompacted(files []*FileMeta) bool {
	for _, f := range files {
		if f.beingCompacted {
			return true
		}
	}
	return false
}

func markCompacting(files []*FileMeta, v bool) {
	for _, f := range files {
		f.beingCompacted = v
	}
}

func keyRange(files []*FileMeta) (smallest, largest []byte) {
	for _, f := range files {
		if smallest == nil || bytes.Compare(f.Smallest, smallest) < 0 {
			smallest = f.Smallest
		}
		if largest == nil || bytes.Compare(f.Largest, largest) > 0 {
			largest = f.Largest
		}
	}
	return smallest, largest
}

// doCompaction merges c's inputs into new files at the target level: the
// phase structure the paper's PCIe analysis depends on — timed block
// reads interleaved with CPU merge work, then a burst of device writes.
func (db *DB) doCompaction(r *vclock.Runner, c *compaction) {
	csp := db.opt.Trace.Begin(r, trace.PhaseCompaction, "compaction")
	var readBytes, writeBytes int64
	defer func() { csp.EndArg(r, readBytes+writeBytes) }()

	iters := make([]iterkit.Iterator, 0, len(c.inputs)+len(c.overlap))
	var openErr error
	for _, f := range c.allFiles() {
		it, err := db.compactionIterator(r, f)
		if err != nil {
			openErr = err
			break
		}
		iters = append(iters, it)
		readBytes += f.Size
	}
	if openErr != nil {
		// An unreadable input aborts before any merging: unmark the
		// inputs and go read-only.
		db.abortCompaction(r, c, nil, openErr)
		return
	}

	var outputs []*FileMeta
	var discard int64
	mergeErr := merge(iterkit.NewMerge(iters), mergeParams{
		builder:        db.opt.builderOptions(),
		sizeHint:       int(db.opt.MaxFileSize), // a table is cut as its data blocks cross it
		maxFileSize:    db.opt.MaxFileSize,
		dropTombstones: c.dropTombstones,
		onDrop:         discardOf(&discard),
		charge:         func(n int) { db.chargeCPU(r, db.opt.Cost.MergeCPUPerKB, n) },
		emit: func(data fold.Payload, meta sstable.Meta) error {
			out, err := db.writeTable(r, data, meta, c.target, trace.PhaseCompactionIO)
			if err != nil {
				return err
			}
			outputs = append(outputs, out)
			writeBytes += int64(meta.Size)
			return nil
		},
	})
	if mergeErr != nil {
		// Abort: delete partial outputs, unmark inputs, go read-only.
		db.abortCompaction(r, c, outputs, mergeErr)
		return
	}
	db.installCompaction(r, c, outputs, readBytes, writeBytes, discard)
}

// abortCompaction unwinds a failed compaction: partial outputs are
// deleted, the inputs unmarked, and the error made sticky (read-only).
func (db *DB) abortCompaction(r *vclock.Runner, c *compaction, outputs []*FileMeta, err error) {
	for _, f := range outputs {
		_ = db.fsys.Remove(r, f.Name())
	}
	markCompacting(c.allFiles(), false)
	if c.level == 0 {
		db.compactingL0 = false
	}
	db.setBackgroundError(err)
}

// installCompaction swaps c's inputs for outputs atomically and persists
// the manifest, the compaction's commit point; discard is the value-log
// bytes the merge left dead.
func (db *DB) installCompaction(r *vclock.Runner, c *compaction, outputs []*FileMeta,
	readBytes, writeBytes, discard int64) {
	nv := db.vers.clone()
	for _, f := range c.allFiles() {
		nv.removeFile(f)
		f.beingCompacted = false
		f.obsolete = true
	}
	for _, f := range outputs {
		nv.addFile(f)
	}
	// The inputs no reader's version still lists are dead now; the rest
	// go when the last Get or iterator that started before this install
	// lets go of its version.
	dead := db.installVersion(nv)
	if c.level == 0 {
		db.compactingL0 = false
	}
	db.stats.Compactions++
	db.stats.CompactionReadBytes += readBytes
	db.stats.CompactionWriteBytes += writeBytes
	db.stats.VLogDiscardBytes += discard

	if perr := db.persistManifest(r); perr != nil {
		// The durable manifest still references the compaction inputs:
		// keep them on disk for restart and go read-only.
		db.setBackgroundError(perr)
		return
	}
	for _, f := range dead {
		_ = db.fsys.Remove(r, f.Name())
	}
}
