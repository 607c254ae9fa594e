package devlsm

import (
	"bytes"

	"kvaccel/internal/fold"
	"kvaccel/internal/ftl"
	"kvaccel/internal/iterkit"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// runIter walks one run page by page, decoding each record where it lies
// (run.record), and charging a NAND read per page it enters when
// chargeReads is set (the no-read-cache property of the Dev-LSM). A
// folded value is left where it is: cur.Value is nil, and dedupIter.folded
// says where the value lies.
type runIter struct {
	d           *DevLSM
	r           *vclock.Runner
	ru          *run
	chargeReads bool

	pi         int
	off, end   int // the next record's offset in ru.data, and page pi's end
	cur        memtable.Entry
	voff, vlen int // where cur's value lies in ru.data
	valid      bool
}

func newRunIter(d *DevLSM, r *vclock.Runner, ru *run, chargeReads bool) *runIter {
	return &runIter{d: d, r: r, ru: ru, chargeReads: chargeReads, pi: -1}
}

func (it *runIter) loadPage(i int) bool {
	if i < 0 || i >= len(it.ru.pages) {
		it.valid = false
		return false
	}
	pm := &it.ru.pages[i]
	if it.chargeReads {
		_ = it.d.f.ReadMany(it.r, ftl.KVRegion, pm.lpns) // iterator reads: faults surface at the command layer
	}
	it.pi, it.off, it.end = i, pm.off, pm.off+pm.length
	return true
}

// step decodes the next record, entering the next page if this one is
// done (pages are never empty).
func (it *runIter) step() {
	if it.off == it.end && !it.loadPage(it.pi+1) {
		return
	}
	it.cur, it.voff, it.vlen, it.off = it.ru.record(it.off)
	it.valid = true
}

func (it *runIter) SeekToFirst() {
	it.valid = false
	it.off, it.end = 0, 0
	it.pi = -1
	it.step()
}

func (it *runIter) Seek(key []byte) {
	it.valid = false
	it.off, it.end = 0, 0
	pi := it.ru.pageFor(key)
	if pi < 0 {
		pi = 0
	}
	it.pi = pi - 1
	it.step()
	for it.valid && bytes.Compare(it.cur.Key, key) < 0 {
		it.step()
	}
}

func (it *runIter) Next()                 { it.step() }
func (it *runIter) Valid() bool           { return it.valid }
func (it *runIter) Entry() memtable.Entry { return it.cur }

// Iterator is the Dev-LSM's range cursor (§V-F): a merge over the device
// memtable and every run, deduplicated to the newest version per user
// key. Tombstones are surfaced (kind KindDelete) so the host comparator
// and the rollback can propagate deletes. Only the values it returns are
// materialised, each the first time Entry is called on it.
type Iterator struct {
	d       *DevLSM
	merged  *dedupIter
	cursors []*runIter
	value   []byte // the current record's folded value, once materialised
}

// NewIterator waits for the flush in flight, if any, then snapshots the
// write buffers and the runs. Page loads charge NAND reads as the cursor
// crosses them.
func (d *DevLSM) NewIterator(r *vclock.Runner) *Iterator {
	d.waitFlush(r)
	runs := append([]*run(nil), d.runs...)
	d.stats.Scans++

	children := d.bufferIters(len(runs))
	cursors := make([]*runIter, 0, len(runs))
	for i := len(runs) - 1; i >= 0; i-- {
		ri := newRunIter(d, r, runs[i], true)
		cursors = append(cursors, ri)
		children = append(children, ri)
	}
	return &Iterator{d: d, merged: &dedupIter{in: iterkit.NewMerge(children)}, cursors: cursors}
}

// SetRunner redirects the cursor's NAND-read accounting to r. The NVMe
// layer executes each SEEK/NEXT as its own queued command, so the runner
// spending the page-read time is the dispatcher worker serving the
// current command, not the runner that opened the iterator.
func (it *Iterator) SetRunner(r *vclock.Runner) {
	for _, c := range it.cursors {
		c.r = r
	}
}

// SeekToFirst positions at the smallest buffered key.
func (it *Iterator) SeekToFirst() { it.value = nil; it.merged.SeekToFirst() }

// Seek positions at the first buffered key >= key.
func (it *Iterator) Seek(key []byte) { it.value = nil; it.merged.Seek(key) }

// Next advances to the next distinct user key.
func (it *Iterator) Next() { it.value = nil; it.merged.Next() }

// Valid reports whether the cursor is on an entry.
func (it *Iterator) Valid() bool { return it.merged.Valid() }

// Entry returns the newest version of the current user key. A folded
// value is materialised into a buffer of its own on the first call.
func (it *Iterator) Entry() memtable.Entry {
	e := it.merged.Entry()
	if p, off, n := it.merged.folded(); p != nil {
		if it.value == nil {
			it.value = p.Read(off, n)
		}
		e.Value = it.value
	}
	return e
}

// ScanChunk is one slab of a bulky range scan: records of up to the DMA
// chunk budget of encoded bytes (§V-E step 5-6: 512 KB DMA units), Bytes
// of them. Until the chunk lands (Entries), a value a run folded stays
// where it lies, so a scan makes no value flat; landing materialises them
// all into one buffer of the chunk's own. Every other key and value is a
// view of the Dev-LSM's write buffers and runs, whose bytes are never
// written again once built. None may be modified, and all stay valid,
// and equal, after later puts and after Reset.
type ScanChunk struct {
	entries []memtable.Entry
	folded  []foldedValue // entries whose value is still folded
	Bytes   int
}

// foldedValue is entry i's value, n bytes of *p from logical offset off.
type foldedValue struct {
	p         *fold.Payload
	i, off, n int
}

// Entries returns the chunk's records, landing the chunk on the first
// call: its folded values are filled into one fresh buffer.
func (c *ScanChunk) Entries() []memtable.Entry {
	if len(c.folded) > 0 {
		n := 0
		for _, f := range c.folded {
			n += f.n
		}
		buf := make([]byte, n)
		for _, f := range c.folded {
			f.p.Fill(buf[:f.n], f.off)
			c.entries[f.i].Value, buf = buf[:f.n:f.n], buf[f.n:]
		}
		c.folded = nil
	}
	return c.entries
}

// bufferIters returns iterators over the write buffers, newest first,
// with room for n more: the active buffer, and the sealed one if a full
// region left it unflushed. No flush may be in flight.
func (d *DevLSM) bufferIters(n int) []iterkit.Iterator {
	its := make([]iterkit.Iterator, 0, n+2)
	its = append(its, d.mem.NewIterator())
	if d.sealed != nil {
		its = append(its, d.sealed.NewIterator())
	}
	return its
}

// BulkScan runs the iterator-based bulky range scan the rollback uses:
// it waits for the flush in flight, if any, bulk-reads every run page up
// front (the fast path the paper builds in hardware), merges on the
// controller core, and emits chunks of about chunkSize encoded bytes via
// emit. The merge compares keys only and materialises no value: a chunk
// makes its folded values flat when it lands (ScanChunk.Entries), so the
// caller decides how many are flat at once.
func (d *DevLSM) BulkScan(r *vclock.Runner, chunkSize int, emit func(ScanChunk)) {
	d.waitFlush(r)
	runs := d.runs
	d.stats.Scans++

	// Step 4-5: read the entire Dev-LSM's pages with full die parallelism.
	// left bounds the encoded bytes the scan has still to emit: the runs'
	// records and the buffers' footprint count every version and more.
	var lpns []int
	left := int(d.mem.ApproximateSize())
	if d.sealed != nil {
		left += int(d.sealed.ApproximateSize())
	}
	for _, ru := range runs {
		left += ru.data.Len()
		for _, pm := range ru.pages {
			lpns = append(lpns, pm.lpns...)
		}
	}
	d.f.ReadMany(r, ftl.KVRegion, lpns)

	children := d.bufferIters(len(runs))
	for i := len(runs) - 1; i >= 0; i-- {
		children = append(children, newRunIter(d, r, runs[i], false))
	}
	merged := &dedupIter{in: iterkit.NewMerge(children)}

	// A chunk's entries are the merge's own views (see ScanChunk), so the
	// scan copies no key or value. Each chunk's entry slice is sized by
	// the mean record scanned so far, for chunkSize bytes or, if less, the
	// scan's bytes left, so the last chunk holds no more than it needs;
	// its folded list, at its first folded value, for the entries left.
	var chunk ScanChunk
	cpuPending, scanned, scannedBytes := 0, 0, 0
	for merged.SeekToFirst(); merged.Valid(); merged.Next() {
		e := merged.Entry()
		p, off, n := merged.folded()
		if p == nil {
			n = len(e.Value)
		}
		sz := len(e.Key) + n + 9
		scanned, scannedBytes = scanned+1, scannedBytes+sz
		if chunk.entries == nil {
			want := min(chunkSize, max(left, sz))
			chunk.entries = make([]memtable.Entry, 0, want*scanned/scannedBytes+1)
		}
		if p != nil {
			if chunk.folded == nil {
				chunk.folded = make([]foldedValue, 0, cap(chunk.entries)-len(chunk.entries))
			}
			chunk.folded = append(chunk.folded, foldedValue{p, len(chunk.entries), off, n})
		}
		left -= sz
		chunk.entries = append(chunk.entries, e)
		chunk.Bytes += sz
		cpuPending += sz
		if cpuPending >= 64<<10 {
			d.chargeScanCPU(r, cpuPending)
			cpuPending = 0
		}
		if chunk.Bytes >= chunkSize {
			emit(chunk)
			chunk = ScanChunk{}
		}
	}
	d.chargeScanCPU(r, cpuPending)
	if len(chunk.entries) > 0 {
		emit(chunk)
	}
}
