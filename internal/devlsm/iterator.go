package devlsm

import (
	"bytes"

	"kvaccel/internal/ftl"
	"kvaccel/internal/iterkit"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// runIter walks one run page by page, charging a NAND read per page load
// when chargeReads is set (the no-read-cache property of the Dev-LSM).
type runIter struct {
	d           *DevLSM
	r           *vclock.Runner
	ru          *run
	chargeReads bool

	pi      int
	payload []byte
	cur     memtable.Entry
	valid   bool
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
	it.pi = i
	it.payload = it.ru.data[pm.off : pm.off+pm.length]
	return true
}

func (it *runIter) step() {
	for {
		if len(it.payload) == 0 {
			if !it.loadPage(it.pi + 1) {
				return
			}
		}
		e, rest, err := decodeRecord(it.payload)
		if err != nil {
			panic("devlsm: corrupt run page during scan: " + err.Error())
		}
		it.payload = rest
		it.cur = e
		it.valid = true
		return
	}
}

func (it *runIter) SeekToFirst() {
	it.valid = false
	it.payload = nil
	it.pi = -1
	it.step()
}

func (it *runIter) Seek(key []byte) {
	it.valid = false
	it.payload = nil
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
// and the rollback can propagate deletes.
type Iterator struct {
	d       *DevLSM
	merged  *dedupIter
	cursors []*runIter
}

// NewIterator waits for the flush in flight, if any, then snapshots the
// active buffer and the runs. Page loads charge NAND reads as the cursor
// crosses them.
func (d *DevLSM) NewIterator(r *vclock.Runner) *Iterator {
	d.waitFlush(r)
	mem := d.mem
	runs := append([]*run(nil), d.runs...)
	d.stats.Scans++

	children := make([]iterkit.Iterator, 0, len(runs)+1)
	children = append(children, mem.NewIterator())
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
func (it *Iterator) SeekToFirst() { it.merged.SeekToFirst() }

// Seek positions at the first buffered key >= key.
func (it *Iterator) Seek(key []byte) { it.merged.Seek(key) }

// Next advances to the next distinct user key.
func (it *Iterator) Next() { it.merged.Next() }

// Valid reports whether the cursor is on an entry.
func (it *Iterator) Valid() bool { return it.merged.Valid() }

// Entry returns the newest version of the current user key.
func (it *Iterator) Entry() memtable.Entry { return it.merged.Entry() }

// ScanChunk is one slab of a bulky range scan: records of up to the DMA
// chunk budget of encoded bytes (§V-E step 5-6: 512 KB DMA units). Its
// entries are views of the Dev-LSM's write buffers and runs, whose bytes
// are never written again once built: they must not be modified, and
// they stay valid, and equal, after later puts and after Reset.
type ScanChunk struct {
	Entries []memtable.Entry
	Bytes   int
}

// BulkScan runs the iterator-based bulky range scan the rollback uses:
// it waits for the flush in flight, if any, bulk-reads every run page up
// front (the fast path the paper builds in hardware), merges on the
// controller core, and emits chunks of at most chunkSize encoded bytes
// via emit.
func (d *DevLSM) BulkScan(r *vclock.Runner, chunkSize int, emit func(ScanChunk)) {
	d.waitFlush(r)
	mem, runs := d.mem, d.runs
	d.stats.Scans++

	// Step 4-5: read the entire Dev-LSM's pages with full die parallelism.
	// left bounds the encoded bytes the scan has still to emit: the runs'
	// records and the memtable's footprint count every version and more.
	var lpns []int
	left := int(mem.ApproximateSize())
	for _, ru := range runs {
		left += len(ru.data)
		for _, pm := range ru.pages {
			lpns = append(lpns, pm.lpns...)
		}
	}
	d.f.ReadMany(r, ftl.KVRegion, lpns)

	children := make([]iterkit.Iterator, 0, len(runs)+1)
	children = append(children, mem.NewIterator())
	for i := len(runs) - 1; i >= 0; i-- {
		children = append(children, newRunIter(d, r, runs[i], false))
	}
	merged := &dedupIter{in: iterkit.NewMerge(children)}

	// A chunk's entries are the merge's own views (see ScanChunk), so the
	// scan copies no key or value. Each chunk's entry slice is sized by
	// the mean record scanned so far, for chunkSize bytes or, if less, the
	// scan's bytes left, so the last chunk holds no more than it needs.
	var chunk ScanChunk
	cpuPending, scanned, scannedBytes := 0, 0, 0
	for merged.SeekToFirst(); merged.Valid(); merged.Next() {
		e := merged.Entry()
		sz := len(e.Key) + len(e.Value) + 9
		scanned, scannedBytes = scanned+1, scannedBytes+sz
		if chunk.Entries == nil {
			want := min(chunkSize, max(left, sz))
			chunk.Entries = make([]memtable.Entry, 0, want*scanned/scannedBytes+1)
		}
		left -= sz
		chunk.Entries = append(chunk.Entries, e)
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
	if len(chunk.Entries) > 0 {
		emit(chunk)
	}
}
