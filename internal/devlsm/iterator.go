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
		_ = it.d.readPages(it.r, pm.lpns) // iterator reads: faults surface at the command layer
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

// NewIterator snapshots the current memtable and runs. Page loads charge
// NAND reads as the cursor crosses them.
func (d *DevLSM) NewIterator(r *vclock.Runner) *Iterator {
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

// ScanChunk is one serialized slab of a bulky range scan: up to the DMA
// chunk budget of encoded records (§V-E step 5-6: 512 KB DMA units).
type ScanChunk struct {
	Entries []memtable.Entry
	Bytes   int
}

// BulkScan runs the iterator-based bulky range scan the rollback uses:
// it bulk-reads every run page up front (the fast path the paper builds
// in hardware), merges on the controller core, and emits chunks of at
// most chunkSize encoded bytes via emit.
func (d *DevLSM) BulkScan(r *vclock.Runner, chunkSize int, emit func(ScanChunk)) {
	mem := d.mem
	runs := append([]*run(nil), d.runs...)
	d.stats.Scans++

	// Step 4-5: read the entire Dev-LSM's pages with full die parallelism.
	var lpns []int
	for _, ru := range runs {
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

	var chunk ScanChunk
	cpuPending := 0
	for merged.SeekToFirst(); merged.Valid(); merged.Next() {
		e := merged.Entry()
		copied := memtable.Entry{
			Key:   append([]byte(nil), e.Key...),
			Value: append([]byte(nil), e.Value...),
			Seq:   e.Seq,
			Kind:  e.Kind,
		}
		sz := len(e.Key) + len(e.Value) + 9
		chunk.Entries = append(chunk.Entries, copied)
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

// KeyRange returns the smallest and largest buffered user keys (step 3 of
// the rollback: "identify the range of the entire Dev-LSM"). ok is false
// when empty.
func (d *DevLSM) KeyRange() (smallest, largest []byte, ok bool) {
	update := func(s, l []byte) {
		if !ok {
			smallest, largest, ok = s, l, true
			return
		}
		if bytes.Compare(s, smallest) < 0 {
			smallest = s
		}
		if bytes.Compare(l, largest) > 0 {
			largest = l
		}
	}
	if d.mem.Count() > 0 {
		mit := d.mem.NewIterator()
		mit.SeekToFirst()
		first := append([]byte(nil), mit.Entry().Key...)
		// Largest key requires a full walk of the memtable; it is small.
		last := first
		for ; mit.Valid(); mit.Next() {
			last = mit.Entry().Key
		}
		update(first, append([]byte(nil), last...))
	}
	for _, ru := range d.runs {
		update(ru.smallest, ru.largest)
	}
	return smallest, largest, ok
}
