// Package fs is the host-side file layer KVACCEL's Main-LSM runs on — the
// stand-in for ext4 on the block interface of the dual-interface SSD.
//
// Files are page-granular extents over a BlockDevice. The fs is the one
// holder of the file bytes (the device layers below spend virtual time but
// store no payload), each extent as the writer handed it over: a table's
// folded payload (package fold) or a log's literal chunks. Reads return
// the flat bytes — a view where they lie in one literal span, else
// materialised — while every I/O is charged to the simulated block path
// by logical length: PCIe transfer + FTL + NAND.
package fs

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"

	"kvaccel/internal/faults"
	"kvaccel/internal/fold"
	"kvaccel/internal/freelist"
	"kvaccel/internal/vclock"
)

// BlockDevice is the block-interface contract the SSD exposes: page-sized
// logical reads and writes that spend virtual time.
type BlockDevice interface {
	// WritePages spends the time to write the given logical pages. A
	// non-nil error means the pages are not durable (media error, severed
	// device); the write may have partially reached media.
	WritePages(r *vclock.Runner, lpns []int) error
	// ReadPages spends the time to read the given logical pages.
	ReadPages(r *vclock.Runner, lpns []int) error
	// TrimPages invalidates pages. TRIM is a real command (NVMe Dataset
	// Management): it crosses the interconnect and pays command
	// processing, though no media time.
	TrimPages(r *vclock.Runner, lpns []int) error
	// PageSize returns the logical page size in bytes.
	PageSize() int
	// Pages returns the number of addressable logical pages.
	Pages() int
}

// backgroundBlockDevice is the optional capability a device may implement
// to have maintenance I/O tagged as background at the queueing layer
// (ssd.BlockNS does). Devices without it serve background calls through
// the ordinary foreground methods — the accounting split is best-effort,
// never a functional requirement.
type backgroundBlockDevice interface {
	ReadPagesBackground(r *vclock.Runner, lpns []int) error
	WritePagesBackground(r *vclock.Runner, lpns []int) error
}

// readPages dispatches a page read at the requested class, falling back
// to the foreground path when the device lacks the background capability.
func (fs *FileSystem) readPages(r *vclock.Runner, lpns []int, background bool) error {
	if background {
		if bd, ok := fs.dev.(backgroundBlockDevice); ok {
			return bd.ReadPagesBackground(r, lpns)
		}
	}
	return fs.dev.ReadPages(r, lpns)
}

// writePages is readPages for writes.
func (fs *FileSystem) writePages(r *vclock.Runner, lpns []int, background bool) error {
	if background {
		if bd, ok := fs.dev.(backgroundBlockDevice); ok {
			return bd.WritePagesBackground(r, lpns)
		}
	}
	return fs.dev.WritePages(r, lpns)
}

// FileSystem allocates device pages to named files.
//
// Reads go through an OS-page-cache model: pages the host has written or
// previously read are served from memory with no device time, exactly as
// on the paper's 384 GB host where the whole working set stays resident.
// A finite cache (SetPageCacheBytes) evicts LRU pages and makes cold
// reads pay the block path again.
type FileSystem struct {
	dev BlockDevice

	files map[string]*file
	free  freelist.Stack // free page LPNs

	// Page cache state. cacheCap <= 0 means unbounded (the default).
	cacheCap int // pages
	cached   pageLRU
}

// pageLRU is the page cache's residency list: which LPNs are resident and
// in what order they were last used. It is an intrusive doubly linked
// list threaded through two slices indexed by LPN, most recent at the
// head, so marking a page resident or touching it allocates nothing. A
// link holds lpn+1, which makes zeroed slices the empty list; they grow,
// at least doubling, to cover the highest LPN cached.
type pageLRU struct {
	size       int // pages on the device
	prev, next []int32
	head, tail int32
	n          int // resident pages
}

// minLinks is the fewest pages the links cover once allocated, so a file
// system's first few megabytes grow them once rather than a dozen times.
const minLinks = 4096

func (l *pageLRU) contains(lpn int) bool {
	return l.n > 0 && lpn < len(l.prev) && (l.prev[lpn] != 0 || l.head == int32(lpn+1))
}

// touch makes a resident page the most recently used and reports whether
// the page was resident.
func (l *pageLRU) touch(lpn int) bool {
	if !l.contains(lpn) {
		return false
	}
	l.remove(lpn)
	l.pushFront(lpn)
	return true
}

// pushFront makes an absent page the most recently used.
func (l *pageLRU) pushFront(lpn int) {
	if lpn >= len(l.next) {
		n := min(max(lpn+1, 2*len(l.next), minLinks), l.size)
		l.prev = append(l.prev, make([]int32, n-len(l.prev))...)
		l.next = append(l.next, make([]int32, n-len(l.next))...)
	}
	id := int32(lpn + 1)
	l.prev[lpn], l.next[lpn] = 0, l.head
	if l.head != 0 {
		l.prev[l.head-1] = id
	} else {
		l.tail = id
	}
	l.head = id
	l.n++
}

// remove unlinks a resident page.
func (l *pageLRU) remove(lpn int) {
	p, n := l.prev[lpn], l.next[lpn]
	if p != 0 {
		l.next[p-1] = n
	} else {
		l.head = n
	}
	if n != 0 {
		l.prev[n-1] = p
	} else {
		l.tail = p
	}
	l.prev[lpn], l.next[lpn] = 0, 0
	l.n--
}

// extent is one immutable run of a file's bytes — a payload a writer
// handed over, stored once and never copied, joined or modified
// afterwards — with the file offset at which it ends. A file is a rope of
// them.
type extent struct {
	p   fold.Payload
	end int
}

func (e *extent) start() int { return e.end - e.p.Len() }

type file struct {
	name  string
	pages []int
	exts  []extent // the page-cache view, in file order; none is empty
	// one is where exts starts out, so a file written whole — every table,
	// every manifest — is one allocation with its rope.
	one [1]extent

	// Crash-consistency model. stable is what the device has acknowledged,
	// the only bytes guaranteed to survive a power cut: a prefix of exts
	// (an acknowledged write ends on an extent boundary), or the previous
	// image while a WriteFile replace is unacknowledged. torn marks a
	// failed append whose tail may have partially reached media; durable
	// is false until the first acknowledged write.
	stable  []extent
	durable bool
	torn    bool
}

func ropeLen(exts []extent) int {
	if len(exts) == 0 {
		return 0
	}
	return exts[len(exts)-1].end
}

func (f *file) size() int { return ropeLen(f.exts) }

// readRope returns bytes [off, off+n) of a rope that holds them: a view of
// an extent's literal span when one holds them all, capacity clipped so
// that nothing that grows it can write into the extent, else materialised
// into a fresh buffer. Extents are never written, so a view's bytes never
// change.
func readRope(exts []extent, off, n int) []byte {
	if n == 0 {
		return nil
	}
	i := sort.Search(len(exts), func(i int) bool { return exts[i].end > off })
	at := off - exts[i].start()
	piece, lit := exts[i].p.View(at, min(n, exts[i].p.Len()-at))
	if lit && len(piece) == n {
		return piece
	}
	// Across extents of literal bytes, as a log's are: bytes.Join, like
	// append, clears nothing first.
	parts := append(make([][]byte, 0, 8), piece)
	for left := n - len(piece); lit && left > 0; left -= len(piece) {
		i++
		piece, lit = exts[i].p.View(0, min(left, exts[i].p.Len()))
		parts = append(parts, piece)
	}
	if lit {
		return bytes.Join(parts, nil)
	}
	out := make([]byte, n)
	fillRope(out, exts, off)
	return out
}

// fillRope materialises bytes [off, off+len(dst)) of a rope into dst.
func fillRope(dst []byte, exts []extent, off int) {
	i := sort.Search(len(exts), func(i int) bool { return exts[i].end > off })
	for ; len(dst) > 0; i++ {
		n := min(len(dst), exts[i].end-off)
		exts[i].p.Fill(dst[:n], off-exts[i].start())
		dst, off = dst[n:], off+n
	}
}

// New formats a file system over dev with an unbounded page cache.
func New(dev BlockDevice) *FileSystem {
	n := dev.Pages()
	if n > math.MaxInt32-1 {
		panic(fmt.Sprintf("fs: %d pages: the page cache links LPNs as int32", n))
	}
	return &FileSystem{dev: dev, files: make(map[string]*file), free: freelist.New(0, n), cached: pageLRU{size: n}}
}

// SetPageCacheBytes bounds the page cache; 0 or negative restores the
// unbounded default. Shrinking evicts LRU pages immediately.
func (fs *FileSystem) SetPageCacheBytes(bytes int64) {
	if bytes <= 0 {
		fs.cacheCap = 0
		return
	}
	fs.cacheCap = int(bytes / int64(fs.dev.PageSize()))
	if fs.cacheCap < 1 {
		fs.cacheCap = 1
	}
	fs.evict()
}

// cacheInsert marks lpns resident, evicting LRU pages over capacity.
func (fs *FileSystem) cacheInsert(lpns []int) {
	for _, lpn := range lpns {
		if !fs.cached.touch(lpn) {
			fs.cached.pushFront(lpn)
		}
	}
	fs.evict()
}

func (fs *FileSystem) evict() {
	if fs.cacheCap <= 0 {
		return
	}
	for fs.cached.n > fs.cacheCap {
		fs.cached.remove(int(fs.cached.tail - 1))
	}
}

// cacheDrop forgets pages (on file deletion).
func (fs *FileSystem) cacheDrop(lpns []int) {
	for _, lpn := range lpns {
		if fs.cached.contains(lpn) {
			fs.cached.remove(lpn)
		}
	}
}

// splitCached partitions lpns into (hits kept out) and misses that
// must pay device time, touching hit pages' recency.
func (fs *FileSystem) splitCached(lpns []int) (misses []int) {
	for _, lpn := range lpns {
		if !fs.cached.touch(lpn) {
			misses = append(misses, lpn)
		}
	}
	return misses
}

// CachedPages returns the number of resident pages (diagnostics).
func (fs *FileSystem) CachedPages() int {
	return fs.cached.n
}

// FreeBytes returns the unallocated capacity.
func (fs *FileSystem) FreeBytes() int64 {
	return int64(fs.free.Len()) * int64(fs.dev.PageSize())
}

// UsedBytes returns the total size of all files.
func (fs *FileSystem) UsedBytes() int64 {
	var n int64
	for _, f := range fs.files {
		n += int64(f.size())
	}
	return n
}

func (fs *FileSystem) alloc(n int) ([]int, error) {
	if n > fs.free.Len() {
		return nil, fmt.Errorf("fs: out of space: need %d pages, have %d", n, fs.free.Len())
	}
	return fs.free.Take(make([]int, 0, n), n), nil
}

// grow extends f to n pages, popping them one by one; when the
// device cannot supply them all it leaves f and the free list untouched.
func (fs *FileSystem) grow(f *file, n int) error {
	if n-len(f.pages) > fs.free.Len() {
		return fmt.Errorf("fs: out of space: need %d pages, have %d", n-len(f.pages), fs.free.Len())
	}
	for len(f.pages) < n {
		f.pages = append(f.pages, fs.free.Pop())
	}
	return nil
}

// newFile is a file over pages holding an image handed over whole, the
// one-extent case of the rope. The image becomes the file system's own
// (fold.Payload.Tight): files pin what they hold, no more, and nothing
// that grows a slice of it can write into memory the caller can still
// see.
func newFile(name string, pages []int, data fold.Payload) *file {
	f := &file{name: name, pages: pages}
	f.exts = f.one[:0]
	if data.Len() > 0 {
		f.exts = append(f.exts, extent{data.Tight(), data.Len()})
	}
	return f
}

// WriteFile creates (or replaces) a file with the given contents, spending
// the block-path write time for every page of its length.
//
// The file system takes ownership of data: it becomes the file's bytes
// without a copy, so the caller must not modify it after the call (reading
// it is fine; nothing here ever writes to it). This holds for every
// caller — tables, manifests, CURRENT, value-log rewrites; plain bytes
// are passed as fold.Literal.
func (fs *FileSystem) WriteFile(r *vclock.Runner, name string, data fold.Payload) error {
	return fs.writeFile(r, name, data, false)
}

// WriteFileBackground is WriteFile with the device writes tagged as
// background maintenance traffic (flush and compaction output); identical
// semantics (ownership of data included) and timing, split accounting at
// the queueing layer.
func (fs *FileSystem) WriteFileBackground(r *vclock.Runner, name string, data fold.Payload) error {
	return fs.writeFile(r, name, data, true)
}

func (fs *FileSystem) writeFile(r *vclock.Runner, name string, data fold.Payload, background bool) error {
	ps := fs.dev.PageSize()
	nPages := max(1, (data.Len()+ps-1)/ps) // empty files still occupy a metadata page
	old, replacing := fs.files[name]
	if replacing && nPages <= fs.free.Len()+len(old.pages) {
		// The old image's pages go back first, so the new image lands on
		// them as it always has, and leave the page cache with it; a replace
		// that does not fit even so fails below with the old file whole.
		fs.cacheDrop(fs.freeFile(old))
	}
	pages, err := fs.alloc(nPages)
	if err != nil {
		return err
	}
	f := newFile(name, pages, data)
	if replacing {
		// WriteFile models an atomic replace (write + fsync + rename): until
		// the device acknowledges the new image, a crash reverts to the old.
		f.stable, f.durable = old.stable, old.durable
	}
	fs.files[name] = f
	fs.cacheInsert(pages)
	if err := fs.writePages(r, pages, background); err != nil {
		// Not durable: a crash reverts to the previous image (if any).
		f.torn = false
		return err
	}
	f.stable, f.durable, f.torn = f.exts, true, false
	return nil
}

// logExtents is the room an appended file's extent list is grown by: a log
// (WAL or value-log segment) is some 25 chunks, so one allocation per log.
const logExtents = 32

// Append extends a file (creating it if absent) with the chunks, in
// order, as one write: the device sees a single command covering every
// page touched, exactly as if the chunks had been joined first. Partial
// trailing pages are rewritten, as a page-granular device requires.
//
// As with WriteFile, the file system takes ownership of the chunks: each
// becomes a literal extent of the file without a copy, so the caller must
// not modify one after the call. Logs are not folded: they die at the
// next flush, and their readers take values one at a time.
func (fs *FileSystem) Append(r *vclock.Runner, name string, chunks ...[]byte) error {
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if total == 0 {
		return nil
	}
	ps := fs.dev.PageSize()
	f, ok := fs.files[name]
	if !ok {
		f = newFile(name, nil, fold.Payload{})
	}
	// The page holding the previous tail is rewritten too if it was partial.
	first, size := len(f.pages), f.size()
	if size%ps != 0 && size > 0 {
		first = (size - 1) / ps
	}
	// Pages before bytes: a full device refuses the append with the file,
	// and the name if it is new, as they were.
	if err := fs.grow(f, (size+total+ps-1)/ps); err != nil {
		return err
	}
	fs.files[name] = f
	if len(f.exts)+len(chunks) > cap(f.exts) {
		f.exts = slices.Grow(f.exts, max(len(chunks), logExtents))
	}
	for _, c := range chunks {
		if len(c) > 0 {
			size += len(c)
			f.exts = append(f.exts, extent{fold.Literal(c).Tight(), size})
		}
	}
	touch := append([]int(nil), f.pages[first:]...) // f.pages may grow while the device call parks
	fs.cacheInsert(touch)
	if err := fs.dev.WritePages(r, touch); err != nil {
		// The appended tail may be partially on media: a crash keeps a
		// seeded fragment of it past the last acknowledged prefix.
		f.torn = true
		return err
	}
	f.stable, f.durable, f.torn = f.exts, true, false
	return nil
}

// ReadAt reads length bytes at offset off, spending read time for each
// covered page.
//
// The bytes are read-only and may alias the file system's memory: a range
// inside one literal span of an extent — an index, a filter, a footer, a
// block of short values, a log record — comes back as a view of it, which
// never changes and stays valid after the file is replaced or removed.
// Copy them to modify them, or to keep them past their use, since a view
// pins the buffer it points into. Any other range is materialised into a
// fresh buffer.
func (fs *FileSystem) ReadAt(r *vclock.Runner, name string, off, length int) ([]byte, error) {
	f, err := fs.span(name, off, length)
	if err != nil {
		return nil, err
	}
	misses := fs.charge(f, off, length)
	out := readRope(f.exts, off, length)
	if err := fs.readPages(r, misses, false); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadExtentBackground spends what ReadAt spends on [off, off+length),
// with the device reads tagged as background maintenance traffic
// (compaction input scans, split accounting at the queueing layer), and
// returns instead of the bytes the payload of the extent that holds them
// and the file offset it starts at: a reader that takes blocks of the
// range one at a time views or materialises each itself. A table is one
// extent; a range across extents is an error.
func (fs *FileSystem) ReadExtentBackground(r *vclock.Runner, name string, off, length int) (fold.Payload, int, error) {
	f, err := fs.span(name, off, length)
	if err != nil {
		return fold.Payload{}, 0, err
	}
	e := extent{end: off} // an empty range: an empty payload, at off
	if length > 0 {
		if e = f.exts[sort.Search(len(f.exts), func(i int) bool { return f.exts[i].end > off })]; off+length > e.end {
			return fold.Payload{}, 0, fmt.Errorf("fs: %s: background read [%d,%d) crosses extents", name, off, off+length)
		}
	}
	if err := fs.readPages(r, fs.charge(f, off, length), true); err != nil {
		return fold.Payload{}, 0, err
	}
	return e.p, e.start(), nil
}

// span returns the named file if [off, off+length) lies inside it.
func (fs *FileSystem) span(name string, off, length int) (*file, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("fs: %s: no such file", name)
	}
	if off < 0 || length < 0 || off+length > f.size() {
		return nil, fmt.Errorf("fs: %s: read [%d,%d) out of bounds (size %d)", name, off, off+length, f.size())
	}
	return f, nil
}

// charge makes the pages [off, off+length) of f covers resident and
// returns those that were not, which the read pays device time for.
func (fs *FileSystem) charge(f *file, off, length int) (misses []int) {
	if length > 0 {
		ps := fs.dev.PageSize()
		misses = fs.splitCached(f.pages[off/ps : (off+length-1)/ps+1])
		fs.cacheInsert(misses)
	}
	return misses
}

// ReadFile reads a whole file; the bytes are read-only, as ReadAt's are.
func (fs *FileSystem) ReadFile(r *vclock.Runner, name string) ([]byte, error) {
	size, err := fs.Size(name)
	if err != nil {
		return nil, err
	}
	return fs.ReadAt(r, name, 0, size)
}

// Size returns a file's length in bytes.
func (fs *FileSystem) Size(name string) (int, error) {
	f, ok := fs.files[name]
	if !ok {
		return 0, fmt.Errorf("fs: %s: no such file", name)
	}
	return f.size(), nil
}

// Exists reports whether the file is present.
func (fs *FileSystem) Exists(name string) bool {
	_, ok := fs.files[name]
	return ok
}

// Remove deletes a file, trimming its pages on the device; r pays the
// TRIM command cost.
func (fs *FileSystem) Remove(r *vclock.Runner, name string) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("fs: %s: no such file", name)
	}
	pages := fs.freeFile(f)
	fs.cacheDrop(pages)
	return fs.dev.TrimPages(r, pages)
}

// freeFile detaches f and returns its pages to the pool.
func (fs *FileSystem) freeFile(f *file) []int {
	delete(fs.files, f.name)
	fs.free.Push(f.pages...)
	return f.pages
}

// Extents returns a copy of the page LPNs backing a file, in file order.
// It is host-side metadata (the inode's block map) and spends no device
// time; tests use it to see which pages a file holds.
func (fs *FileSystem) Extents(name string) ([]int, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("fs: %s: no such file", name)
	}
	return append([]int(nil), f.pages...), nil
}

// MediaRead returns a file's device-acknowledged bytes, read-only as
// ReadAt's are (a view, or materialised), without spending any device
// time: what a power cut would leave on media. Tests use it to check what survives a crash; engine
// code must use ReadAt/ReadFile, which pay the block path.
func (fs *FileSystem) MediaRead(name string) ([]byte, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("fs: %s: no such file", name)
	}
	if !f.durable {
		return nil, fmt.Errorf("fs: %s: not on media yet", name)
	}
	return readRope(f.stable, 0, ropeLen(f.stable)), nil
}

// Format drops every file, returning the namespace to empty. Pages are
// freed at the file-system level without a device trim pass, so Format
// needs no runner: its caller is a fresh open discarding a dead
// incarnation's files (no manifest ever pointed at them, so they carry
// no durability obligations), and the physical pages are remapped when
// new writes land on them.
func (fs *FileSystem) Format() {
	for _, name := range fs.List() {
		pages := fs.freeFile(fs.files[name])
		fs.cacheDrop(pages)
	}
}

// List returns the names of all files in lexical order. Every walk over
// the files goes in this order, not the map's: what a walk does — which
// pages it frees first, so where the next writes land, and which file a
// seeded fault tears — must not change from run to run.
func (fs *FileSystem) List() []string {
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Crash applies power-cut semantics to the whole file system: the page
// cache (host DRAM) is lost, never-acknowledged files vanish, every
// surviving file reverts to its last device-acknowledged image, and a
// file with a torn append keeps a plan-seeded fragment of the unacked
// tail — with one corrupted byte, so recovery must trust checksums, not
// framing. Call it between simulation phases (no runners in flight).
func (fs *FileSystem) Crash(plan *faults.Plan) {
	ps := fs.dev.PageSize()
	// Host DRAM is gone, and the page cache with it.
	fs.cached = pageLRU{size: fs.cached.size}
	for _, name := range fs.List() {
		f := fs.files[name]
		if !f.durable {
			fs.freeFile(f)
			continue
		}
		// Extents are immutable, so the surviving image shares them.
		keep := f.stable
		if acked := ropeLen(keep); f.torn && f.size() > acked {
			if frag := plan.TornLength(f.size() - acked); frag > 0 {
				// A copy: the flipped bit must not reach the extent.
				tail := make([]byte, frag)
				fillRope(tail, f.exts, acked)
				plan.CorruptByte(tail)
				keep = append(keep, extent{fold.Literal(tail), acked + frag})
			}
		}
		f.exts, f.stable, f.torn = keep, keep, false
		need := max(1, (f.size()+ps-1)/ps) // empty files still occupy a metadata page
		if need < len(f.pages) {
			fs.free.Push(f.pages[need:]...)
			f.pages = f.pages[:need]
		}
		if fs.grow(f, need) != nil {
			// Out of space reverting: drop the file entirely rather than
			// present an image the device cannot hold.
			fs.freeFile(f)
		}
	}
}
