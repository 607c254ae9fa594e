// Package fs is the host-side file layer KVACCEL's Main-LSM runs on — the
// stand-in for ext4 on the block interface of the dual-interface SSD.
//
// Files are page-granular extents over a BlockDevice. The fs holds the
// authoritative file bytes (the device layers below spend virtual time but
// do not duplicate payload storage), so reads return real data while every
// I/O is charged to the simulated block path: PCIe transfer + FTL + NAND.
package fs

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"kvaccel/internal/faults"
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
	free  []int // free page LPNs, LIFO
	// reserved marks pages handed out by ReservePages but not yet bound
	// to a file (compaction-offload output ranges). They are host-side
	// bookkeeping only, so a crash returns them to the free pool.
	reserved pageSet

	// Page cache state. cacheCap <= 0 means unbounded (the default).
	cacheCap int // pages
	cached   pageLRU
}

// pageSet is a set of LPNs as a bitset over the device's pages, allocated
// by the first add.
type pageSet struct {
	size int // pages on the device
	bits []uint64
}

func (s *pageSet) has(lpn int) bool {
	return s.bits != nil && s.bits[lpn/64]&(1<<(lpn%64)) != 0
}

func (s *pageSet) add(lpn int) {
	if s.bits == nil {
		s.bits = make([]uint64, (s.size+63)/64)
	}
	s.bits[lpn/64] |= 1 << (lpn % 64)
}

func (s *pageSet) remove(lpn int) {
	if s.bits != nil {
		s.bits[lpn/64] &^= 1 << (lpn % 64)
	}
}

// drain empties the set, calling fn with each member in ascending order.
func (s *pageSet) drain(fn func(lpn int)) {
	for w, word := range s.bits {
		for ; word != 0; word &= word - 1 {
			fn(w*64 + bits.TrailingZeros64(word))
		}
		s.bits[w] = 0
	}
}

// pageLRU is the page cache's residency list: which LPNs are resident and
// in what order they were last used. It is an intrusive doubly linked
// list threaded through two slices indexed by LPN, most recent at the
// head, so marking a page resident or touching it allocates nothing. A
// link holds lpn+1, which makes zeroed slices the empty list; they are
// allocated, sized to the device, by the first insert.
type pageLRU struct {
	size       int // pages on the device
	prev, next []int32
	head, tail int32
	n          int // resident pages
}

func (l *pageLRU) contains(lpn int) bool {
	return l.n > 0 && (l.prev[lpn] != 0 || l.head == int32(lpn+1))
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
	if l.next == nil {
		l.prev, l.next = make([]int32, l.size), make([]int32, l.size)
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

// extent is one immutable run of a file's bytes — a buffer a writer handed
// over, stored once and never copied, joined or modified afterwards — with
// the file offset at which it ends. A file is a rope of them.
type extent struct {
	buf []byte
	end int
}

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
// the extent when one holds them all, capacity clipped so that nothing
// that grows it can write into the extent, else a fresh buffer. Extents
// are never written, so either way the bytes never change.
func readRope(exts []extent, off, n int) []byte {
	if n == 0 {
		return nil
	}
	i := sort.Search(len(exts), func(i int) bool { return exts[i].end > off })
	piece := exts[i].buf[off-(exts[i].end-len(exts[i].buf)):]
	if len(piece) >= n {
		return piece[:n:n]
	}
	// Across extents: bytes.Join, like append, clears nothing first.
	parts := append(make([][]byte, 0, 8), piece)
	for n -= len(piece); n > 0; n -= len(piece) {
		i++
		piece = exts[i].buf[:min(n, len(exts[i].buf))]
		parts = append(parts, piece)
	}
	return bytes.Join(parts, nil)
}

// New formats a file system over dev with an unbounded page cache.
func New(dev BlockDevice) *FileSystem {
	n := dev.Pages()
	if n > math.MaxInt32-1 {
		panic(fmt.Sprintf("fs: %d pages: the page cache links LPNs as int32", n))
	}
	fs := &FileSystem{dev: dev, files: make(map[string]*file),
		reserved: pageSet{size: n}, cached: pageLRU{size: n}}
	fs.free = make([]int, n)
	for i := range fs.free {
		fs.free[i] = n - 1 - i
	}
	return fs
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

// PageSize returns the device page size.
func (fs *FileSystem) PageSize() int { return fs.dev.PageSize() }

// FreeBytes returns the unallocated capacity.
func (fs *FileSystem) FreeBytes() int64 {
	return int64(len(fs.free)) * int64(fs.dev.PageSize())
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
	if n > len(fs.free) {
		return nil, fmt.Errorf("fs: out of space: need %d pages, have %d", n, len(fs.free))
	}
	pages := make([]int, n)
	copy(pages, fs.free[len(fs.free)-n:])
	fs.free = fs.free[:len(fs.free)-n]
	return pages, nil
}

// grow extends f to n pages, popping them one by one; when the
// device cannot supply them all it leaves f and the free list untouched.
func (fs *FileSystem) grow(f *file, n int) error {
	if n-len(f.pages) > len(fs.free) {
		return fmt.Errorf("fs: out of space: need %d pages, have %d", n-len(f.pages), len(fs.free))
	}
	for len(f.pages) < n {
		f.pages = append(f.pages, fs.free[len(fs.free)-1])
		fs.free = fs.free[:len(fs.free)-1]
	}
	return nil
}

// ownImage makes a buffer handed over by a caller — a whole image or an
// appended chunk — the file system's own. The capacity is clipped, so
// nothing that grows a slice of it can write into memory the caller can
// still see; and a buffer with more than an eighth of slack — the short
// last output of a merge, built in a buffer sized for a full table — is
// copied into one of its own size, so files pin what they hold, no more.
func ownImage(data []byte) []byte {
	if cap(data)-len(data) > len(data)/8 {
		tight := make([]byte, len(data))
		copy(tight, data)
		return tight
	}
	return data[:len(data):len(data)]
}

// newFile is a file over pages holding an image handed over whole, the
// one-extent case of the rope.
func newFile(name string, pages []int, data []byte) *file {
	f := &file{name: name, pages: pages}
	f.exts = f.one[:0]
	if len(data) > 0 {
		f.exts = append(f.exts, extent{ownImage(data), len(data)})
	}
	return f
}

// WriteFile creates (or replaces) a file with the given contents, spending
// the block-path write time for every page it covers.
//
// The file system takes ownership of data: it becomes the file's bytes
// without a copy, so the caller must not modify it after the call (reading
// it is fine; nothing here ever writes to it). This holds for every
// caller — tables, manifests, CURRENT, value-log rewrites.
func (fs *FileSystem) WriteFile(r *vclock.Runner, name string, data []byte) error {
	return fs.writeFile(r, name, data, false)
}

// WriteFileBackground is WriteFile with the device writes tagged as
// background maintenance traffic (flush and compaction output); identical
// semantics (ownership of data included) and timing, split accounting at
// the queueing layer.
func (fs *FileSystem) WriteFileBackground(r *vclock.Runner, name string, data []byte) error {
	return fs.writeFile(r, name, data, true)
}

func (fs *FileSystem) writeFile(r *vclock.Runner, name string, data []byte, background bool) error {
	ps := fs.dev.PageSize()
	nPages := max(1, (len(data)+ps-1)/ps) // empty files still occupy a metadata page
	old, replacing := fs.files[name]
	if replacing && nPages <= len(fs.free)+len(old.pages) {
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
// becomes an extent of the file without a copy, so the caller must not
// modify one after the call.
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
		f = newFile(name, nil, nil)
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
			f.exts = append(f.exts, extent{ownImage(c), size})
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
// inside one extent comes back as a view of it, which never changes and
// stays valid after the file is replaced or removed. Copy them to modify
// them, or to keep them past their use, since a view pins the buffer it
// points into.
func (fs *FileSystem) ReadAt(r *vclock.Runner, name string, off, length int) ([]byte, error) {
	return fs.readAt(r, name, off, length, false)
}

// ReadAtBackground is ReadAt with the device reads tagged as background
// maintenance traffic (compaction input scans, offload validation
// read-back); identical semantics and timing, split accounting at the
// queueing layer.
func (fs *FileSystem) ReadAtBackground(r *vclock.Runner, name string, off, length int) ([]byte, error) {
	return fs.readAt(r, name, off, length, true)
}

func (fs *FileSystem) readAt(r *vclock.Runner, name string, off, length int, background bool) ([]byte, error) {
	ps := fs.dev.PageSize()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("fs: %s: no such file", name)
	}
	if off < 0 || length < 0 || off+length > f.size() {
		return nil, fmt.Errorf("fs: %s: read [%d,%d) out of bounds (size %d)", name, off, off+length, f.size())
	}
	var misses []int
	if length > 0 {
		first, last := off/ps, (off+length-1)/ps
		misses = fs.splitCached(f.pages[first : last+1])
		fs.cacheInsert(misses)
	}
	out := readRope(f.exts, off, length)
	if err := fs.readPages(r, misses, background); err != nil {
		return nil, err
	}
	return out, nil
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
	fs.free = append(fs.free, f.pages...)
	return f.pages
}

// Extents returns a copy of the page LPNs backing a file, in file order.
// It is host-side metadata (the inode's block map) and spends no device
// time; the compaction-offload scheduler hands these to the device so it
// can read the file near-data.
func (fs *FileSystem) Extents(name string) ([]int, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("fs: %s: no such file", name)
	}
	return append([]int(nil), f.pages...), nil
}

// MediaRead returns a file's device-acknowledged bytes, read-only as
// ReadAt's are, without spending any host-path time. It models the device
// reading its own media: the fs holds the authoritative payload for the
// whole stack, so device-side consumers (the offload merge executor) fetch
// bytes here while charging NAND time through the FTL separately. Host
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

// ReservePages allocates n pages without binding them to a file — the
// output namespace range a submit-merge command describes. Reserved
// pages are excluded from other allocations until AdoptFile binds them
// or ReleasePages returns them; a crash releases them implicitly (the
// reservation is host DRAM state).
func (fs *FileSystem) ReservePages(n int) ([]int, error) {
	pages, err := fs.alloc(n)
	if err != nil {
		return nil, err
	}
	for _, p := range pages {
		fs.reserved.add(p)
	}
	return pages, nil
}

// ReleasePages returns reserved pages to the free pool (offload abort or
// fallback). Pages not currently reserved are ignored.
func (fs *FileSystem) ReleasePages(lpns []int) {
	for _, p := range lpns {
		if fs.reserved.has(p) {
			fs.reserved.remove(p)
			fs.free = append(fs.free, p)
		}
	}
}

// AdoptFile binds reserved pages the device already programmed to a new
// file name. No host I/O is spent and the pages are NOT inserted into
// the page cache: the host never saw these bytes, so its first read of
// the file (checksum validation) pays the block path like any cold read.
// The file is durable immediately — the device acknowledged the programs
// before completing the merge command.
//
// As with WriteFile, the file system takes ownership of data: it becomes
// the file's bytes without a copy and the caller must not modify it
// afterwards. pages is copied.
func (fs *FileSystem) AdoptFile(name string, pages []int, data []byte) error {
	ps := fs.dev.PageSize()
	need := (len(data) + ps - 1) / ps
	if need == 0 {
		need = 1
	}
	if _, ok := fs.files[name]; ok {
		return fmt.Errorf("fs: %s: adopt over existing file", name)
	}
	if len(pages) != need {
		return fmt.Errorf("fs: %s: adopt with %d pages, need %d", name, len(pages), need)
	}
	for _, p := range pages {
		if !fs.reserved.has(p) {
			return fmt.Errorf("fs: %s: adopt of unreserved page %d", name, p)
		}
	}
	for _, p := range pages {
		fs.reserved.remove(p)
	}
	f := newFile(name, append([]int(nil), pages...), data)
	f.stable, f.durable = f.exts, true
	fs.files[name] = f
	return nil
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
	fs.reserved.drain(func(p int) { fs.free = append(fs.free, p) })
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
	// Host DRAM is gone: the page cache and any in-flight offload output
	// reservations (pages the device may have programmed but no file or
	// manifest ever referenced — physical garbage the FTL remaps later).
	fs.cached = pageLRU{size: fs.cached.size}
	fs.reserved.drain(func(p int) { fs.free = append(fs.free, p) })
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
				tail := append([]byte(nil), readRope(f.exts, acked, frag)...)
				plan.CorruptByte(tail)
				keep = append(keep, extent{tail, acked + frag})
			}
		}
		f.exts, f.stable, f.torn = keep, keep, false
		need := max(1, (f.size()+ps-1)/ps) // empty files still occupy a metadata page
		if need < len(f.pages) {
			fs.free = append(fs.free, f.pages[need:]...)
			f.pages = f.pages[:need]
		}
		if fs.grow(f, need) != nil {
			// Out of space reverting: drop the file entirely rather than
			// present an image the device cannot hold.
			fs.freeFile(f)
		}
	}
}
