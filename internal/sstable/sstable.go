// Package sstable implements the Sorted String Table file format the
// Main-LSM stores on the block interface: data blocks of internal-key
// records, a block index, a Bloom filter, and a checksummed footer. The
// layout follows LevelDB/RocksDB's table shape closely enough that every
// read path the paper's experiments exercise (point Get with bloom skip,
// range iterators for scans and compaction merges) behaves the same way.
package sstable

import (
	"bytes"
	"errors"
	"fmt"

	"kvaccel/internal/bloom"
	"kvaccel/internal/encoding"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// Magic identifies an SST footer.
const Magic uint32 = 0x4b564143 // "KVAC"

// footerSize is the fixed encoded footer length.
const footerSize = 4 * 7

// ErrCorrupt reports a structurally invalid table.
var ErrCorrupt = errors.New("sstable: corrupt table")

// Meta summarizes a built table.
type Meta struct {
	Smallest []byte // smallest user key
	Largest  []byte // largest user key
	Entries  int
	Size     int // encoded file size in bytes
}

// BuilderOptions tunes table construction.
type BuilderOptions struct {
	BlockSize int // target data-block size in bytes
	BloomBits int // bloom bits per key; 0 disables the filter
}

// DefaultBuilderOptions mirrors RocksDB defaults (4 KiB blocks, 10-bit
// bloom).
func DefaultBuilderOptions() BuilderOptions {
	return BuilderOptions{BlockSize: 4096, BloomBits: bloom.DefaultBitsPerKey}
}

// Builder accumulates internal-key records in sorted order and encodes the
// table.
type Builder struct {
	opt        BuilderOptions
	buf        []byte // file bytes so far (data blocks)
	sizeHint   int    // expected bytes of data blocks; see SizeHint
	block      []byte // current data block
	index      []byte // index block under construction
	blockFirst []byte
	keys       [][]byte // user keys for the bloom filter
	meta       Meta
	lastKey    []byte
	lastSeq    uint64
	started    bool
}

// NewBuilder returns an empty builder.
func NewBuilder(opt BuilderOptions) *Builder {
	if opt.BlockSize <= 0 {
		opt.BlockSize = 4096
	}
	return &Builder{opt: opt}
}

// SizeHint tells the builder how many bytes of data blocks (records with
// their headers) to expect, so the file buffer is allocated once, when
// the first block is flushed, instead of growing by doubling. The builder
// adds room for index, filter and footer. A low or missing hint only
// costs the regrowth.
func (b *Builder) SizeHint(n int) { b.sizeHint = n }

// Add appends one record. Records must arrive in strictly increasing
// internal-key order (user key ascending, seq descending within a key).
func (b *Builder) Add(key []byte, seq uint64, kind memtable.Kind, value []byte) error {
	if b.started {
		if c := bytes.Compare(key, b.lastKey); c < 0 || (c == 0 && seq >= b.lastSeq) {
			return fmt.Errorf("sstable: keys out of order: %q/%d after %q/%d", key, seq, b.lastKey, b.lastSeq)
		}
	}
	if len(b.block) == 0 {
		b.blockFirst = append(b.blockFirst[:0], key...)
	}
	b.block = encoding.PutUvarint(b.block, uint64(len(key)))
	b.block = encoding.PutUvarint(b.block, uint64(len(value)))
	b.block = append(b.block, byte(kind))
	b.block = encoding.PutU64(b.block, seq)
	b.block = append(b.block, key...)
	b.block = append(b.block, value...)

	first := !b.started
	if first {
		b.meta.Smallest = append([]byte(nil), key...)
		b.started = true
	}
	b.meta.Largest = append(b.meta.Largest[:0], key...)
	b.meta.Entries++
	// Only distinct user keys feed the bloom filter. The first key must be
	// added unconditionally: an empty first key compares equal to the nil
	// lastKey and would otherwise be skipped.
	if b.opt.BloomBits > 0 && (first || !bytes.Equal(key, b.lastKey)) {
		b.keys = append(b.keys, append([]byte(nil), key...))
	}
	b.lastKey = append(b.lastKey[:0], key...)
	b.lastSeq = seq
	if len(b.block) >= b.opt.BlockSize {
		b.flushBlock()
	}
	return nil
}

func (b *Builder) flushBlock() {
	if len(b.block) == 0 {
		return
	}
	if b.buf == nil && b.sizeHint > 0 {
		// Index and filter: about 25 bytes per block and BloomBits per key,
		// under a sixteenth of the data even for 20-byte records.
		b.buf = make([]byte, 0, b.sizeHint+b.sizeHint/16+footerSize)
	}
	off := len(b.buf)
	b.buf = append(b.buf, b.block...)
	b.index = encoding.PutUvarint(b.index, uint64(len(b.blockFirst)))
	b.index = append(b.index, b.blockFirst...)
	b.index = encoding.PutU32(b.index, uint32(off))
	b.index = encoding.PutU32(b.index, uint32(len(b.block)))
	b.block = b.block[:0]
}

// EstimatedSize returns the bytes accumulated so far.
func (b *Builder) EstimatedSize() int { return len(b.buf) + len(b.block) }

// Entries returns the number of records added so far.
func (b *Builder) Entries() int { return b.meta.Entries }

// Finish encodes the table and returns the file bytes plus its Meta.
func (b *Builder) Finish() ([]byte, Meta, error) {
	if b.meta.Entries == 0 {
		return nil, Meta{}, errors.New("sstable: empty table")
	}
	b.flushBlock()
	indexOff := len(b.buf)
	b.buf = append(b.buf, b.index...)
	bloomOff := len(b.buf)
	var filter bloom.Filter
	if b.opt.BloomBits > 0 {
		filter = bloom.Build(b.keys, b.opt.BloomBits)
		b.buf = append(b.buf, filter...)
	}
	crc := encoding.Checksum(b.buf)
	b.buf = encoding.PutU32(b.buf, uint32(indexOff))
	b.buf = encoding.PutU32(b.buf, uint32(len(b.index)))
	b.buf = encoding.PutU32(b.buf, uint32(bloomOff))
	b.buf = encoding.PutU32(b.buf, uint32(len(filter)))
	b.buf = encoding.PutU32(b.buf, uint32(b.meta.Entries))
	b.buf = encoding.PutU32(b.buf, crc)
	b.buf = encoding.PutU32(b.buf, Magic)
	b.meta.Size = len(b.buf)
	return b.buf, b.meta, nil
}

// Source supplies timed reads of a table's bytes — internal/fs files and
// test fixtures both satisfy it.
type Source interface {
	// ReadAt returns length bytes at off, spending the device time.
	ReadAt(r *vclock.Runner, off, length int) ([]byte, error)
	// Size returns the file length.
	Size() int
}

type indexEntry struct {
	firstKey []byte
	off      uint32
	length   uint32
}

// Reader serves point and range reads from one table. The index and bloom
// filter are pinned in memory at open (as RocksDB pins them by default);
// data blocks go through the optional shared BlockCache.
type Reader struct {
	src     Source
	fileID  uint64
	index   []indexEntry
	filter  bloom.Filter
	entries int
	cache   *BlockCache
}

// Open reads a table's footer, index, and filter. fileID keys the block
// cache and must be unique per file. cache may be nil.
func Open(r *vclock.Runner, src Source, fileID uint64, cache *BlockCache) (*Reader, error) {
	sz := src.Size()
	if sz < footerSize {
		return nil, ErrCorrupt
	}
	foot, err := src.ReadAt(r, sz-footerSize, footerSize)
	if err != nil {
		return nil, err
	}
	var u [7]uint32
	rest := foot
	for i := range u {
		u[i], rest, err = encoding.U32(rest)
		if err != nil {
			return nil, ErrCorrupt
		}
	}
	indexOff, indexLen, bloomOff, bloomLen, entries, _, magic := u[0], u[1], u[2], u[3], u[4], u[5], u[6]
	if magic != Magic {
		return nil, ErrCorrupt
	}
	if int(indexOff)+int(indexLen) > sz || int(bloomOff)+int(bloomLen) > sz {
		return nil, ErrCorrupt
	}
	rd := &Reader{src: src, fileID: fileID, entries: int(entries), cache: cache}
	idx, err := src.ReadAt(r, int(indexOff), int(indexLen))
	if err != nil {
		return nil, err
	}
	for len(idx) > 0 {
		klen, rest, err := encoding.Uvarint(idx)
		if err != nil || uint64(len(rest)) < klen+8 {
			return nil, ErrCorrupt
		}
		key := rest[:klen]
		off, rest2, _ := encoding.U32(rest[klen:])
		length, rest3, _ := encoding.U32(rest2)
		rd.index = append(rd.index, indexEntry{firstKey: append([]byte(nil), key...), off: off, length: length})
		idx = rest3
	}
	if bloomLen > 0 {
		fb, err := src.ReadAt(r, int(bloomOff), int(bloomLen))
		if err != nil {
			return nil, err
		}
		rd.filter = bloom.Filter(fb)
	}
	return rd, nil
}

// VerifyChecksum re-reads the whole table body and validates the footer
// CRC. It is used by tests and the recovery path.
func (rd *Reader) VerifyChecksum(r *vclock.Runner) error {
	sz := rd.src.Size()
	body, err := rd.src.ReadAt(r, 0, sz-footerSize)
	if err != nil {
		return err
	}
	foot, err := rd.src.ReadAt(r, sz-footerSize, footerSize)
	if err != nil {
		return err
	}
	want, _, _ := encoding.U32(foot[20:])
	if encoding.Checksum(body) != want {
		return ErrCorrupt
	}
	return nil
}

// Entries returns the table's record count.
func (rd *Reader) Entries() int { return rd.entries }

// MayContain consults the bloom filter; a false return means the key is
// definitely absent.
func (rd *Reader) MayContain(key []byte) bool {
	if rd.filter == nil {
		return true
	}
	return rd.filter.MayContain(key)
}

// blockFor locates the block where a forward scan for key must start:
// the rightmost block whose first key is strictly less than key (several
// consecutive blocks can begin with the same user key when its versions
// straddle block boundaries, and the newest version lives in the earliest
// of them — starting at firstKey <= key would skip it).
func (rd *Reader) blockFor(key []byte) int {
	lo, hi := 0, len(rd.index)-1
	res := 0
	for lo <= hi {
		mid := (lo + hi) / 2
		if bytes.Compare(rd.index[mid].firstKey, key) < 0 {
			res = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return res
}

// loadBlock fetches block i through the cache.
func (rd *Reader) loadBlock(r *vclock.Runner, i int) ([]byte, error) {
	e := rd.index[i]
	if rd.cache != nil {
		if b, ok := rd.cache.Get(rd.fileID, e.off); ok {
			return b, nil
		}
	}
	b, err := rd.src.ReadAt(r, int(e.off), int(e.length))
	if err != nil {
		return nil, err
	}
	if rd.cache != nil {
		rd.cache.Put(rd.fileID, e.off, b)
	}
	return b, nil
}

// readaheadWindow is how many upcoming data blocks a sequential scan
// prefetches in one contiguous read once it has proven itself sequential.
const readaheadWindow = 4

// prefetch loads blocks [from, from+count) into the cache with a single
// contiguous device read, skipping any prefix/suffix already resident.
// Data blocks are laid out back to back, so one ReadAt spanning the run
// replaces count individual block reads — the same fixed per-command
// device cost is paid once. Returns how many blocks were inserted.
func (rd *Reader) prefetch(r *vclock.Runner, from, count int) int {
	if rd.cache == nil || count <= 0 {
		return 0
	}
	if from+count > len(rd.index) {
		count = len(rd.index) - from
	}
	// Trim blocks already resident at either end; a hole in the middle is
	// re-read (still one command, and Put is idempotent).
	for count > 0 && rd.cache.Contains(rd.fileID, rd.index[from].off) {
		from, count = from+1, count-1
	}
	for count > 0 && rd.cache.Contains(rd.fileID, rd.index[from+count-1].off) {
		count--
	}
	if count == 0 {
		return 0
	}
	first, last := rd.index[from], rd.index[from+count-1]
	span := int(last.off) + int(last.length) - int(first.off)
	buf, err := rd.src.ReadAt(r, int(first.off), span)
	if err != nil {
		return 0 // readahead is best-effort; demand reads will surface the error
	}
	inserted := 0
	for i := from; i < from+count; i++ {
		e := rd.index[i]
		rel := int(e.off) - int(first.off)
		blk := append([]byte(nil), buf[rel:rel+int(e.length)]...)
		rd.cache.PutReadahead(rd.fileID, e.off, blk)
		inserted++
	}
	return inserted
}

// record is one decoded block entry.
type record struct {
	key   []byte
	value []byte
	seq   uint64
	kind  memtable.Kind
}

// decodeNext decodes one record from the front of b.
func decodeNext(b []byte) (rec record, rest []byte, err error) {
	klen, b, err := encoding.Uvarint(b)
	if err != nil {
		return rec, nil, err
	}
	vlen, b, err := encoding.Uvarint(b)
	if err != nil {
		return rec, nil, err
	}
	if len(b) < 1+8 {
		return rec, nil, ErrCorrupt
	}
	rec.kind = memtable.Kind(b[0])
	seq, b, err := encoding.U64(b[1:])
	if err != nil {
		return rec, nil, err
	}
	rec.seq = seq
	if uint64(len(b)) < klen+vlen {
		return rec, nil, ErrCorrupt
	}
	rec.key = b[:klen]
	rec.value = b[klen : klen+vlen]
	return rec, b[klen+vlen:], nil
}

// Probe reports what one table lookup did, so the read pipeline can
// account bloom-filter effectiveness per Get: whether a filter was
// consulted, whether it ruled the key out, and whether a positive answer
// turned out to be a false positive (blocks read, key absent).
type Probe struct {
	BloomConsulted bool // the table has a filter and it was checked
	BloomNegative  bool // the filter proved the key absent (no I/O)
	BloomFalsePos  bool // the filter said maybe, but the key was absent
}

// Get returns the newest record for key. found is false if the table has
// no entry for it (tombstones return found=true, kind=KindDelete).
func (rd *Reader) Get(r *vclock.Runner, key []byte) (value []byte, kind memtable.Kind, found bool, err error) {
	return rd.GetAt(r, key, ^uint64(0))
}

// GetAt returns the newest record for key with seq <= maxSeq (snapshot
// reads); maxSeq of ^uint64(0) degenerates to Get.
func (rd *Reader) GetAt(r *vclock.Runner, key []byte, maxSeq uint64) (value []byte, kind memtable.Kind, found bool, err error) {
	value, kind, found, _, err = rd.GetAtProbe(r, key, maxSeq)
	return value, kind, found, err
}

// GetAtProbe is GetAt plus a Probe describing the bloom-filter outcome of
// this lookup.
func (rd *Reader) GetAtProbe(r *vclock.Runner, key []byte, maxSeq uint64) (value []byte, kind memtable.Kind, found bool, probe Probe, err error) {
	if rd.filter != nil {
		probe.BloomConsulted = true
		if !rd.filter.MayContain(key) {
			probe.BloomNegative = true
			return nil, 0, false, probe, nil
		}
	}
	value, kind, found, err = rd.getFrom(r, key, maxSeq)
	// A consulted filter that answered "maybe" for an absent key burned
	// block reads for nothing: the false positive the stats surface.
	probe.BloomFalsePos = probe.BloomConsulted && !found && err == nil
	return value, kind, found, probe, err
}

// getFrom is the block-scan body of GetAt, after the bloom filter has
// been consulted (or when the table has none).
func (rd *Reader) getFrom(r *vclock.Runner, key []byte, maxSeq uint64) (value []byte, kind memtable.Kind, found bool, err error) {
	if len(rd.index) == 0 {
		return nil, 0, false, nil
	}
	// Scan forward from the starting block; the key's newest version is
	// the first record matching it in global order, possibly several
	// blocks past the start when other keys' versions intervene.
	for bi := rd.blockFor(key); bi < len(rd.index); bi++ {
		if bi > 0 && bytes.Compare(rd.index[bi].firstKey, key) > 0 {
			return nil, 0, false, nil
		}
		blk, err := rd.loadBlock(r, bi)
		if err != nil {
			return nil, 0, false, err
		}
		for len(blk) > 0 {
			rec, rest, derr := decodeNext(blk)
			if derr != nil {
				return nil, 0, false, derr
			}
			if c := bytes.Compare(rec.key, key); c == 0 {
				// Records within a key are newest-first; take the first
				// visible one.
				if rec.seq <= maxSeq {
					return append([]byte(nil), rec.value...), rec.kind, true, nil
				}
			} else if c > 0 {
				return nil, 0, false, nil
			}
			blk = rest
		}
	}
	return nil, 0, false, nil
}
