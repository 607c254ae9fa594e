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
// table. Records are encoded straight into the file image; a data block is
// a range of it, closed by noting its offsets in the index.
type Builder struct {
	opt        BuilderOptions
	buf        []byte // the file image so far: closed data blocks, then the open one
	sizeHint   int    // expected bytes of data blocks; see SizeHint
	blockStart int    // offset in buf of the open data block
	blockFirst span   // first key of the open block
	lastKey    span   // key of the newest record
	lastSeq    uint64
	index      []byte   // index block under construction
	crc        uint32   // CRC32C of the closed data blocks
	hashes     []uint32 // bloom hash of every distinct user key
	smallest   []byte
	entries    int
}

// span locates a key inside Builder.buf, which append may move.
type span struct{ off, end int }

// NewBuilder returns an empty builder.
func NewBuilder(opt BuilderOptions) *Builder {
	if opt.BlockSize <= 0 {
		opt.BlockSize = 4096
	}
	return &Builder{opt: opt}
}

// SizeHint tells the builder how many bytes of data blocks (records with
// their headers) to expect, so the file buffer is allocated once, by the
// first Add, instead of growing by doubling. The builder adds room for
// index, filter and footer. A low or missing hint only costs the
// regrowth.
func (b *Builder) SizeHint(n int) { b.sizeHint = n }

// Add appends one record, copying key and value into the file image.
// Records must arrive in strictly increasing internal-key order (user key
// ascending, seq descending within a key).
func (b *Builder) Add(key []byte, seq uint64, kind memtable.Kind, value []byte) error {
	first := b.entries == 0
	newKey := true
	if !first {
		last := b.buf[b.lastKey.off:b.lastKey.end]
		c := bytes.Compare(key, last)
		if c < 0 || (c == 0 && seq >= b.lastSeq) {
			return fmt.Errorf("sstable: keys out of order: %q/%d after %q/%d", key, seq, last, b.lastSeq)
		}
		newKey = c != 0
	}
	if b.buf == nil && b.sizeHint > 0 {
		// Index and filter: about 25 bytes per block and BloomBits per key,
		// under a sixteenth of the data even for 20-byte records.
		b.buf = make([]byte, 0, b.sizeHint+b.sizeHint/16+footerSize)
	}
	opensBlock := len(b.buf) == b.blockStart
	b.buf = encoding.PutUvarint(b.buf, uint64(len(key)))
	b.buf = encoding.PutUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, byte(kind))
	b.buf = encoding.PutU64(b.buf, seq)
	b.lastKey = span{len(b.buf), len(b.buf) + len(key)}
	b.lastSeq = seq
	b.buf = append(b.buf, key...)
	b.buf = append(b.buf, value...)

	if first {
		b.smallest = append([]byte(nil), key...)
	}
	if opensBlock {
		b.blockFirst = b.lastKey
	}
	b.entries++
	// Only distinct user keys feed the bloom filter.
	if b.opt.BloomBits > 0 && newKey {
		b.hashes = append(b.hashes, bloom.Hash(key))
	}
	if len(b.buf)-b.blockStart >= b.opt.BlockSize {
		b.closeBlock()
	}
	return nil
}

// closeBlock ends the open data block where the image ends, indexes it
// and folds it into the table's checksum while its bytes are still in
// cache.
func (b *Builder) closeBlock() {
	if len(b.buf) == b.blockStart {
		return
	}
	b.crc = encoding.ChecksumUpdate(b.crc, b.buf[b.blockStart:])
	first := b.buf[b.blockFirst.off:b.blockFirst.end]
	b.index = encoding.PutUvarint(b.index, uint64(len(first)))
	b.index = append(b.index, first...)
	b.index = encoding.PutU32(b.index, uint32(b.blockStart))
	b.index = encoding.PutU32(b.index, uint32(len(b.buf)-b.blockStart))
	b.blockStart = len(b.buf)
}

// EstimatedSize returns the bytes accumulated so far.
func (b *Builder) EstimatedSize() int { return len(b.buf) }

// Entries returns the number of records added so far.
func (b *Builder) Entries() int { return b.entries }

// Finish encodes the table and returns the file bytes plus its Meta. The
// image is the builder's own buffer, handed over: the builder must not be
// used again, and the caller may pass the image on to an owner such as
// fs.WriteFile without copying it.
func (b *Builder) Finish() ([]byte, Meta, error) {
	if b.entries == 0 {
		return nil, Meta{}, errors.New("sstable: empty table")
	}
	meta := Meta{
		Smallest: b.smallest,
		Largest:  append([]byte(nil), b.buf[b.lastKey.off:b.lastKey.end]...),
		Entries:  b.entries,
	}
	b.closeBlock()
	indexOff := len(b.buf)
	b.buf = append(b.buf, b.index...)
	bloomOff := len(b.buf)
	var filter bloom.Filter
	if b.opt.BloomBits > 0 {
		filter = bloom.BuildFromHashes(b.hashes, b.opt.BloomBits)
		b.buf = append(b.buf, filter...)
	}
	crc := encoding.ChecksumUpdate(b.crc, b.buf[indexOff:])
	b.buf = encoding.PutU32(b.buf, uint32(indexOff))
	b.buf = encoding.PutU32(b.buf, uint32(len(b.index)))
	b.buf = encoding.PutU32(b.buf, uint32(bloomOff))
	b.buf = encoding.PutU32(b.buf, uint32(len(filter)))
	b.buf = encoding.PutU32(b.buf, uint32(b.entries))
	b.buf = encoding.PutU32(b.buf, crc)
	b.buf = encoding.PutU32(b.buf, Magic)
	meta.Size = len(b.buf)
	return b.buf, meta, nil
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
// each data block is read from the Source when a lookup needs it. The
// index's keys, the filter, blocks and the values Get returns alias the
// bytes the Source returned for them, so a Source must not overwrite what
// it has handed out.
type Reader struct {
	src    Source
	index  []indexEntry
	filter bloom.Filter
}

// Open reads a table's footer, index, and filter.
func Open(r *vclock.Runner, src Source) (*Reader, error) {
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
	// u[4] is the record count and u[5] the whole-table checksum, which
	// only VerifyChecksum reads.
	indexOff, indexLen, bloomOff, bloomLen, magic := u[0], u[1], u[2], u[3], u[6]
	if magic != Magic {
		return nil, ErrCorrupt
	}
	if int(indexOff)+int(indexLen) > sz || int(bloomOff)+int(bloomLen) > sz {
		return nil, ErrCorrupt
	}
	rd := &Reader{src: src}
	idx, err := src.ReadAt(r, int(indexOff), int(indexLen))
	if err != nil {
		return nil, err
	}
	if rd.index, err = decodeIndex(idx, indexOff); err != nil {
		return nil, err
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

// decodeIndex parses an index block: per data block uvarint(klen), first
// key, u32 offset, u32 length. Data blocks lie back to back below
// dataEnd, where the index starts; an entry that says otherwise is
// corrupt (and would send a block read out of range). The entries'
// firstKeys alias idx.
func decodeIndex(idx []byte, dataEnd uint32) ([]indexEntry, error) {
	n := 0
	for rest := idx; len(rest) > 0; n++ {
		klen, after, err := encoding.Uvarint(rest)
		if err != nil || klen > uint64(len(after)) || uint64(len(after))-klen < 8 {
			return nil, ErrCorrupt
		}
		rest = after[klen+8:]
	}
	index := make([]indexEntry, n)
	var end uint32 // where the previous block ends
	for i := range index {
		klen, rest, _ := encoding.Uvarint(idx)
		e := &index[i]
		e.firstKey = rest[:klen:klen]
		e.off, rest, _ = encoding.U32(rest[klen:])
		e.length, idx, _ = encoding.U32(rest)
		if e.off < end || e.length > dataEnd || e.off > dataEnd-e.length {
			return nil, ErrCorrupt
		}
		end = e.off + e.length
	}
	return index, nil
}

// VerifyChecksum re-reads the whole table body and validates the footer
// CRC. Only tests call it: no open or recovery path verifies a table.
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

// loadBlock reads block i with one Source read; from an fs file that is
// a view of the table's one extent.
func (rd *Reader) loadBlock(r *vclock.Runner, i int) ([]byte, error) {
	e := rd.index[i]
	return rd.src.ReadAt(r, int(e.off), int(e.length))
}

// record is one decoded block entry.
type record struct {
	key   []byte
	value []byte
	seq   uint64
	kind  memtable.Kind
}

// decodeNext decodes one record from the front of b. Key and value are
// views of b with their capacity clipped, so appending to one cannot
// overwrite the next record of the block.
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
	// Compared one at a time: klen+vlen can wrap.
	if klen > uint64(len(b)) || vlen > uint64(len(b))-klen {
		return rec, nil, ErrCorrupt
	}
	end := klen + vlen
	rec.key = b[:klen:klen]
	rec.value = b[klen:end:end]
	return rec, b[end:], nil
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
// no entry for it (tombstones return found=true, kind=KindDelete). The
// value is a read-only view of the block that holds it, which pins the
// block.
func (rd *Reader) Get(r *vclock.Runner, key []byte) (value []byte, kind memtable.Kind, found bool, err error) {
	value, kind, found, _, err = rd.GetProbe(r, key)
	return value, kind, found, err
}

// GetProbe is Get plus a Probe describing the bloom-filter outcome of
// this lookup.
func (rd *Reader) GetProbe(r *vclock.Runner, key []byte) (value []byte, kind memtable.Kind, found bool, probe Probe, err error) {
	if rd.filter != nil {
		probe.BloomConsulted = true
		if !rd.filter.MayContain(key) {
			probe.BloomNegative = true
			return nil, 0, false, probe, nil
		}
	}
	value, kind, found, err = rd.getFrom(r, key)
	// A consulted filter that answered "maybe" for an absent key burned
	// block reads for nothing: the false positive the stats surface.
	probe.BloomFalsePos = probe.BloomConsulted && !found && err == nil
	return value, kind, found, probe, err
}

// getFrom is the block-scan body of Get, after the bloom filter has
// been consulted (or when the table has none).
func (rd *Reader) getFrom(r *vclock.Runner, key []byte) (value []byte, kind memtable.Kind, found bool, err error) {
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
				// Records within a key are newest-first.
				return rec.value, rec.kind, true, nil
			} else if c > 0 {
				return nil, 0, false, nil
			}
			blk = rest
		}
	}
	return nil, 0, false, nil
}
