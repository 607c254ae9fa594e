package sstable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"kvaccel/internal/bloom"
	"kvaccel/internal/encoding"
	"kvaccel/internal/memtable"
)

// goldenRecords feeds add a fixed 5 000-record input in internal-key
// order: 16-byte keys with one to three versions each, tombstones, value
// pointers, and value sizes from empty to past a block.
func goldenRecords(add func(key []byte, seq uint64, kind memtable.Kind, value []byte)) {
	rng := rand.New(rand.NewSource(17))
	seq := uint64(1 << 20)
	for n, k := 0, 0; n < 5000; k++ {
		key := encoding.Key16(uint64(k) * 7)
		for v := rng.Intn(3); v >= 0 && n < 5000; v-- {
			kind, size := memtable.KindPut, []int{0, 1, 20, 128, 700, 4096, 5000}[rng.Intn(7)]
			switch rng.Intn(10) {
			case 0:
				kind, size = memtable.KindDelete, 0
			case 1:
				kind, size = memtable.KindValuePtr, encoding.ValuePointerSize
			}
			value := make([]byte, size)
			rng.Read(value)
			add(key, seq, kind, value)
			seq--
			n++
		}
	}
}

// referenceBuild is the table encoder as it stood before the builder
// wrote records in place: a block buffer copied into the file buffer, a
// key copy per filter entry. The format is defined by what it emits.
func referenceBuild(opt BuilderOptions) []byte {
	var buf, block, index, blockFirst, lastKey []byte
	var keys [][]byte
	entries := 0
	flushBlock := func() {
		if len(block) == 0 {
			return
		}
		index = encoding.PutUvarint(index, uint64(len(blockFirst)))
		index = append(index, blockFirst...)
		index = encoding.PutU32(index, uint32(len(buf)))
		index = encoding.PutU32(index, uint32(len(block)))
		buf = append(buf, block...)
		block = block[:0]
	}
	goldenRecords(func(key []byte, seq uint64, kind memtable.Kind, value []byte) {
		if len(block) == 0 {
			blockFirst = append(blockFirst[:0], key...)
		}
		block = encoding.PutUvarint(block, uint64(len(key)))
		block = encoding.PutUvarint(block, uint64(len(value)))
		block = append(block, byte(kind))
		block = encoding.PutU64(block, seq)
		block = append(block, key...)
		block = append(block, value...)
		if opt.BloomBits > 0 && (entries == 0 || !bytes.Equal(key, lastKey)) {
			keys = append(keys, append([]byte(nil), key...))
		}
		lastKey = append(lastKey[:0], key...)
		entries++
		if len(block) >= opt.BlockSize {
			flushBlock()
		}
	})
	flushBlock()
	indexOff := len(buf)
	buf = append(buf, index...)
	bloomOff := len(buf)
	var filter bloom.Filter
	if opt.BloomBits > 0 {
		filter = bloom.Build(keys, opt.BloomBits)
		buf = append(buf, filter...)
	}
	crc := encoding.Checksum(buf)
	for _, x := range []uint32{uint32(indexOff), uint32(len(index)), uint32(bloomOff), uint32(len(filter)), uint32(entries), crc, Magic} {
		buf = encoding.PutU32(buf, x)
	}
	return buf
}

// goldenSHA256 is the digest of the table the parent commit's Builder
// (block buffer, flushBlock copy, key copies for the filter) produced
// from goldenRecords under DefaultBuilderOptions.
const goldenSHA256 = "7b8f442d5ceaec27322d3743e973a6a275eeec62b55a220318366183ba978ec0"

// TestGoldenTableBytes pins the file format across the builder's
// rewrite: block cut points, index, filter bits and footer must come out
// byte for byte, at every block size and with the filter off, and
// EstimatedSize — what compaction cuts output files by — must read the
// same after every record.
func TestGoldenTableBytes(t *testing.T) {
	for _, opt := range []BuilderOptions{
		DefaultBuilderOptions(),
		{BlockSize: 512, BloomBits: 10},
		{BlockSize: 64, BloomBits: 3},
		{BlockSize: 4096, BloomBits: 0},
	} {
		b := NewBuilder(opt)
		want := 0
		goldenRecords(func(key []byte, seq uint64, kind memtable.Kind, value []byte) {
			if err := b.Add(key, seq, kind, value); err != nil {
				t.Fatal(err)
			}
			want += encoding.RecordSize(len(key), len(value)) + 9
			if got := b.EstimatedSize(); got != want {
				t.Fatalf("%+v: EstimatedSize %d after %d records, want %d", opt, got, b.Entries(), want)
			}
		})
		got, meta, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if ref := referenceBuild(opt); !bytes.Equal(got, ref) {
			t.Errorf("%+v: table differs from the reference encoder's (%d bytes against %d)", opt, len(got), len(ref))
		}
		if meta.Entries != 5000 || meta.Size != len(got) ||
			!bytes.Equal(meta.Smallest, encoding.Key16(0)) || bytes.Compare(meta.Largest, meta.Smallest) <= 0 {
			t.Errorf("%+v: meta %+v", opt, meta)
		}
		if opt == DefaultBuilderOptions() {
			sum := sha256.Sum256(got)
			if hex.EncodeToString(sum[:]) != goldenSHA256 {
				t.Errorf("table digest %x, want the parent encoder's %s", sum, goldenSHA256)
			}
		}
	}
}
