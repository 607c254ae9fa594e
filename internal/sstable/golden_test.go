package sstable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"kvaccel/internal/bloom"
	"kvaccel/internal/encoding"
	"kvaccel/internal/fold"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
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

// foldingRecords feeds add a fixed 3 000-record input in internal-key
// order whose values fold where they repeat: each a run of 1 to 80
// random bytes doubled to a length from empty to past a block, some
// broken at the last byte, some random throughout.
func foldingRecords(add func(key []byte, seq uint64, kind memtable.Kind, value []byte)) {
	rng := rand.New(rand.NewSource(29))
	seq := uint64(1 << 20)
	for n, k := 0, 0; n < 3000; k++ {
		key := encoding.Key16(uint64(k) * 7)
		for v := rng.Intn(3); v >= 0 && n < 3000; v-- {
			value := make([]byte, []int{0, 20, 1023, 1024, 1500, 4096, 5000, 9000}[rng.Intn(8)])
			rng.Read(value)
			if len(value) > 0 && rng.Intn(5) > 0 {
				for d := 1 + rng.Intn(80); d < len(value); d *= 2 {
					copy(value[d:], value[:d])
				}
				if rng.Intn(6) == 0 {
					value[len(value)-1]++
				}
			}
			add(key, seq, memtable.KindPut, value)
			seq--
			n++
		}
	}
}

// referenceBuild is the table encoder as it stood before the builder
// wrote records in place: a block buffer copied into the file buffer, a
// key copy per filter entry. The format is defined by what it emits from
// the records records feeds it.
func referenceBuild(opt BuilderOptions, records func(add func(key []byte, seq uint64, kind memtable.Kind, value []byte))) []byte {
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
	records(func(key []byte, seq uint64, kind memtable.Kind, value []byte) {
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
		gotPayload, meta, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		got := flat(gotPayload)
		if ref := referenceBuild(opt, goldenRecords); !bytes.Equal(got, ref) {
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

// payloadSource serves a built table's payload as fs.ReadAt does: a view
// inside one literal span, else the bytes materialised.
type payloadSource struct{ p fold.Payload }

func (s payloadSource) ReadAt(r *vclock.Runner, off, length int) ([]byte, error) {
	return s.p.Read(off, length), nil
}
func (s payloadSource) Size() int { return s.p.Len() }

// TestFoldedTableMatchesReference: a table whose values fold — several
// long values to a block, records past a block, periods up to and past
// fold.MaxPeriod, values that break their repeat at the end — reads back
// byte for byte as the reference encoder's flat table, at every block
// size, with and without a size hint, with EstimatedSize counting the
// bytes folded away; served as fs serves it, it opens, checksums and
// iterates to the records that went in.
func TestFoldedTableMatchesReference(t *testing.T) {
	type rec struct {
		key, value []byte
		seq        uint64
	}
	var recs []rec
	foldingRecords(func(key []byte, seq uint64, _ memtable.Kind, value []byte) {
		recs = append(recs, rec{key, value, seq})
	})
	hint := 0
	for _, r := range recs {
		hint += encoding.RecordSize(len(r.key), len(r.value)) + 9
	}
	for _, opt := range []BuilderOptions{
		DefaultBuilderOptions(),
		{BlockSize: 16 << 10, BloomBits: 10},
		{BlockSize: 512, BloomBits: 10},
		{BlockSize: 64, BloomBits: 0},
	} {
		for _, h := range []int{0, hint} {
			b := NewBuilder(opt)
			b.SizeHint(h)
			want := 0
			for _, r := range recs {
				if err := b.Add(r.key, r.seq, memtable.KindPut, r.value); err != nil {
					t.Fatal(err)
				}
				if want += encoding.RecordSize(len(r.key), len(r.value)) + 9; b.EstimatedSize() != want {
					t.Fatalf("%+v: EstimatedSize %d after %d records, want %d", opt, b.EstimatedSize(), b.Entries(), want)
				}
			}
			p, meta, err := b.Finish()
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceBuild(opt, foldingRecords)
			if !p.Folded() || len(p.Lit()) > 2*len(ref)/3 {
				t.Fatalf("%+v: %d of %d bytes literal: the input folds too little to test anything", opt, len(p.Lit()), len(ref))
			}
			if !bytes.Equal(flat(p), ref) || meta.Size != len(ref) || p.Len() != len(ref) {
				t.Fatalf("%+v hint %d: folded table differs from the reference encoder's (%d bytes against %d)", opt, h, p.Len(), len(ref))
			}
			if last := recs[len(recs)-1].key; !bytes.Equal(meta.Largest, last) {
				t.Errorf("%+v: Largest %q, want %q", opt, meta.Largest, last)
			}
			rd, err := Open(nil, payloadSource{p})
			if err != nil {
				t.Fatal(err)
			}
			if err := rd.VerifyChecksum(nil); err != nil {
				t.Fatalf("%+v: %v", opt, err)
			}
			i := 0
			it := rd.NewIterator(nil)
			for it.SeekToFirst(); it.Valid(); it.Next() {
				e := it.Entry()
				if i >= len(recs) || !bytes.Equal(e.Key, recs[i].key) || e.Seq != recs[i].seq || !bytes.Equal(e.Value, recs[i].value) {
					t.Fatalf("%+v: record %d differs", opt, i)
				}
				i++
			}
			if it.Err() != nil || i != len(recs) {
				t.Fatalf("%+v: iterated %d of %d records: %v", opt, i, len(recs), it.Err())
			}
		}
	}
}
