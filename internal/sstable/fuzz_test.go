package sstable

import (
	"encoding/binary"
	"errors"
	"testing"

	"kvaccel/internal/encoding"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// boundedSource is a Source over an image that refuses out-of-range
// reads with an error, as fs files do.
type boundedSource []byte

func (s boundedSource) ReadAt(r *vclock.Runner, off, length int) ([]byte, error) {
	if off < 0 || length < 0 || off+length > len(s) {
		return nil, errors.New("read out of range")
	}
	return s[off : off+length], nil
}
func (s boundedSource) Size() int { return len(s) }

// hugeLen is uvarint(1<<63): two of them sum to zero in uint64.
var hugeLen = binary.AppendUvarint(nil, 1<<63)

// TestLengthOverflowIsCorrupt: a record or index entry whose lengths wrap
// when added must read as corrupt. Comparing the sum against the bytes
// left let klen = vlen = 1<<63 through and panicked on the slice.
func TestLengthOverflowIsCorrupt(t *testing.T) {
	block := append(append([]byte{}, hugeLen...), hugeLen...)
	block = append(block, byte(memtable.KindPut))
	block = encoding.PutU64(block, 7)
	block = append(block, "keyvalue"...)
	if _, _, err := decodeNext(block); !errors.Is(err, ErrCorrupt) {
		t.Errorf("decodeNext of a record with klen = vlen = 1<<63: err = %v, want ErrCorrupt", err)
	}

	// An index entry with klen = 1<<64-8: klen+8 wraps to 0.
	idx := binary.AppendUvarint(nil, 1<<64-8)
	idx = append(idx, "firstkey"...)
	idx = append(idx, 0, 0, 0, 0, 16, 0, 0, 0)
	if _, err := decodeIndex(idx, 1<<20); !errors.Is(err, ErrCorrupt) {
		t.Errorf("decodeIndex of an entry with klen = 1<<64-8: err = %v, want ErrCorrupt", err)
	}
	// The same entry inside a well-formed table image, through Open.
	img := append([]byte{}, idx...)
	crc := encoding.Checksum(img)
	for _, x := range []uint32{0, uint32(len(idx)), uint32(len(idx)), 0, 1, crc, Magic} {
		img = encoding.PutU32(img, x)
	}
	run(t, func(r *vclock.Runner) {
		if _, err := Open(r, boundedSource(img)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Open of a table whose index entry wraps: err = %v, want ErrCorrupt", err)
		}
	})
}

// TestIndexOutOfRangeIsCorrupt: blocks lie back to back below the index;
// an entry pointing elsewhere would send a block read out of range.
func TestIndexOutOfRangeIsCorrupt(t *testing.T) {
	entry := func(off, length uint32) []byte {
		e := append([]byte{1, 'k'}, 0, 0, 0, 0, 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(e[2:], off)
		binary.LittleEndian.PutUint32(e[6:], length)
		return e
	}
	for name, idx := range map[string][]byte{
		"past the data":  entry(90, 20),
		"length wraps":   entry(8, 1<<32-4),
		"overlapping":    append(entry(0, 50), entry(40, 10)...),
		"out of order":   append(entry(50, 10), entry(0, 50)...),
		"truncated tail": entry(0, 50)[:9],
	} {
		if _, err := decodeIndex(idx, 100); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if index, err := decodeIndex(append(entry(0, 50), entry(50, 50)...), 100); err != nil || len(index) != 2 {
		t.Errorf("a well-formed index: %d entries, err = %v", len(index), err)
	}
}

// fuzzTable is a small built table with several blocks, versions and a
// tombstone: the seed the fuzz targets mutate.
func fuzzTable(tb testing.TB) []byte {
	b := NewBuilder(BuilderOptions{BlockSize: 128, BloomBits: 10})
	seq := uint64(100)
	for i := 0; i < 40; i++ {
		key := encoding.Key16(uint64(i / 2))
		kind, value := memtable.KindPut, make([]byte, 5+3*i)
		if i%7 == 6 {
			kind, value = memtable.KindDelete, nil
		}
		if err := b.Add(key, seq, kind, value); err != nil {
			tb.Fatal(err)
		}
		seq--
	}
	img, _, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// FuzzDecodeBlock: any bytes read as a data block decode to records or
// to an error, never a panic or an endless loop.
func FuzzDecodeBlock(f *testing.F) {
	img := fuzzTable(f)
	f.Add(img[:128])
	f.Add(img[100:400])
	f.Add(append(append([]byte{}, hugeLen...), hugeLen...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blk []byte) {
		for len(blk) > 0 {
			rec, rest, err := decodeNext(blk)
			if err != nil {
				return
			}
			if len(rest) >= len(blk) {
				t.Fatalf("decodeNext consumed nothing: %d bytes before, %d after", len(blk), len(rest))
			}
			_, _ = rec.key, rec.value
			blk = rest
		}
	})
}

// FuzzOpen: any image opens to a reader or to an error, and whatever
// opens serves Get, a full scan and a seek with values or errors — footer,
// index, filter and blocks may all lie.
func FuzzOpen(f *testing.F) {
	img := fuzzTable(f)
	f.Add(img)
	for _, off := range []int{
		len(img) - 1, len(img) - 5, len(img) - 9, len(img) - 13, len(img) - 17, len(img) - 21, len(img) - 25, // footer fields
		len(img) - footerSize - 3, // filter
		3, 140,                    // data blocks
	} {
		m := append([]byte{}, img...)
		m[off] ^= 0x41
		f.Add(m)
	}
	indexOff := binary.LittleEndian.Uint32(img[len(img)-footerSize:])
	for _, d := range []int{0, 1, 17, 18, 21} { // an index entry's klen, key, offset, length
		m := append([]byte{}, img...)
		m[int(indexOff)+d] ^= 0x88
		f.Add(m)
	}
	f.Add(img[:len(img)/2])
	f.Fuzz(func(t *testing.T, image []byte) {
		c := vclock.New()
		c.Go("fuzz", func(r *vclock.Runner) {
			rd, err := Open(r, boundedSource(image))
			if err != nil {
				return
			}
			for i := uint64(0); i < 21; i++ {
				_, _, _, _ = rd.Get(r, encoding.Key16(i))
			}
			it := rd.NewIterator(r)
			n := 0
			for it.SeekToFirst(); it.Valid() && n <= len(image); it.Next() {
				n++
			}
			if n > len(image) {
				t.Errorf("scan yielded more records than the image has bytes (%d)", len(image))
			}
			it.Seek(encoding.Key16(9))
			_ = rd.VerifyChecksum(r)
		})
		c.Wait()
	})
}
