package encoding

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendRecord(buf, []byte("key1"), []byte("value1"))
	buf = AppendRecord(buf, []byte("k"), nil)
	buf = AppendRecord(buf, nil, []byte("v"))

	k, v, rest, err := DecodeRecord(buf)
	if err != nil || string(k) != "key1" || string(v) != "value1" {
		t.Fatalf("record 1: k=%q v=%q err=%v", k, v, err)
	}
	k, v, rest, err = DecodeRecord(rest)
	if err != nil || string(k) != "k" || len(v) != 0 {
		t.Fatalf("record 2: k=%q v=%q err=%v", k, v, err)
	}
	k, v, rest, err = DecodeRecord(rest)
	if err != nil || len(k) != 0 || string(v) != "v" {
		t.Fatalf("record 3: k=%q v=%q err=%v", k, v, err)
	}
	if len(rest) != 0 {
		t.Fatalf("leftover bytes: %d", len(rest))
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(key, value []byte) bool {
		buf := AppendRecord(nil, key, value)
		if len(buf) != RecordSize(len(key), len(value)) {
			return false
		}
		k, v, rest, err := DecodeRecord(buf)
		return err == nil && bytes.Equal(k, key) && bytes.Equal(v, value) && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRecordCorrupt(t *testing.T) {
	cases := [][]byte{
		{},                // empty
		{0x80},            // truncated uvarint
		{0x05, 0x00, 'a'}, // key length 5 but only 1 byte
		{0x01, 0x05, 'a'}, // value length 5 but no bytes
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, // overflowing uvarint
		// klen = vlen = 1<<63: the sum wraps to 0 and used to pass the bounds check
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 'a'},
	}
	for i, c := range cases {
		if _, _, _, err := DecodeRecord(c); err == nil {
			t.Errorf("case %d: corrupt record decoded without error", i)
		}
	}
}

func TestFixedWidthInts(t *testing.T) {
	b := PutU32(nil, 0xdeadbeef)
	b = PutU64(b, 0x0123456789abcdef)
	v32, rest, err := U32(b)
	if err != nil || v32 != 0xdeadbeef {
		t.Fatalf("U32 = %x, err=%v", v32, err)
	}
	v64, rest, err := U64(rest)
	if err != nil || v64 != 0x0123456789abcdef {
		t.Fatalf("U64 = %x, err=%v", v64, err)
	}
	if len(rest) != 0 {
		t.Fatalf("leftover %d bytes", len(rest))
	}
	if _, _, err := U32([]byte{1, 2}); err == nil {
		t.Error("short U32 did not error")
	}
	if _, _, err := U64([]byte{1, 2, 3}); err == nil {
		t.Error("short U64 did not error")
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	f := func(x uint64) bool {
		b := PutUvarint(nil, x)
		v, rest, err := Uvarint(b)
		return err == nil && v == x && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumDetectsFlip(t *testing.T) {
	data := []byte("the quick brown fox")
	sum := Checksum(data)
	data[3] ^= 1
	if Checksum(data) == sum {
		t.Fatal("checksum did not change after bit flip")
	}
}

func TestFormatKeySortOrder(t *testing.T) {
	// Fixed-width decimal keys must sort bytewise in numeric order —
	// the property every LSM level relies on.
	prev := Key16(0)
	for n := uint64(1); n < 2000; n += 7 {
		cur := Key16(n)
		if len(cur) != 16 {
			t.Fatalf("Key16(%d) len = %d", n, len(cur))
		}
		if bytes.Compare(prev, cur) >= 0 {
			t.Fatalf("Key16 not monotone at %d: %q >= %q", n, prev, cur)
		}
		prev = cur
	}
}

// TestFormatKeyMatchesSprintf pins FormatKey byte for byte to the
// fmt.Sprintf("%0*d") it replaced, including the width-too-small case
// (all digits, no truncation), and checks that it appends to dst.
func TestFormatKeyMatchesSprintf(t *testing.T) {
	for width := 1; width <= 20; width++ {
		for _, n := range []uint64{0, 9, 10, 1 << 63, math.MaxUint64} {
			want := fmt.Sprintf("%0*d", width, n)
			if got := FormatKey(nil, n, width); string(got) != want {
				t.Errorf("FormatKey(nil, %d, %d) = %q, want %q", n, width, got, want)
			}
			if got := FormatKey([]byte("user"), n, width); string(got) != "user"+want {
				t.Errorf("FormatKey(\"user\", %d, %d) = %q, want %q", n, width, got, "user"+want)
			}
		}
	}
}

func TestRecordSizeMatchesEncoding(t *testing.T) {
	for _, kl := range []int{0, 1, 127, 128, 300, 20000} {
		for _, vl := range []int{0, 1, 127, 128, 5000} {
			buf := AppendRecord(nil, make([]byte, kl), make([]byte, vl))
			if got := RecordSize(kl, vl); got != len(buf) {
				t.Fatalf("RecordSize(%d,%d) = %d, encoded %d", kl, vl, got, len(buf))
			}
		}
	}
}

// TestFNV1aMatchesHashFNV holds FNV1a to hash/fnv's New64a on random
// inputs of every length up to 64 bytes, the empty key included.
func TestFNV1aMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, i%65)
		rng.Read(b)
		ref := fnv.New64a()
		ref.Write(b)
		if got, want := FNV1a(b), ref.Sum64(); got != want {
			t.Fatalf("FNV1a(%x) = %#x, hash/fnv says %#x", b, got, want)
		}
	}
}
