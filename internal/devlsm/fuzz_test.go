package devlsm

import (
	"bytes"
	"testing"

	"kvaccel/internal/encoding"
	"kvaccel/internal/memtable"
)

// decodeRecord is the flat decoder: it decodes the record b starts with,
// value included, from flat bytes, as a run page was read before runs
// were read in place; rest is b past the record. The in-place reader
// (run.record) must agree with it on every record.
func decodeRecord(b []byte) (e memtable.Entry, rest []byte, err error) {
	e, vlen, b, err := decodeHeader(b)
	if err != nil {
		return e, nil, err
	}
	if vlen > uint64(len(b)) {
		return e, nil, encoding.ErrCorrupt
	}
	e.Value = b[:vlen:vlen]
	return e, b[vlen:], nil
}

// FuzzDecodeRecord: a run page is whatever its NAND pages hand back, so
// any input decodes to an error or to a record whose key and value are
// capacity-clipped views of the input, behind its header and ahead of the
// rest; encoding that record again decodes back to it. Nothing panics.
// The seeds are records appendRecord wrote, alone and as one page.
func FuzzDecodeRecord(f *testing.F) {
	var page []byte
	for _, e := range []memtable.Entry{
		{Key: []byte("k"), Value: []byte("v"), Seq: 1, Kind: memtable.KindPut},
		{Key: key(7), Seq: 1 << 40, Kind: memtable.KindDelete},
		{Key: key(8), Seq: 3, Kind: memtable.KindSupersede},
		{Key: key(9), Value: value(9), Seq: 4, Kind: memtable.KindPut},
	} {
		rec := appendRecord(nil, e)
		f.Add(rec)
		page = append(page, rec...)
	}
	f.Add(page)
	f.Add([]byte{})
	// Lengths whose sum wraps a uint64.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x02, 0, 1, 0, 0, 0, 0, 0, 0, 0, 'k', 'v'})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, rest, err := decodeRecord(data)
		if err != nil {
			return
		}
		if cap(e.Key) != len(e.Key) || cap(e.Value) != len(e.Value) {
			t.Fatalf("views not clipped: key %d/%d, value %d/%d (len/cap)", len(e.Key), cap(e.Key), len(e.Value), cap(e.Value))
		}
		// Two one-byte lengths, the kind and the sequence number at least.
		if used := len(data) - len(rest); used < 11+len(e.Key)+len(e.Value) {
			t.Fatalf("a %d-byte key and %d-byte value decoded from %d bytes", len(e.Key), len(e.Value), used)
		}
		got, left, err := decodeRecord(appendRecord(nil, e))
		if err != nil || len(left) != 0 || !bytes.Equal(got.Key, e.Key) || !bytes.Equal(got.Value, e.Value) ||
			got.Seq != e.Seq || got.Kind != e.Kind {
			t.Fatalf("%+v encoded again decodes as %+v, %d bytes left, %v", e, got, len(left), err)
		}
	})
}
