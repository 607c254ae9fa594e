package lsm

import (
	"bytes"
	"testing"

	"kvaccel/internal/encoding"
	"kvaccel/internal/vlog"
)

// FuzzDecodeManifest feeds decodeManifest the bytes Reopen reads from
// MANIFEST-<n>. The checksum is recomputed over the fuzzed body, so the
// fuzzer reaches the parser instead of the checksum compare. No input may
// panic, and one that decodes must be exactly what its snapshot encodes
// to: a manifest has one encoding.
func FuzzDecodeManifest(f *testing.F) {
	files := []manifestFile{
		{num: 7, level: 0, smallest: []byte("a"), largest: []byte("k"), size: 4096, entries: 12},
		{num: 9, level: 3, smallest: []byte{}, largest: bytes.Repeat([]byte("z"), 200), size: 1 << 40, entries: 1},
	}
	segs := vlog.ManifestState{NextSeg: 5}
	for _, s := range []manifestSnapshot{
		{},
		{nextFileNum: 10, seq: 1234, files: files},
		{nextFileNum: 10, seq: 1234, files: files, hasVLog: true, vlogState: segs},
	} {
		b := encodeManifest(s)
		f.Add(b[:len(b)-4])
	}
	// One file whose smallest key's length is padded to two bytes (0x81
	// 0x00 for 1): it must not decode, for it cannot encode back to itself.
	padded := encoding.PutU32(nil, manifestMagic)
	padded = encoding.PutU64(padded, 10)
	padded = encoding.PutU64(padded, 1234)
	padded = encoding.PutU32(padded, 1)
	padded = encoding.PutU64(padded, 7)
	padded = encoding.PutU32(padded, 0)
	padded = append(padded, 0x81, 0x00, 'a', 0x01, 'k')
	padded = encoding.PutU64(padded, 4096)
	f.Add(encoding.PutU32(padded, 12))
	f.Fuzz(func(t *testing.T, body []byte) {
		b := encoding.PutU32(append([]byte(nil), body...), encoding.Checksum(body))
		s, err := decodeManifest(b)
		if err != nil {
			return
		}
		if got := encodeManifest(s); !bytes.Equal(got, b) {
			t.Fatalf("decoded manifest re-encodes to\n%x\nwant\n%x", got, b)
		}
	})
}

// FuzzDecodeBatch feeds decodeBatch the WAL record payloads replay hands
// it, seeded with group-commit records: no input may panic, and every op
// must come back as views whose capacity ends where they do, so that
// nothing appended to one overwrites the op behind it (after replay, a
// memtable entry).
func FuzzDecodeBatch(f *testing.F) {
	var a, b Batch
	a.Put([]byte("k1"), []byte("v1"))
	a.Delete([]byte("k2"))
	b.Put(bytes.Repeat([]byte("k"), 300), bytes.Repeat([]byte("v"), 200))
	wa, wb := &groupWriter{ops: a.ops}, &groupWriter{ops: b.ops}
	f.Add(appendGroupPayload(nil, []*groupWriter{wa}, a.Len()))
	f.Add(appendGroupPayload(nil, []*groupWriter{wa, wb}, a.Len()+b.Len()))
	f.Fuzz(func(t *testing.T, p []byte) {
		_ = decodeBatch(p, func(op loggedOp) error {
			for _, v := range [][]byte{op.kv, op.key(), op.value()} {
				if cap(v) != len(v) {
					t.Fatalf("op view has %d bytes and capacity %d", len(v), cap(v))
				}
			}
			return nil
		})
	})
}
