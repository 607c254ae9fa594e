package lsm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"kvaccel/internal/encoding"
	"kvaccel/internal/fs"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
	"kvaccel/internal/wal"
)

// goldenGroups is a fixed input of 200 write groups: one to five members
// of one to three records each, puts, tombstones and value pointers, keys
// of 0 to 200 bytes and values from empty to 5 000 bytes.
func goldenGroups() (groups [][]*groupWriter) {
	rng := rand.New(rand.NewSource(29))
	bytesOf := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for g := 0; g < 200; g++ {
		var group []*groupWriter
		for m := 1 + rng.Intn(5); m > 0; m-- {
			w := &groupWriter{}
			for o := 1 + rng.Intn(3); o > 0; o-- {
				op := batchOp{kind: memtable.KindPut, key: bytesOf([]int{16, 16, 16, 0, 1, 127, 128, 200}[rng.Intn(8)])}
				switch rng.Intn(8) {
				case 0:
					op.kind = memtable.KindDelete
				case 1:
					op.kind, op.value = memtable.KindValuePtr, bytesOf(encoding.ValuePointerSize)
				default:
					op.value = bytesOf([]int{0, 1, 100, 127, 128, 1000, 4096, 5000}[rng.Intn(8)])
				}
				w.ops = append(w.ops, op)
				w.bytes += len(op.key) + len(op.value) + 16
			}
			group = append(group, w)
		}
		groups = append(groups, group)
	}
	return groups
}

func groupTotals(group []*groupWriter) (recs, size int) {
	for _, m := range group {
		recs += len(m.ops)
		size += m.bytes
	}
	return recs, size
}

// referenceWAL is the log file the encoders before encode-in-place
// produced for the groups: a payload rendered into a buffer of its own,
// then framed (u32 length, u32 CRC32C) into the log. The format is
// defined by what it emits.
func referenceWAL(groups [][]*groupWriter) []byte {
	var file []byte
	for _, group := range groups {
		recs, size := groupTotals(group)
		out := make([]byte, 0, size+16)
		out = append(out, walBatchMarker)
		out = encoding.PutUvarint(out, uint64(recs))
		for _, m := range group {
			for _, op := range m.ops {
				out = append(out, byte(op.kind))
				out = encoding.PutUvarint(out, uint64(len(op.key)))
				out = append(out, op.key...)
				out = encoding.PutUvarint(out, uint64(len(op.value)))
				out = append(out, op.value...)
			}
		}
		file = encoding.PutU32(file, uint32(len(out)))
		file = encoding.PutU32(file, encoding.Checksum(out))
		file = append(file, out...)
	}
	return file
}

// goldenWALSHA256 is the digest of the log file the parent commit's
// encodeGroupPayload + wal.Log.Append + coalescing write-back produced
// from goldenGroups.
const goldenWALSHA256 = "e220d8d6e7ce5014bfe4be728b5330d426af09f4de5c73f9e15d7fc35d825f8a"

// TestGoldenWALBytes pins the log format across encode-in-place and the
// chunk-list write-back: the groups go through wal.Log.Append with small
// chunks (so records straddle many hand-offs and several chunks reach
// the file system in one append) and the file must hold the reference
// bytes, replay record for record, and hand back each payload as it was encoded.
func TestGoldenWALBytes(t *testing.T) {
	groups := goldenGroups()
	want := referenceWAL(groups)
	clk := vclock.New()
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 16, perPage: 0})
	lg := wal.Open(clk, fsys, "golden.log", wal.Options{ChunkSize: 8 << 10, QueueDepth: 4})
	var got []byte
	clk.Go("golden", func(r *vclock.Runner) {
		defer lg.Close()
		for i, group := range groups {
			recs, size := groupTotals(group)
			payload, err := lg.Append(r, size+16, func(dst []byte) []byte { return appendGroupPayload(dst, group, recs) })
			if err != nil {
				t.Errorf("group %d: %v", i, err)
				return
			}
			if ref := appendGroupPayload(nil, group, recs); !bytes.Equal(payload, ref) {
				t.Errorf("group %d: Append returns a %d-byte payload unlike the %d bytes encoded alone", i, len(payload), len(ref))
			}
		}
		if err := lg.Sync(r); err != nil {
			t.Error(err)
			return
		}
		var err error
		if got, err = fsys.ReadFile(r, "golden.log"); err != nil {
			t.Error(err)
		}
		g := 0
		err = wal.Replay(r, fsys, "golden.log", func(payload []byte) error {
			recs, _ := groupTotals(groups[g])
			n := 0
			derr := decodeBatch(payload, func(loggedOp) error { n++; return nil })
			if derr != nil || n != recs {
				t.Errorf("replayed group %d: %d records, err %v; want %d", g, n, derr, recs)
			}
			g++
			return nil
		})
		if err != nil || g != len(groups) {
			t.Errorf("replayed %d groups of %d, err %v", g, len(groups), err)
		}
	})
	clk.Wait()
	if !bytes.Equal(got, want) {
		t.Fatalf("log file differs from the reference encoders' (%d bytes against %d)", len(got), len(want))
	}
	sum := sha256.Sum256(got)
	if hex.EncodeToString(sum[:]) != goldenWALSHA256 {
		t.Errorf("log digest %x, want the parent encoders' %s", sum, goldenWALSHA256)
	}
}
