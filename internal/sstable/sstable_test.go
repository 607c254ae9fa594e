package sstable

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"kvaccel/internal/encoding"
	"kvaccel/internal/fold"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// memSource serves table bytes from memory and counts reads.
type memSource struct {
	data  []byte
	reads int
}

func (s *memSource) ReadAt(r *vclock.Runner, off, length int) ([]byte, error) {
	s.reads++
	if off < 0 || off+length > len(s.data) {
		return nil, fmt.Errorf("memSource: read [%d,%d) out of %d", off, off+length, len(s.data))
	}
	out := make([]byte, length)
	copy(out, s.data[off:off+length])
	return out, nil
}
func (s *memSource) Size() int { return len(s.data) }

func run(t *testing.T, fn func(r *vclock.Runner)) {
	t.Helper()
	c := vclock.New()
	c.Go("test", fn)
	c.Wait()
}

func buildTable(t *testing.T, n int, opt BuilderOptions) (*memSource, Meta) {
	t.Helper()
	b := NewBuilder(opt)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key%05d", i))
		val := []byte(fmt.Sprintf("value-%d", i))
		if err := b.Add(key, uint64(n-i), memtable.KindPut, val); err != nil {
			t.Fatal(err)
		}
	}
	dataPayload, meta, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	data := flat(dataPayload)
	return &memSource{data: data}, meta
}

func TestBuildAndGet(t *testing.T) {
	src, meta := buildTable(t, 100, DefaultBuilderOptions())
	if meta.Entries != 100 || string(meta.Smallest) != "key00000" || string(meta.Largest) != "key00099" {
		t.Fatalf("meta = %+v", meta)
	}
	run(t, func(r *vclock.Runner) {
		rd, err := Open(r, src)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i += 7 {
			key := []byte(fmt.Sprintf("key%05d", i))
			v, kind, found, err := rd.Get(r, key)
			if err != nil || !found || kind != memtable.KindPut {
				t.Fatalf("Get(%s): found=%v kind=%v err=%v", key, found, kind, err)
			}
			if want := fmt.Sprintf("value-%d", i); string(v) != want {
				t.Fatalf("Get(%s) = %q, want %q", key, v, want)
			}
		}
		if _, _, found, _ := rd.Get(r, []byte("zzz")); found {
			t.Fatal("absent key found")
		}
		if _, _, found, _ := rd.Get(r, []byte("aaa")); found {
			t.Fatal("key before table start found")
		}
	})
}

func TestTombstoneRoundTrip(t *testing.T) {
	b := NewBuilder(DefaultBuilderOptions())
	_ = b.Add([]byte("dead"), 9, memtable.KindDelete, nil)
	_ = b.Add([]byte("live"), 8, memtable.KindPut, []byte("v"))
	dataPayload, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	data := flat(dataPayload)
	run(t, func(r *vclock.Runner) {
		rd, err := Open(r, &memSource{data: data})
		if err != nil {
			t.Fatal(err)
		}
		_, kind, found, _ := rd.Get(r, []byte("dead"))
		if !found || kind != memtable.KindDelete {
			t.Fatalf("tombstone: found=%v kind=%v", found, kind)
		}
	})
}

func TestNewestVersionFirstWithinKey(t *testing.T) {
	b := NewBuilder(DefaultBuilderOptions())
	_ = b.Add([]byte("k"), 9, memtable.KindPut, []byte("new"))
	_ = b.Add([]byte("k"), 3, memtable.KindPut, []byte("old"))
	dataPayload, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	data := flat(dataPayload)
	run(t, func(r *vclock.Runner) {
		rd, _ := Open(r, &memSource{data: data})
		v, _, found, _ := rd.Get(r, []byte("k"))
		if !found || string(v) != "new" {
			t.Fatalf("Get = %q, want new", v)
		}
	})
}

func TestOutOfOrderAddRejected(t *testing.T) {
	b := NewBuilder(DefaultBuilderOptions())
	_ = b.Add([]byte("b"), 1, memtable.KindPut, nil)
	if err := b.Add([]byte("a"), 2, memtable.KindPut, nil); err == nil {
		t.Fatal("descending user key accepted")
	}
	if err := b.Add([]byte("b"), 1, memtable.KindPut, nil); err == nil {
		t.Fatal("duplicate internal key accepted")
	}
	if err := b.Add([]byte("b"), 5, memtable.KindPut, nil); err == nil {
		t.Fatal("ascending seq within key accepted")
	}
}

func TestEmptyTableRejected(t *testing.T) {
	b := NewBuilder(DefaultBuilderOptions())
	if _, _, err := b.Finish(); err == nil {
		t.Fatal("empty Finish succeeded")
	}
}

func TestIteratorFullScan(t *testing.T) {
	src, _ := buildTable(t, 500, BuilderOptions{BlockSize: 256, BloomBits: 10})
	run(t, func(r *vclock.Runner) {
		rd, err := Open(r, src)
		if err != nil {
			t.Fatal(err)
		}
		it := rd.NewIterator(r)
		n := 0
		var prev []byte
		for it.SeekToFirst(); it.Valid(); it.Next() {
			e := it.Entry()
			if prev != nil && bytes.Compare(prev, e.Key) >= 0 {
				t.Fatalf("iterator out of order: %q then %q", prev, e.Key)
			}
			prev = append(prev[:0], e.Key...)
			n++
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		if n != 500 {
			t.Fatalf("scanned %d records, want 500", n)
		}
	})
}

func TestIteratorSeek(t *testing.T) {
	src, _ := buildTable(t, 200, BuilderOptions{BlockSize: 128, BloomBits: 10})
	run(t, func(r *vclock.Runner) {
		rd, _ := Open(r, src)
		it := rd.NewIterator(r)
		it.Seek([]byte("key00150"))
		if !it.Valid() || string(it.Entry().Key) != "key00150" {
			t.Fatalf("Seek exact landed on %q", it.Entry().Key)
		}
		it.Seek([]byte("key00150x")) // between 150 and 151
		if !it.Valid() || string(it.Entry().Key) != "key00151" {
			t.Fatalf("Seek between landed on %q", it.Entry().Key)
		}
		it.Seek([]byte("zzz"))
		if it.Valid() {
			t.Fatal("Seek past end valid")
		}
		it.Seek([]byte("")) // before start
		if !it.Valid() || string(it.Entry().Key) != "key00000" {
			t.Fatal("Seek before start did not land on first record")
		}
	})
}

func TestBloomSkipsBlockReads(t *testing.T) {
	src, _ := buildTable(t, 1000, DefaultBuilderOptions())
	run(t, func(r *vclock.Runner) {
		rd, err := Open(r, src)
		if err != nil {
			t.Fatal(err)
		}
		base := src.reads
		misses := 0
		for i := 0; i < 100; i++ {
			_, _, found, _ := rd.Get(r, []byte(fmt.Sprintf("absent%05d", i)))
			if found {
				t.Fatal("absent key found")
			}
			misses++
		}
		// With a 10-bit bloom, ~99% of absent-key gets should cost zero
		// block reads.
		extra := src.reads - base
		if extra > misses/4 {
			t.Fatalf("%d block reads for %d absent keys; bloom not effective", extra, misses)
		}
	})
}

func TestCorruptFooterRejected(t *testing.T) {
	src, _ := buildTable(t, 10, DefaultBuilderOptions())
	src.data[len(src.data)-1] ^= 0xff // clobber magic
	run(t, func(r *vclock.Runner) {
		if _, err := Open(r, src); err == nil {
			t.Fatal("corrupt magic accepted")
		}
	})
	run(t, func(r *vclock.Runner) {
		if _, err := Open(r, &memSource{data: []byte("tiny")}); err == nil {
			t.Fatal("truncated table accepted")
		}
	})
}

func TestVerifyChecksum(t *testing.T) {
	src, _ := buildTable(t, 50, DefaultBuilderOptions())
	run(t, func(r *vclock.Runner) {
		rd, err := Open(r, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := rd.VerifyChecksum(r); err != nil {
			t.Fatalf("pristine table failed checksum: %v", err)
		}
		src.data[10] ^= 1
		if err := rd.VerifyChecksum(r); err == nil {
			t.Fatal("bit flip passed checksum")
		}
	})
}

func TestRoundTripProperty(t *testing.T) {
	f := func(raw map[string]string) bool {
		if len(raw) == 0 {
			return true
		}
		keys := make([]string, 0, len(raw))
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b := NewBuilder(BuilderOptions{BlockSize: 64, BloomBits: 10})
		for i, k := range keys {
			if err := b.Add([]byte(k), uint64(len(keys)-i), memtable.KindPut, []byte(raw[k])); err != nil {
				return false
			}
		}
		dataPayload, _, err := b.Finish()
		if err != nil {
			return false
		}
		data := flat(dataPayload)
		ok := true
		c := vclock.New()
		c.Go("check", func(r *vclock.Runner) {
			rd, err := Open(r, &memSource{data: data})
			if err != nil {
				ok = false
				return
			}
			for k, want := range raw {
				v, _, found, err := rd.Get(r, []byte(k))
				if err != nil || !found || string(v) != want {
					ok = false
					return
				}
			}
		})
		c.Wait()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionsStraddlingBlockBoundary(t *testing.T) {
	// Regression: when many versions of one key straddle a block
	// boundary, Get must return the newest (found by a 4000-step
	// full-stack fuzz). Block size 64 forces one or two records per
	// block, so key "mmm"'s versions span several blocks.
	b := NewBuilder(BuilderOptions{BlockSize: 64, BloomBits: 10})
	_ = b.Add([]byte("aaa"), 100, memtable.KindPut, bytes.Repeat([]byte("x"), 50))
	for seq := uint64(90); seq > 80; seq-- {
		val := []byte(fmt.Sprintf("v%d-%s", seq, bytes.Repeat([]byte("y"), 40)))
		if err := b.Add([]byte("mmm"), seq, memtable.KindPut, val); err != nil {
			t.Fatal(err)
		}
	}
	_ = b.Add([]byte("zzz"), 70, memtable.KindPut, []byte("tail"))
	dataPayload, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	data := flat(dataPayload)
	run(t, func(r *vclock.Runner) {
		rd, err := Open(r, &memSource{data: data})
		if err != nil {
			t.Fatal(err)
		}
		v, _, found, err := rd.Get(r, []byte("mmm"))
		if err != nil || !found {
			t.Fatalf("Get(mmm): found=%v err=%v", found, err)
		}
		if !bytes.HasPrefix(v, []byte("v90-")) {
			t.Fatalf("Get(mmm) returned %.8q, want the newest version v90-", v)
		}
		// Iterator.Seek must also land on the newest version.
		it := rd.NewIterator(r)
		it.Seek([]byte("mmm"))
		if !it.Valid() || it.Entry().Seq != 90 {
			t.Fatalf("Seek(mmm) landed on seq %d, want 90", it.Entry().Seq)
		}
	})
}

// TestSizeHintOnlyPresizes checks that a hint changes nothing but the
// buffer's allocation: the same bytes come out with no hint, a hint far
// too low and a sufficient one, and with the sufficient one the buffer
// allocated up front is the one returned (index, filter and footer fit
// in the room the builder adds). A table whose values do not fold gets
// the room it always got; one whose values fold, the room for what it
// keeps of them, and one allocation more than the other: its piece list,
// which is not regrown either.
func TestSizeHintOnlyPresizes(t *testing.T) {
	keys := make([][]byte, 2000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%05d", i))
	}
	var allocs [2]float64
	for k, tc := range []struct {
		name  string
		value func(i int) []byte
	}{
		{"short values", func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100) }},
		{"folding values", func(i int) []byte {
			return bytes.Repeat([]byte(fmt.Sprintf("%016x", uint64(i+1)*0x9e3779b97f4a7c15)), 256)
		}},
	} {
		values := make([][]byte, len(keys))
		for i := range values {
			values[i] = tc.value(i)
		}
		// build returns the table and the capacity of the buffer the
		// first Add allocated.
		build := func(hint int) (fold.Payload, int) {
			b := NewBuilder(DefaultBuilderOptions())
			if hint > 0 {
				b.SizeHint(hint)
			}
			first := 0
			for i, key := range keys {
				if err := b.Add(key, uint64(i+1), memtable.KindPut, values[i]); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first = cap(b.buf)
				}
			}
			p, _, err := b.Finish()
			if err != nil {
				t.Fatal(err)
			}
			return p, first
		}
		plain, _ := build(0)
		if low, _ := build(64); !bytes.Equal(flat(low), flat(plain)) {
			t.Errorf("%s: a low size hint changed the table's bytes", tc.name)
		}
		hint := len(keys) * (encoding.RecordSize(len(keys[0]), len(values[0])) + 9)
		sized, first := build(hint)
		if !bytes.Equal(flat(sized), flat(plain)) {
			t.Errorf("%s: a size hint changed the table's bytes", tc.name)
		}
		if folds := k == 1; sized.Folded() != folds {
			t.Errorf("%s: table folded %v, want %v", tc.name, sized.Folded(), folds)
		}
		if got := cap(sized.Lit()); got != first {
			t.Errorf("%s: table buffer has capacity %d, want the %d allocated up front (it was regrown)", tc.name, got, first)
		}
		if want := hint + hint/16 + footerSize; k == 0 && first != want {
			t.Errorf("%s: table buffer of %d bytes, want %d", tc.name, first, want)
		}
		if k == 1 && first > len(flat(sized))/16 {
			t.Errorf("%s: a folded table of %d bytes was given a %d-byte buffer", tc.name, len(flat(sized)), first)
		}
		if !raceEnabled {
			allocs[k] = testing.AllocsPerRun(3, func() { build(hint) })
		}
	}
	if !raceEnabled && allocs[1] != allocs[0]+1 {
		t.Errorf("a folding table's build allocates %v times, a short-valued one's %v: want one more, its piece list", allocs[1], allocs[0])
	}
}

// TestHashListSizedByKeysSeen: a hinted builder sizes the filter's hash
// list again by the keys per byte it has seen, so a short first record (a
// tombstone) ahead of long values does not leave it sized for the hint in
// tombstones.
func TestHashListSizedByKeysSeen(t *testing.T) {
	const n = 2000
	value := make([]byte, 4000)
	b := NewBuilder(DefaultBuilderOptions())
	b.SizeHint(n * (encoding.RecordSize(8, len(value)) + 9))
	for i := 0; i < n; i++ {
		kind, v := memtable.KindPut, value
		if i == 0 {
			kind, v = memtable.KindDelete, nil
		}
		if err := b.Add([]byte(fmt.Sprintf("key%05d", i)), 1, kind, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(b.hashes) != n || cap(b.hashes) > 2*n {
		t.Errorf("%d hashes in a list of %d, want at most %d", len(b.hashes), cap(b.hashes), 2*n)
	}
}

// flat is a built table's bytes, its folds materialised.
func flat(p fold.Payload) []byte { return p.Read(0, p.Len()) }
