package sstable

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

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
	data, meta, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return &memSource{data: data}, meta
}

func TestBuildAndGet(t *testing.T) {
	src, meta := buildTable(t, 100, DefaultBuilderOptions())
	if meta.Entries != 100 || string(meta.Smallest) != "key00000" || string(meta.Largest) != "key00099" {
		t.Fatalf("meta = %+v", meta)
	}
	run(t, func(r *vclock.Runner) {
		rd, err := Open(r, src, 1, nil)
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
	data, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	run(t, func(r *vclock.Runner) {
		rd, err := Open(r, &memSource{data: data}, 1, nil)
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
	data, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	run(t, func(r *vclock.Runner) {
		rd, _ := Open(r, &memSource{data: data}, 1, nil)
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
		rd, err := Open(r, src, 1, nil)
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
		rd, _ := Open(r, src, 1, nil)
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
		rd, err := Open(r, src, 1, nil)
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

func TestBlockCacheAvoidsRereads(t *testing.T) {
	src, _ := buildTable(t, 100, DefaultBuilderOptions())
	cache := NewBlockCache(1 << 20)
	run(t, func(r *vclock.Runner) {
		rd, err := Open(r, src, 42, cache)
		if err != nil {
			t.Fatal(err)
		}
		key := []byte("key00050")
		if _, _, found, _ := rd.Get(r, key); !found {
			t.Fatal("key not found")
		}
		base := src.reads
		for i := 0; i < 10; i++ {
			if _, _, found, _ := rd.Get(r, key); !found {
				t.Fatal("key not found on cached read")
			}
		}
		if src.reads != base {
			t.Fatalf("cached gets performed %d source reads", src.reads-base)
		}
		cs := cache.Stats()
		if cs.Hits < 10 || cs.Used == 0 {
			t.Fatalf("cache stats: %+v", cs)
		}
	})
}

func TestBlockCacheEviction(t *testing.T) {
	c := NewBlockCache(100)
	c.Put(1, 0, make([]byte, 60))
	c.Put(1, 60, make([]byte, 60)) // evicts the first
	if _, ok := c.Get(1, 0); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.Get(1, 60); !ok {
		t.Fatal("recent entry evicted")
	}
	c.Put(2, 0, make([]byte, 200)) // larger than capacity: not stored
	if _, ok := c.Get(2, 0); ok {
		t.Fatal("oversized entry stored")
	}
	c.EvictFile(1)
	if _, ok := c.Get(1, 60); ok {
		t.Fatal("EvictFile left entries behind")
	}
}

func TestCorruptFooterRejected(t *testing.T) {
	src, _ := buildTable(t, 10, DefaultBuilderOptions())
	src.data[len(src.data)-1] ^= 0xff // clobber magic
	run(t, func(r *vclock.Runner) {
		if _, err := Open(r, src, 1, nil); err == nil {
			t.Fatal("corrupt magic accepted")
		}
	})
	run(t, func(r *vclock.Runner) {
		if _, err := Open(r, &memSource{data: []byte("tiny")}, 1, nil); err == nil {
			t.Fatal("truncated table accepted")
		}
	})
}

func TestVerifyChecksum(t *testing.T) {
	src, _ := buildTable(t, 50, DefaultBuilderOptions())
	run(t, func(r *vclock.Runner) {
		rd, err := Open(r, src, 1, nil)
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
		data, _, err := b.Finish()
		if err != nil {
			return false
		}
		ok := true
		c := vclock.New()
		c.Go("check", func(r *vclock.Runner) {
			rd, err := Open(r, &memSource{data: data}, 1, nil)
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
	data, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	run(t, func(r *vclock.Runner) {
		rd, err := Open(r, &memSource{data: data}, 1, nil)
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
// in the room the builder adds).
func TestSizeHintOnlyPresizes(t *testing.T) {
	build := func(hint int) []byte {
		b := NewBuilder(DefaultBuilderOptions())
		if hint > 0 {
			b.SizeHint(hint)
		}
		for i := 0; i < 2000; i++ {
			key := []byte(fmt.Sprintf("key%05d", i))
			if err := b.Add(key, uint64(i+1), memtable.KindPut, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
				t.Fatal(err)
			}
		}
		data, _, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	plain := build(0)
	if low := build(64); !bytes.Equal(low, plain) {
		t.Error("a low size hint changed the table's bytes")
	}
	const hint = 256 << 10
	sized := build(hint)
	if !bytes.Equal(sized, plain) {
		t.Error("a size hint changed the table's bytes")
	}
	if want := hint + hint/16 + footerSize; cap(sized) != want {
		t.Errorf("table buffer has capacity %d, want the %d allocated up front (it was regrown)", cap(sized), want)
	}
}
