package memtable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"kvaccel/internal/encoding"
)

func TestPutGet(t *testing.T) {
	m := New(0)
	m.Add(1, KindPut, []byte("a"), []byte("va"))
	m.Add(2, KindPut, []byte("b"), []byte("vb"))
	v, kind, ok := m.Get([]byte("a"))
	if !ok || kind != KindPut || string(v) != "va" {
		t.Fatalf("Get(a) = %q,%v,%v", v, kind, ok)
	}
	if _, _, ok := m.Get([]byte("zz")); ok {
		t.Fatal("Get of absent key succeeded")
	}
	if m.Count() != 2 {
		t.Fatalf("count = %d", m.Count())
	}
}

func TestNewestVersionWins(t *testing.T) {
	m := New(0)
	m.Add(1, KindPut, []byte("k"), []byte("old"))
	m.Add(5, KindPut, []byte("k"), []byte("new"))
	m.Add(3, KindPut, []byte("k"), []byte("mid"))
	v, _, ok := m.Get([]byte("k"))
	if !ok || string(v) != "new" {
		t.Fatalf("Get = %q, want new (highest seq)", v)
	}
}

func TestTombstoneVisible(t *testing.T) {
	m := New(0)
	m.Add(1, KindPut, []byte("k"), []byte("v"))
	m.Add(2, KindDelete, []byte("k"), nil)
	_, kind, ok := m.Get([]byte("k"))
	if !ok || kind != KindDelete {
		t.Fatalf("tombstone not returned: kind=%v ok=%v", kind, ok)
	}
}

func TestIteratorOrder(t *testing.T) {
	m := New(0)
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, k := range keys {
		m.Add(uint64(i+1), KindPut, []byte(k), []byte("v"))
	}
	it := m.NewIterator()
	var got []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		got = append(got, string(it.Entry().Key))
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("iterated %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestIteratorVersionOrderWithinKey(t *testing.T) {
	m := New(0)
	m.Add(1, KindPut, []byte("k"), []byte("v1"))
	m.Add(3, KindPut, []byte("k"), []byte("v3"))
	m.Add(2, KindDelete, []byte("k"), nil)
	it := m.NewIterator()
	var seqs []uint64
	for it.SeekToFirst(); it.Valid(); it.Next() {
		seqs = append(seqs, it.Entry().Seq)
	}
	if len(seqs) != 3 || seqs[0] != 3 || seqs[1] != 2 || seqs[2] != 1 {
		t.Fatalf("seq order = %v, want [3 2 1] (newest first)", seqs)
	}
}

func TestSeek(t *testing.T) {
	m := New(0)
	for i := 0; i < 100; i += 2 {
		m.Add(uint64(i+1), KindPut, []byte(fmt.Sprintf("key%03d", i)), []byte("v"))
	}
	it := m.NewIterator()
	it.Seek([]byte("key051")) // between key050 and key052
	if !it.Valid() || string(it.Entry().Key) != "key052" {
		t.Fatalf("Seek landed on %q, want key052", it.Entry().Key)
	}
	it.Seek([]byte("key050")) // exact hit
	if !it.Valid() || string(it.Entry().Key) != "key050" {
		t.Fatalf("exact Seek landed on %q", it.Entry().Key)
	}
	it.Seek([]byte("zzz"))
	if it.Valid() {
		t.Fatal("Seek past the end is valid")
	}
}

// logged lays key and value out as a WAL record does — key,
// uvarint(len(value)), value — and returns the span and the prefix's
// length, AddView's arguments.
func logged(key, value []byte) (kv []byte, gap int) {
	kv = append(kv, key...)
	kv = binary.AppendUvarint(kv, uint64(len(value)))
	gap = len(kv) - len(key)
	return append(kv, value...), gap
}

// TestEntryIs40Bytes: a leaf entry is the key's two inline words, the
// seq, the record's pointer and the key and value lengths, with kind and
// gap length beside it in the leaf, so 32 entries fill 20 cache lines.
func TestEntryIs40Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 40 {
		t.Fatalf("entry is %d bytes, want 40", n)
	}
	if n := unsafe.Sizeof(tag{}); n != 2 {
		t.Fatalf("tag is %d bytes, want 2", n)
	}
}

// TestAddViewKeepsTheRecord: AddView keeps the record it is given, not a
// copy — Get and the iterator hand out views of it, skipping the gap —
// opens no byte slab, and counts the same footprint Add does.
func TestAddViewKeepsTheRecord(t *testing.T) {
	views, copies := New(0), New(0)
	value := bytes.Repeat([]byte("v"), 300) // a two-byte length prefix
	var records [][]byte
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		kv, gap := logged(key, value[:i*3])
		records = append(records, kv)
		views.AddView(uint64(i+1), KindPut, kv, len(key), gap)
		copies.Add(uint64(i+1), KindPut, key, value[:i*3])
	}
	if views.data != nil {
		t.Error("AddView opened a byte slab")
	}
	if views.ApproximateSize() != copies.ApproximateSize() {
		t.Errorf("footprint %d, Add's of the same entries %d", views.ApproximateSize(), copies.ApproximateSize())
	}
	v, _, ok := views.Get([]byte("key-099"))
	if rec := records[99]; !ok || len(v) != 297 || &v[0] != &rec[len(rec)-297] {
		t.Errorf("Get(key-099) is not a view of its record's value")
	}
	it := views.NewIterator()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		e := it.Entry()
		if want := fmt.Sprintf("key-%03d", i); string(e.Key) != want || !bytes.Equal(e.Value, value[:i*3]) {
			t.Fatalf("entry %d = %q/%d bytes, want %q/%d", i, e.Key, len(e.Value), want, i*3)
		}
		if cap(e.Key) != len(e.Key) || &e.Key[0] != &records[i][0] {
			t.Fatalf("entry %d: the key is not a clipped view of its record", i)
		}
		i++
	}
	if i != 100 {
		t.Fatalf("iterated %d entries, want 100", i)
	}
}

func TestApproximateSizeGrows(t *testing.T) {
	m := New(0)
	if m.ApproximateSize() != 0 {
		t.Fatal("empty memtable has nonzero size")
	}
	m.Add(1, KindPut, make([]byte, 100), make([]byte, 1000))
	if s := m.ApproximateSize(); s < 1100 {
		t.Fatalf("size = %d, want >= 1100", s)
	}
}

func TestGetMatchesReferenceModel(t *testing.T) {
	// Property: against a map-based reference, Get returns the
	// highest-seq entry for every key.
	f := func(ops []struct {
		Key byte
		Del bool
	}) bool {
		m := New(0)
		type ref struct {
			kind Kind
			val  []byte
		}
		model := map[string]ref{}
		for i, op := range ops {
			key := []byte{op.Key % 16}
			seq := uint64(i + 1)
			kind, v := KindDelete, []byte(nil)
			if !op.Del {
				kind, v = KindPut, []byte(fmt.Sprintf("v%d", seq))
			}
			// Both inserts, one skiplist: odd seqs are copied, even ones
			// kept as views of a logged record.
			if seq%2 == 1 {
				m.Add(seq, kind, key, v)
			} else {
				kv, gap := logged(key, v)
				m.AddView(seq, kind, kv, len(key), gap)
			}
			model[string(key)] = ref{kind: kind, val: v}
		}
		for k, want := range model {
			v, kind, ok := m.Get([]byte(k))
			if !ok || kind != want.kind {
				return false
			}
			if kind == KindPut && !bytes.Equal(v, want.val) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The benchmarks' table is a benchmark run's Main-LSM memtable: the
// 12.8 MB write buffer of the paper's 128 MB at scale 10, filled with
// logged records of encoding.Key16 keys and 128-byte values through
// AddView, about 72 700 of them.
const benchWriteBuffer, benchValueSize = 128 << 20 / 10, 128

// benchRecords returns a full table's worth of logged records, in
// insertion order, under keys drawn at random from ten times as many, and
// AddView's key and gap lengths, which every record shares.
func benchRecords() (recs [][]byte, klen, gap int) {
	rng := rand.New(rand.NewSource(1))
	value := make([]byte, benchValueSize)
	n := benchWriteBuffer / (16 + benchValueSize + 32)
	for i := 0; i < n; i++ {
		var kv []byte
		kv, gap = logged(encoding.Key16(uint64(rng.Intn(10*n))), value)
		recs = append(recs, kv)
	}
	return recs, 16, gap
}

// BenchmarkAdd inserts the records into tables rotated at the write
// buffer, so the tree is as deep as a run's.
func BenchmarkAdd(b *testing.B) {
	recs, klen, gap := benchRecords()
	b.ReportAllocs()
	b.SetBytes(int64(klen + benchValueSize))
	m := New(benchWriteBuffer)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.ApproximateSize() >= benchWriteBuffer {
			m = New(benchWriteBuffer)
		}
		m.AddView(uint64(i+1), KindPut, recs[i%len(recs)], klen, gap)
	}
}

// BenchmarkGet looks the records' keys up in a full table, in the random
// order they went in; the keys sit apart from the records, so a lookup
// reads only what the table reads.
func BenchmarkGet(b *testing.B) {
	recs, klen, gap := benchRecords()
	m := New(benchWriteBuffer)
	keys := make([]byte, 0, len(recs)*klen)
	for i, rec := range recs {
		m.AddView(uint64(i+1), KindPut, rec, klen, gap)
		keys = append(keys, rec[:klen]...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(recs) * klen
		if _, _, ok := m.Get(keys[j : j+klen]); !ok {
			b.Fatalf("key %q is missing", keys[j:j+klen])
		}
	}
}
