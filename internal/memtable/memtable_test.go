package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
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
			if op.Del {
				m.Add(seq, KindDelete, key, nil)
				model[string(key)] = ref{kind: KindDelete}
			} else {
				v := []byte(fmt.Sprintf("v%d", seq))
				m.Add(seq, KindPut, key, v)
				model[string(key)] = ref{kind: KindPut, val: v}
			}
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

// BenchmarkAdd inserts 4 KiB values under random 16-byte keys into tables
// rotated at the benchmark's 12.8 MB write buffer, so the skiplist depth
// stays what a run sees.
func BenchmarkAdd(b *testing.B) {
	const valueSize, writeBuffer = 4096, 128 << 20 / 10
	b.ReportAllocs()
	b.SetBytes(16 + valueSize)
	m := New(writeBuffer)
	key, val := make([]byte, 16), make([]byte, valueSize)
	rng := rand.New(rand.NewSource(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Read(key)
		if m.ApproximateSize() > writeBuffer {
			m = New(writeBuffer)
		}
		m.Add(uint64(i+1), KindPut, key, val)
	}
}

func BenchmarkGet(b *testing.B) {
	m := New(0)
	for i := 0; i < 100000; i++ {
		m.Add(uint64(i), KindPut, []byte(fmt.Sprintf("key%06d", i)), []byte("v"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get([]byte(fmt.Sprintf("key%06d", i%100000)))
	}
}
