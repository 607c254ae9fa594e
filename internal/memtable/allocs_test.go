package memtable

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is on: its
// instrumentation allocates, so allocation counts mean nothing.
var raceEnabled bool

// mallocsPer runs fn n times and returns the heap allocations per run as
// a fraction (testing.AllocsPerRun rounds down to a whole number, which
// cannot hold an amortised cost to a twentieth).
func mallocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestAllocsAdd pins the slab allocator's point: an insert carves its
// node, tower, key and value from slabs, so over a table's life the
// allocations are the slabs, not four per entry.
func TestAllocsAdd(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const inserts = 10000
	for _, valueSize := range []int{16, 4096} {
		key, value := make([]byte, 16), make([]byte, valueSize)
		m := New(int64(inserts * (len(key) + valueSize + 32)))
		var seq uint64
		perAdd := mallocsPer(inserts, func() {
			seq++
			binary.BigEndian.PutUint64(key, seq*0x9e3779b97f4a7c15)
			m.Add(seq, KindPut, key, value)
		})
		t.Logf("%d-byte values: %.4f allocations per Add over %d inserts", valueSize, perAdd, inserts)
		if perAdd > 0.05 {
			t.Errorf("%d-byte values: %.4f allocations per Add over %d inserts, want <= 0.05", valueSize, perAdd, inserts)
		}
	}
}

// TestAllocsNew: slabs are opened by the first Add, so
// engines that open many memtables they never fill (shards, Dev-LSMs) pay
// one small allocation each.
func TestAllocsNew(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var m *Table
	if n := testing.AllocsPerRun(100, func() { m = New(128 << 20) }); n != 1 {
		t.Errorf("New made %v allocations, want 1", n)
	}
	if m.nodes != nil || m.towers != nil || m.data != nil {
		t.Error("New opened a slab")
	}
}

// TestAllocsSmallTable is the sizing rule: slabs start small and
// double, so a nearly empty table under a large write buffer (a serving
// shard's 128 MiB memtable holding a few hundred 128-byte values) holds
// kilobytes, not a slab sized for the buffer.
func TestAllocsSmallTable(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	key, value := make([]byte, 16), make([]byte, 128)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(128 << 20)
	for i := uint64(1); i <= 100; i++ {
		binary.BigEndian.PutUint64(key, i)
		m.Add(i, KindPut, key, value)
	}
	runtime.ReadMemStats(&after)
	payload := uint64(100 * (16 + 128))
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*payload {
		t.Errorf("100 small entries allocated %d bytes, want <= %d (4x payload)", got, 4*payload)
	}
}

// TestMemtableConcurrentAddAcrossSlabs interleaves the inserts of eight
// writers, as their group commits interleave, with entries large enough
// that every slab type is replaced many times, then checks the iterator
// sees every entry exactly once, in order, with its own bytes.
func TestMemtableConcurrentAddAcrossSlabs(t *testing.T) {
	const writers, perWriter, valueSize = 8, 1500, 600
	m := New(0) // smallest slab bound: 64 KiB, so ~100 entries per byte slab
	value := make([]byte, valueSize)
	for i := 0; i < perWriter; i++ {
		for w := 0; w < writers; w++ {
			key := []byte(fmt.Sprintf("key-%05d", i*writers+w))
			for j := range value {
				value[j] = key[len(key)-1-j%5]
			}
			m.Add(uint64(i*writers+w+1), KindPut, key, value)
		}
	}
	it := m.NewIterator()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		e := it.Entry()
		if want := fmt.Sprintf("key-%05d", n); string(e.Key) != want {
			t.Fatalf("entry %d has key %q, want %q", n, e.Key, want)
		}
		if e.Seq != uint64(n+1) || len(e.Value) != valueSize {
			t.Fatalf("entry %d: seq %d, %d value bytes", n, e.Seq, len(e.Value))
		}
		for j, b := range e.Value {
			if b != e.Key[len(e.Key)-1-j%5] {
				t.Fatalf("entry %d: value byte %d is %q: another entry's bytes", n, j, b)
			}
		}
		n++
	}
	if n != writers*perWriter {
		t.Fatalf("iterated %d entries, want %d", n, writers*perWriter)
	}
	if m.Count() != n {
		t.Fatalf("Count = %d, want %d", m.Count(), n)
	}
}
