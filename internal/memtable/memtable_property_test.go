package memtable

// Property tests for iterators left open while later inserts land. The
// write path inserts into a memtable while flushes and reads walk it;
// one runner runs at a time, so an insert lands between two steps of a
// walk, never inside one. These tests interleave the two on one
// goroutine, at every step.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// propVal encodes the (key, seq) identity into the stored value so a
// reader can verify an entry carries its own bytes.
func propVal(key []byte, seq uint64) []byte {
	return []byte(fmt.Sprintf("%s|%d", key, seq))
}

// walkWhileInserting positions an iterator at the first entry and steps
// it to the end, calling insert before each of its first 500 steps. It
// checks that the walk is strictly ordered — key ascending, seq
// descending within a key — and that every entry carries its own bytes,
// and returns the (key, seq) pairs it visited.
func walkWhileInserting(t *testing.T, m *Table, insert func()) map[string]uint64 {
	t.Helper()
	seen := map[string]uint64{}
	it := m.NewIterator()
	var prevKey []byte
	var prevSeq uint64
	for it.SeekToFirst(); it.Valid(); it.Next() {
		e := it.Entry()
		if prevKey != nil {
			switch c := bytes.Compare(prevKey, e.Key); {
			case c > 0:
				t.Fatalf("keys out of order: %q then %q", prevKey, e.Key)
			case c == 0 && e.Seq >= prevSeq:
				t.Fatalf("key %q: seqs not descending: %d then %d", e.Key, prevSeq, e.Seq)
			}
		}
		if !bytes.Equal(e.Value, propVal(e.Key, e.Seq)) {
			t.Fatalf("(%q, %d) carries value %q", e.Key, e.Seq, e.Value)
		}
		id := fmt.Sprintf("%s@%d", e.Key, e.Seq)
		if _, dup := seen[id]; dup {
			t.Fatalf("(%q, %d) visited twice", e.Key, e.Seq)
		}
		seen[id] = e.Seq
		prevKey = append(prevKey[:0], e.Key...)
		prevSeq = e.Seq
		if len(seen) <= 500 {
			insert()
		}
	}
	return seen
}

// TestMemtableConcurrentIterateOrdered: an iterator left open while later
// inserts land visits every entry that was present when it was
// positioned exactly once, in order, whatever lands beside them.
func TestMemtableConcurrentIterateOrdered(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New(0)
		var seq uint64
		add := func() {
			key := []byte(fmt.Sprintf("it%04d", rng.Intn(200)))
			seq++
			m.Add(seq, KindPut, key, propVal(key, seq))
		}
		for i := 0; i < 500; i++ {
			add()
		}
		present := map[string]uint64{}
		it := m.NewIterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			e := it.Entry()
			present[fmt.Sprintf("%s@%d", e.Key, e.Seq)] = e.Seq
		}
		seen := walkWhileInserting(t, m, func() {
			for n := rng.Intn(4); n > 0; n-- {
				add()
			}
		})
		for id := range present {
			if _, ok := seen[id]; !ok {
				t.Fatalf("seed %d: %s was present when the walk began and was not visited", seed, id)
			}
		}
	}
}

// TestMemtableIteratorSnapshotStability: entries at seq <= S form a stable
// snapshot. A walk left open while overwrites of the snapshot's keys and
// brand-new keys land above the bound sees exactly the snapshot below it.
func TestMemtableIteratorSnapshotStability(t *testing.T) {
	const preKeys = 300
	m := New(0)
	want := make(map[string]uint64, preKeys)
	for i := 0; i < preKeys; i++ {
		key := []byte(fmt.Sprintf("sn%04d", i))
		seq := uint64(i + 1)
		m.Add(seq, KindPut, key, propVal(key, seq))
		want[string(key)] = seq
	}
	bound := uint64(preKeys) // snapshot S
	seq := bound
	rng := rand.New(rand.NewSource(31))
	for pass := 0; pass < 10; pass++ {
		got := map[string]uint64{}
		for id, s := range walkWhileInserting(t, m, func() {
			var key []byte
			if rng.Intn(2) == 0 {
				key = []byte(fmt.Sprintf("sn%04d", rng.Intn(preKeys)))
			} else {
				key = []byte(fmt.Sprintf("zz%04d", rng.Intn(preKeys)))
			}
			seq++
			m.Add(seq, KindPut, key, propVal(key, seq))
		}) {
			if s > bound {
				continue
			}
			key := id[:len(id)-len(fmt.Sprintf("@%d", s))]
			if prev, dup := got[key]; dup {
				t.Fatalf("pass %d: key %q has two entries <= bound (seq %d and %d)", pass, key, prev, s)
			}
			got[key] = s
		}
		if len(got) != len(want) {
			t.Fatalf("pass %d: snapshot drifted: %d keys, want %d", pass, len(got), len(want))
		}
		for k, s := range want {
			if got[k] != s {
				t.Fatalf("pass %d: key %s: snapshot seq %d, want %d", pass, k, got[k], s)
			}
		}
	}
}
