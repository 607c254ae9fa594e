package memtable

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// refEntry is one record of the sorted reference FuzzTableOps holds the
// table to.
type refEntry struct {
	key, value []byte
	seq        uint64
	kind       Kind
}

// refFind returns the index of the first reference entry at or after
// (key, seq) in internal-key order.
func refFind(ref []refEntry, key []byte, seq uint64) int {
	return sort.Search(len(ref), func(i int) bool {
		if c := bytes.Compare(ref[i].key, key); c != 0 {
			return c > 0
		}
		return cmp.Compare(seq, ref[i].seq) >= 0
	})
}

// fuzzKey decodes a key of 0 to 40 bytes. Under an odd fill byte its
// first 16 bytes are all 'k', so long keys share both inline words and
// differ only after them; otherwise each byte is 0x00, 'k' or 0xff, which
// makes trailing-zero pairs ("k" and "k\x00") common.
func fuzzKey(next func() byte) []byte {
	key := make([]byte, next()%41)
	shared := next()&1 == 1
	for j := range key {
		if shared && j < 16 {
			key[j] = 'k'
		} else {
			key[j] = [3]byte{0, 'k', 0xff}[next()%3]
		}
	}
	return key
}

// fuzzSeed encodes a few hundred inserts as bursts (op 5) of every key
// shape, with one iterator stepped across them: enough to split leaves,
// the root leaf, and inner nodes.
func fuzzSeed() []byte {
	var s []byte
	s = append(s, 0, 1, 1, 7, 3, 4, 0)       // Add "k" at seq 7<<32|1, kind 3, 4 value bytes
	s = append(s, 1, 2, 0, 0, 1, 9, 0, 2, 3) // AddView "\x00k" with a 3-byte gap
	s = append(s, 3, 0, 0)                   // Seek ""
	for _, mode := range []byte{0, 1, 2, 0, 1} {
		s = append(s, 5, 200, mode, 4, 4, 4, 2, 1, 1, 4) // burst, Next×3, Get "k", Next
	}
	return s
}

// FuzzTableOps drives one table with Add, AddView (with gaps), Get, Seek
// and Next steps, and bursts of inserts, decoded from the fuzzed bytes,
// and holds every read, and the footprint of the newest versions, to a
// sorted reference. One iterator stays open throughout, so the inserts
// that split leaves and the root land between its steps: its current
// entry must not change under them, and its next step must go to the
// entry that follows the current one in the reference as it is by then.
func FuzzTableOps(f *testing.F) {
	f.Add(fuzzSeed())
	// "k" and the newer "k\x00" tie on both words; Get tells them apart.
	f.Add([]byte{0, 1, 1, 7, 0, 4, 0, 0, 2, 0, 1, 0, 9, 0, 4, 0, 2, 1, 1, 2, 2, 0, 1, 0})
	f.Add([]byte{0, 1, 0, 'k', 0, 1, 0, 1, 0, 0, 1, 2, 0, 0, 0, 1, 2, 1, 0, 0, 1, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		m := New(0)
		var ref []refEntry
		var counter, size uint64
		insert := func(seq uint64, kind Kind, key, value []byte, view bool, gap int) {
			if view {
				kv := append(append(append([]byte(nil), key...), bytes.Repeat([]byte{0xee}, gap)...), value...)
				m.AddView(seq, kind, kv, len(key), gap)
			} else {
				m.Add(seq, kind, key, value)
			}
			e := refEntry{key: append([]byte(nil), key...), value: append([]byte(nil), value...), seq: seq, kind: kind}
			clear(key) // Add keeps no caller byte
			clear(value)
			i := refFind(ref, e.key, e.seq)
			ref = append(ref, refEntry{})
			copy(ref[i+1:], ref[i:])
			ref[i] = e
			size += uint64(len(e.key) + len(e.value) + 32)
		}
		it := m.NewIterator()
		var want *refEntry // its current entry, nil when it is not valid
		position := func(i int) {
			want = nil
			if i < len(ref) {
				e := ref[i]
				want = &e
			}
		}
		for len(data) > 0 && len(ref) < 4096 {
			switch op := next() % 6; op {
			case 0, 1: // Add, AddView
				key := fuzzKey(next)
				counter++
				seq := uint64(next())<<32 | counter
				if seq>>32 == 255 {
					seq = math.MaxUint64 - counter
				}
				kind := Kind(next() % 4)
				value := bytes.Repeat([]byte{byte(seq)}, int(next()%24))
				insert(seq, kind, key, value, op == 1, int(next()%4))
			case 2: // Get
				key := fuzzKey(next)
				v, kind, ok := m.Get(key)
				i := refFind(ref, key, math.MaxUint64)
				found := i < len(ref) && bytes.Equal(ref[i].key, key)
				if ok != found || found && (kind != ref[i].kind || !bytes.Equal(v, ref[i].value)) {
					t.Fatalf("Get(%q) = %q/%v/%v, reference has it: %v", key, v, kind, ok, found)
				}
				if ok && cap(v) != len(v) {
					t.Fatalf("Get(%q): value not clipped", key)
				}
			case 3: // Seek
				key := fuzzKey(next)
				it.Seek(key)
				position(refFind(ref, key, math.MaxUint64))
			case 4: // Next, or SeekToFirst once the iterator is spent
				if want == nil {
					it.SeekToFirst()
					position(0)
				} else {
					it.Next()
					position(refFind(ref, want.key, want.seq) + 1)
				}
			case 5: // a burst of inserts
				n, mode := int(next()), next()%3
				for j := 0; j < n; j++ {
					counter++
					var key []byte
					switch mode {
					case 0: // scattered 8-byte keys
						key = binary.BigEndian.AppendUint64(nil, counter*0x9e3779b97f4a7c15)
					case 1: // ascending keys past 16 bytes that share both words
						key = binary.BigEndian.AppendUint64(bytes.Repeat([]byte("k"), 16), counter)
					case 2: // newer and newer versions of the smallest key
						key = []byte{}
					}
					insert(1<<40|counter, KindPut, key, []byte{byte(counter)}, j%2 == 0, j%3)
				}
			}
			if it.Valid() != (want != nil) {
				t.Fatalf("iterator valid = %v, reference says %v", it.Valid(), want != nil)
			}
			if want != nil {
				e := it.Entry()
				if !bytes.Equal(e.Key, want.key) || e.Seq != want.seq || e.Kind != want.kind || !bytes.Equal(e.Value, want.value) {
					t.Fatalf("iterator at (%q, %d), reference at (%q, %d)", e.Key, e.Seq, want.key, want.seq)
				}
			}
		}
		if m.Count() != len(ref) || uint64(m.ApproximateSize()) != size {
			t.Fatalf("Count %d, ApproximateSize %d; reference %d entries, %d bytes", m.Count(), m.ApproximateSize(), len(ref), size)
		}
		// A key's newest version is its first in the reference.
		var newest, newestSize uint64
		for i, e := range ref {
			if i == 0 || !bytes.Equal(ref[i-1].key, e.key) {
				newest++
				newestSize += uint64(len(e.key) + len(e.value) + 32)
			}
		}
		if uint64(m.NewestCount()) != newest || uint64(m.NewestSize()) != newestSize {
			t.Fatalf("NewestCount %d, NewestSize %d; reference %d newest versions, %d bytes", m.NewestCount(), m.NewestSize(), newest, newestSize)
		}
		walk := m.NewIterator()
		i := 0
		for walk.SeekToFirst(); walk.Valid(); walk.Next() {
			e := walk.Entry()
			if i >= len(ref) || !bytes.Equal(e.Key, ref[i].key) || e.Seq != ref[i].seq || !bytes.Equal(e.Value, ref[i].value) {
				t.Fatalf("walk entry %d is (%q, %d)", i, e.Key, e.Seq)
			}
			if cap(e.Key) != len(e.Key) || cap(e.Value) != len(e.Value) {
				t.Fatalf("walk entry %d: key or value not clipped", i)
			}
			i++
		}
		if i != len(ref) {
			t.Fatalf("walked %d entries, want %d", i, len(ref))
		}
	})
}

// TestLongKeyRoundTrips: no key length the table took before its keys had
// inline words is refused or cut short. Keys of 70 000 bytes, past any
// 16-bit length, that differ only in their last byte round-trip through
// Add and AddView, Get and the iterator, in order beside a short key.
func TestLongKeyRoundTrips(t *testing.T) {
	long := func(last byte) []byte {
		k := bytes.Repeat([]byte("k"), 70000)
		k[len(k)-1] = last
		return k
	}
	m := New(0)
	m.Add(1, KindPut, long('b'), []byte("copied"))
	kv, gap := logged(long('a'), []byte("viewed"))
	m.AddView(2, KindPut, kv, 70000, gap)
	m.Add(3, KindPut, []byte("k"), []byte("short"))
	for _, c := range []struct {
		key   []byte
		value string
	}{{long('a'), "viewed"}, {long('b'), "copied"}, {[]byte("k"), "short"}} {
		if v, _, ok := m.Get(c.key); !ok || string(v) != c.value {
			t.Errorf("Get of a %d-byte key = %q, %v; want %q", len(c.key), v, ok, c.value)
		}
	}
	if _, _, ok := m.Get(long('c')); ok {
		t.Error("Get of an absent 70 000-byte key succeeded")
	}
	it := m.NewIterator()
	var got []uint64
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if e := it.Entry(); len(e.Key) != 70000 && e.Seq != 3 {
			t.Errorf("entry %d has a %d-byte key", e.Seq, len(e.Key))
		}
		got = append(got, it.Entry().Seq)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 2 || got[2] != 1 {
		t.Errorf("iterated seqs %v, want [3 2 1]", got)
	}
}
