package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"kvaccel/internal/encoding"
	"kvaccel/internal/iterkit"
	"kvaccel/internal/memtable"
	"kvaccel/internal/sstable"
	"kvaccel/internal/vclock"
)

// builder is the table shape the merges below write: small blocks, so a
// few hundred records span many of them, and bloom filters on.
var mergeBuilder = sstable.BuilderOptions{BlockSize: 512, BloomBits: 10}

// unsplit is a split size above everything the inputs below hold (the
// builder sizes its buffer by it, so it stays small).
const unsplit = 1 << 20

// overlapping returns n seeded inputs over one key space, each a sorted
// run as a compaction input is: puts, tombstones and value pointers with
// sequence numbers unique across all inputs, so every user key has one
// newest version and most keys have older ones in other inputs.
func overlapping(seed int64, n, records, keys int) []*memtable.Table {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]*memtable.Table, n)
	for i := range inputs {
		inputs[i] = memtable.New(1 << 20)
	}
	for seq := uint64(1); seq <= uint64(records); seq++ {
		in := inputs[rng.Intn(n)]
		key := []byte(fmt.Sprintf("key%05d", rng.Intn(keys)))
		switch rng.Intn(8) {
		case 0:
			in.Add(seq, memtable.KindDelete, key, nil)
		case 1:
			ptr := encoding.ValuePointer{Seg: uint32(rng.Intn(4)), Off: uint32(rng.Intn(1 << 20)), Len: 100}
			in.Add(seq, memtable.KindValuePtr, key, encoding.AppendValuePointer(nil, ptr))
		default:
			in.Add(seq, memtable.KindPut, key, bytes.Repeat([]byte{byte('a' + seq%26)}, 20+rng.Intn(80)))
		}
	}
	return inputs
}

// records returns every record of the inputs, newest version of each user
// key first, as the merge iterator yields them.
func records(inputs []*memtable.Table) []memtable.Entry {
	it := iterkit.NewMerge(iters(inputs))
	var out []memtable.Entry
	for it.SeekToFirst(); it.Valid(); it.Next() {
		out = append(out, it.Entry())
	}
	return out
}

func iters(inputs []*memtable.Table) []iterkit.Iterator {
	out := make([]iterkit.Iterator, len(inputs))
	for i, mt := range inputs {
		out[i] = mt.NewIterator()
	}
	return out
}

// output is one table a merge emitted: its bytes, its Meta, and its
// records read back through sstable.Open.
type output struct {
	data []byte
	meta sstable.Meta
	recs []memtable.Entry
}

// byteSource is an in-memory table image as an sstable.Source.
type byteSource []byte

func (s byteSource) ReadAt(r *vclock.Runner, off, length int) ([]byte, error) {
	if off < 0 || length < 0 || off+length > len(s) {
		return nil, fmt.Errorf("read [%d,%d) out of bounds (size %d)", off, off+length, len(s))
	}
	return s[off : off+length : off+length], nil
}
func (s byteSource) Size() int { return len(s) }

// runMerge runs merge over inputs with p, reading back every table it
// emits.
func runMerge(t testing.TB, inputs []*memtable.Table, p mergeParams) []output {
	t.Helper()
	var outs []output
	p.builder = mergeBuilder
	p.emit = func(data []byte, meta sstable.Meta) error {
		rd, err := sstable.Open(nil, byteSource(data))
		if err != nil {
			return err
		}
		o := output{data: data, meta: meta}
		it := rd.NewIterator(nil)
		for it.SeekToFirst(); it.Valid(); it.Next() {
			o.recs = append(o.recs, it.Entry())
		}
		if err := it.Err(); err != nil {
			return err
		}
		outs = append(outs, o)
		return nil
	}
	if err := merge(iterkit.NewMerge(iters(inputs)), p); err != nil {
		t.Fatal(err)
	}
	return outs
}

// newest is the model: for each user key, in order, its newest record,
// dropping it if it is a tombstone and dropTombstones is set.
func newest(inputs []*memtable.Table, dropTombstones bool) []memtable.Entry {
	var out []memtable.Entry
	var last []byte
	for _, e := range records(inputs) {
		if last != nil && bytes.Equal(e.Key, last) {
			continue
		}
		last = e.Key
		if e.Kind == memtable.KindDelete && dropTombstones {
			continue
		}
		out = append(out, e)
	}
	return out
}

func sameRecords(t *testing.T, got, want []memtable.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("merge wrote %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !bytes.Equal(g.Key, w.Key) || g.Seq != w.Seq || g.Kind != w.Kind || !bytes.Equal(g.Value, w.Value) {
			t.Fatalf("record %d is (%s, %d, kind %d), want (%s, %d, kind %d)", i, g.Key, g.Seq, g.Kind, w.Key, w.Seq, w.Kind)
		}
	}
}

func concat(outs []output) []memtable.Entry {
	var recs []memtable.Entry
	for _, o := range outs {
		recs = append(recs, o.recs...)
	}
	return recs
}

// TestMergeKeepsNewestVersion: over overlapping inputs the merge writes
// exactly one record per user key, its newest version, tombstones
// included when they are not to be dropped.
func TestMergeKeepsNewestVersion(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		inputs := overlapping(seed, 4, 2000, 300)
		outs := runMerge(t, inputs, mergeParams{maxFileSize: unsplit})
		if len(outs) != 1 {
			t.Fatalf("seed %d: %d tables below the split size, want 1", seed, len(outs))
		}
		want := newest(inputs, false)
		sameRecords(t, outs[0].recs, want)
		if m := outs[0].meta; m.Entries != len(want) || !bytes.Equal(m.Smallest, want[0].Key) || !bytes.Equal(m.Largest, want[len(want)-1].Key) {
			t.Fatalf("seed %d: meta %d entries [%s, %s], want %d [%s, %s]", seed,
				m.Entries, m.Smallest, m.Largest, len(want), want[0].Key, want[len(want)-1].Key)
		}
	}
}

// TestMergeDropsTombstonesOnlyWhenAsked: a tombstone that is a key's
// newest version survives the merge unless dropTombstones is set; with it
// set, neither the tombstone nor any older version of its key is written.
func TestMergeDropsTombstonesOnlyWhenAsked(t *testing.T) {
	inputs := overlapping(7, 4, 2000, 300)
	kept, dropped := 0, 0
	for _, e := range newest(inputs, false) {
		if e.Kind == memtable.KindDelete {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("no key's newest version is a tombstone: the inputs test nothing")
	}
	keep := concat(runMerge(t, inputs, mergeParams{maxFileSize: unsplit}))
	drop := concat(runMerge(t, inputs, mergeParams{maxFileSize: unsplit, dropTombstones: true}))
	for _, e := range drop {
		if e.Kind == memtable.KindDelete {
			dropped++
		}
	}
	if dropped != 0 {
		t.Errorf("dropTombstones wrote %d tombstones", dropped)
	}
	if len(keep)-len(drop) != kept {
		t.Errorf("dropTombstones removed %d records, want the %d tombstones", len(keep)-len(drop), kept)
	}
	sameRecords(t, drop, newest(inputs, true))
}

// TestMergeReportsEveryDroppedVersion: onDrop sees each superseded
// version exactly once — value pointers included, whose value-log bytes
// compaction books as discarded — including versions under an elided
// tombstone; kept records and the elided tombstones themselves are not
// reported.
func TestMergeReportsEveryDroppedVersion(t *testing.T) {
	inputs := overlapping(3, 4, 2000, 300)
	type version struct {
		key string
		seq uint64
	}
	want := map[version]bool{}
	var last []byte
	for _, e := range records(inputs) {
		if last != nil && bytes.Equal(e.Key, last) {
			want[version{string(e.Key), e.Seq}] = true
		}
		last = e.Key
	}
	got := map[version]int{}
	ptrs := 0
	runMerge(t, inputs, mergeParams{maxFileSize: unsplit, dropTombstones: true, onDrop: func(e memtable.Entry) {
		got[version{string(e.Key), e.Seq}]++
		if e.Kind == memtable.KindValuePtr {
			if _, err := encoding.DecodeValuePointer(e.Value); err != nil {
				t.Errorf("dropped pointer of %s does not decode: %v", e.Key, err)
			}
			ptrs++
		}
	}})
	if ptrs == 0 {
		t.Fatal("no value pointer was dropped: the inputs test nothing")
	}
	for v, n := range got {
		if !want[v] || n != 1 {
			t.Errorf("onDrop saw (%s, %d) %d times; superseded: %v", v.key, v.seq, n, want[v])
		}
	}
	if len(got) != len(want) {
		t.Errorf("onDrop saw %d versions, want the %d superseded ones", len(got), len(want))
	}
}

// TestMergeSplitsAtMaxFileSize: the merge cuts a table as soon as its data
// reaches maxFileSize, and only between user keys, so the tables together
// hold the unsplit merge's records in order and no user key appears in
// two of them.
func TestMergeSplitsAtMaxFileSize(t *testing.T) {
	inputs := overlapping(5, 4, 4000, 600)
	const max = 8 << 10
	outs := runMerge(t, inputs, mergeParams{maxFileSize: max})
	if len(outs) < 3 {
		t.Fatalf("%d tables at a %d-byte split size, want several", len(outs), max)
	}
	for i, o := range outs {
		if len(o.recs) == 0 || o.meta.Entries != len(o.recs) {
			t.Fatalf("table %d holds %d records, its meta says %d", i, len(o.recs), o.meta.Entries)
		}
		if i < len(outs)-1 && o.meta.Size < max {
			t.Errorf("table %d of %d is %d bytes, cut before the %d-byte split size", i, len(outs), o.meta.Size, max)
		}
		if i > 0 && bytes.Compare(outs[i-1].meta.Largest, o.meta.Smallest) >= 0 {
			t.Errorf("table %d starts at %s, not after table %d's last key %s", i, o.meta.Smallest, i-1, outs[i-1].meta.Largest)
		}
	}
	sameRecords(t, concat(outs), newest(inputs, false))
}

// TestMergeIsDeterministic: the same inputs give the same table bytes, so
// a seed replays to the same tables.
func TestMergeIsDeterministic(t *testing.T) {
	a := runMerge(t, overlapping(9, 4, 3000, 400), mergeParams{maxFileSize: 8 << 10, dropTombstones: true})
	b := runMerge(t, overlapping(9, 4, 3000, 400), mergeParams{maxFileSize: 8 << 10, dropTombstones: true})
	if len(a) != len(b) {
		t.Fatalf("%d tables, then %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].data, b[i].data) {
			t.Errorf("table %d differs between two merges of the same inputs", i)
		}
	}
}

// BenchmarkMerge merges four overlapping 4 000-record inputs into 64 KiB
// tables: the merge heap, duplicate elision and table building of one
// compaction, without device time.
func BenchmarkMerge(b *testing.B) {
	inputs := overlapping(1, 4, 16000, 8000)
	in := 0
	for _, e := range records(inputs) {
		in += len(e.Key) + len(e.Value)
	}
	p := mergeParams{builder: mergeBuilder, maxFileSize: 64 << 10, dropTombstones: true,
		emit: func([]byte, sstable.Meta) error { return nil }}
	b.SetBytes(int64(in))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := merge(iterkit.NewMerge(iters(inputs)), p); err != nil {
			b.Fatal(err)
		}
	}
}
