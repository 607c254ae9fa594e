package sstable

import (
	"testing"

	"kvaccel/internal/encoding"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// raceEnabled is set by race_test.go when the race detector is on: its
// instrumentation allocates, so allocation counts mean nothing.
var raceEnabled bool

// benchRecords is the shape the fill benchmarks flush: 16-byte keys,
// 4 KiB values, one record per data block.
const (
	benchRecords   = 1000
	benchValueSize = 4096
	benchDataBytes = benchRecords * (12 + 16 + benchValueSize)
)

// benchTable builds the benchRecords-record table, with a size hint so
// the image is allocated once.
func benchTable(tb testing.TB, value []byte) ([]byte, Meta) {
	b := NewBuilder(DefaultBuilderOptions())
	b.SizeHint(benchDataBytes)
	var key [16]byte
	for i := 0; i < benchRecords; i++ {
		if err := b.Add(encoding.FormatKey(key[:0], uint64(i), 16), uint64(i+1), memtable.KindPut, value); err != nil {
			tb.Fatal(err)
		}
	}
	img, meta, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return img, meta
}

// TestAllocsBuilderAdd: with the image sized by the hint a record is
// encoded in place; the index and the filter's hash list grow by doubling,
// which over a table rounds to nothing per record.
func TestAllocsBuilderAdd(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	b := NewBuilder(DefaultBuilderOptions())
	b.SizeHint(benchDataBytes)
	value := make([]byte, benchValueSize)
	var key [16]byte
	add := func(i int) {
		if err := b.Add(encoding.FormatKey(key[:0], uint64(i), 16), 1, memtable.KindPut, value); err != nil {
			t.Fatal(err)
		}
	}
	add(0) // allocates the image and the smallest-key copy
	i := 0
	if n := testing.AllocsPerRun(benchRecords-2, func() { i++; add(i) }); n != 0 {
		t.Errorf("%v allocations per Builder.Add into a sized image, want 0", n)
	}
}

// TestAllocsOpen: Open sizes the index once and its keys alias the index
// bytes, so opening a 1 000-block table costs a handful of allocations,
// not one per block. (Flush and every compaction output open a reader.)
func TestAllocsOpen(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	img, _ := benchTable(t, make([]byte, benchValueSize))
	src := &memSource{data: img}
	run(t, func(r *vclock.Runner) {
		rd, err := Open(r, src)
		if err != nil || len(rd.index) != benchRecords {
			t.Fatalf("Open: %d blocks, err %v", len(rd.index), err)
		}
		n := testing.AllocsPerRun(20, func() {
			if _, err := Open(r, src); err != nil {
				t.Fatal(err)
			}
		})
		if n > 8 {
			t.Errorf("Open of a %d-block table made %v allocations, want <= 8", benchRecords, n)
		}
	})
}

func BenchmarkBuild(b *testing.B) {
	value := make([]byte, benchValueSize)
	b.ReportAllocs()
	b.SetBytes(benchDataBytes)
	for i := 0; i < b.N; i++ {
		benchTable(b, value)
	}
}

func BenchmarkOpen(b *testing.B) {
	img, _ := benchTable(b, make([]byte, benchValueSize))
	src := &memSource{data: img}
	c := vclock.New()
	c.Go("bench", func(r *vclock.Runner) {
		b.ReportAllocs()
		b.SetBytes(int64(len(img)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Open(r, src); err != nil {
				b.Error(err)
				return
			}
		}
	})
	c.Wait()
}

func BenchmarkGet(b *testing.B) {
	img, _ := benchTable(b, make([]byte, benchValueSize))
	c := vclock.New()
	c.Go("bench", func(r *vclock.Runner) {
		rd, err := Open(r, boundedSource(img)) // views, as fs.ReadAt gives
		if err != nil {
			b.Error(err)
			return
		}
		var key [16]byte
		b.ReportAllocs()
		b.SetBytes(16 + benchValueSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _, found, err := rd.Get(r, encoding.FormatKey(key[:0], uint64(i*7919%benchRecords), 16))
			if err != nil || !found {
				b.Errorf("Get: found %v, err %v", found, err)
				return
			}
		}
	})
	c.Wait()
}
