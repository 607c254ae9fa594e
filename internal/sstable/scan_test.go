package sstable

import (
	"fmt"
	"testing"

	"kvaccel/internal/vclock"
)

func keyOf(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }

// spanSource records the length of every read it serves.
type spanSource struct {
	boundedSource
	lengths []int
}

func (s *spanSource) ReadAt(r *vclock.Runner, off, length int) ([]byte, error) {
	s.lengths = append(s.lengths, length)
	return s.boundedSource.ReadAt(r, off, length)
}

// scanTable builds a multi-block table and returns an open reader over a
// source whose read log starts empty.
func scanTable(t *testing.T, r *vclock.Runner, n int) (*Reader, *spanSource) {
	t.Helper()
	opt := DefaultBuilderOptions()
	opt.BlockSize = 256 // many small blocks so a scan crosses plenty of them
	mem, _ := buildTable(t, n, opt)
	src := &spanSource{boundedSource: mem.data}
	rd, err := Open(r, src)
	if err != nil {
		t.Fatal(err)
	}
	src.lengths = nil
	return rd, src
}

// TestScanReadsEachBlockOnce: a full iterator walk reads every data
// block exactly once, one Source read per block, in order.
func TestScanReadsEachBlockOnce(t *testing.T) {
	run(t, func(r *vclock.Runner) {
		const n = 2000
		rd, src := scanTable(t, r, n)
		it := rd.NewIterator(r)
		got := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			got++
		}
		if it.Err() != nil || got != n {
			t.Fatalf("scan yielded %d records (err %v), want %d", got, it.Err(), n)
		}
		if len(src.lengths) != len(rd.index) {
			t.Fatalf("scan of %d blocks made %d reads", len(rd.index), len(src.lengths))
		}
		for i, l := range src.lengths {
			if l != int(rd.index[i].length) {
				t.Fatalf("read %d was %d bytes, block %d is %d", i, l, i, rd.index[i].length)
			}
		}
	})
}

// TestPointGetsTriggerNoReadahead ensures random point lookups read only
// the block each one lands in: no read spans more than one block.
func TestPointGetsTriggerNoReadahead(t *testing.T) {
	run(t, func(r *vclock.Runner) {
		rd, src := scanTable(t, r, 500)
		it := rd.NewIterator(r)
		seeks := []int{400, 10, 300, 50, 200, 120}
		for _, i := range seeks {
			it.Seek(keyOf(i))
			if !it.Valid() {
				t.Fatalf("seek %d invalid", i)
			}
			if _, _, found, err := rd.Get(r, keyOf(i)); !found || err != nil {
				t.Fatalf("get %d: found %v, err %v", i, found, err)
			}
		}
		// A lookup may read the block before its key's as well, when the
		// key opens a block; it never reads further.
		if len(src.lengths) > 2*2*len(seeks) {
			t.Errorf("%d seeks and gets made %d reads, want <= 2 each", 2*len(seeks), len(src.lengths))
		}
		longest := 0
		for _, e := range rd.index {
			longest = max(longest, int(e.length))
		}
		for _, l := range src.lengths {
			if l > longest {
				t.Errorf("a point lookup read %d bytes, more than one block", l)
			}
		}
	})
}
