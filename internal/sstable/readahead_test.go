package sstable

import (
	"fmt"
	"testing"

	"kvaccel/internal/vclock"
)

func keyOf(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }

// scanTable builds a multi-block table and returns an open reader backed
// by a fresh cache plus its source (for read-count assertions).
func scanTable(t *testing.T, r *vclock.Runner, n int) (*Reader, *memSource, *BlockCache) {
	t.Helper()
	opt := DefaultBuilderOptions()
	opt.BlockSize = 256 // many small blocks so a scan crosses plenty of them
	src, _ := buildTable(t, n, opt)
	cache := NewBlockCache(1 << 20)
	rd, err := Open(r, src, 1, cache)
	if err != nil {
		t.Fatal(err)
	}
	return rd, src, cache
}

// TestScanReadaheadReducesMisses compares a full sequential scan against
// the same walk done with per-block demand loads: readahead must convert
// most block-cache misses into hits and most device commands into a few
// contiguous window reads.
func TestScanReadaheadReducesMisses(t *testing.T) {
	run(t, func(r *vclock.Runner) {
		const n = 2000
		rd, src, cache := scanTable(t, r, n)
		blocks := len(rd.index)
		if blocks < 3*readaheadWindow {
			t.Fatalf("table has only %d blocks; need >= %d for a meaningful scan", blocks, 3*readaheadWindow)
		}

		// Baseline: demand-load every block through a cold cache, the walk
		// the iterator did before readahead existed.
		baseCache := NewBlockCache(1 << 20)
		baseRd := &Reader{src: src, fileID: 2, index: rd.index, cache: baseCache}
		baseReads := src.reads
		for i := 0; i < blocks; i++ {
			if _, err := baseRd.loadBlock(r, i); err != nil {
				t.Fatal(err)
			}
		}
		baseReads = src.reads - baseReads
		baseMisses := baseCache.Stats().Misses
		if baseMisses != int64(blocks) {
			t.Fatalf("baseline misses = %d, want one per block (%d)", baseMisses, blocks)
		}

		// Readahead scan: full iterator walk over a cold cache.
		scanReads := src.reads
		it := rd.NewIterator(r)
		count := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			count++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		scanReads = src.reads - scanReads
		if count != n {
			t.Fatalf("scan returned %d records, want %d", count, n)
		}

		cs := cache.Stats()
		t.Logf("blocks=%d baseline: misses=%d reads=%d; readahead: misses=%d hits=%d prefetched=%d reads=%d",
			blocks, baseMisses, baseReads, cs.Misses, cs.Hits, cs.Readahead, scanReads)
		if cs.Readahead == 0 {
			t.Fatal("sequential scan triggered no readahead")
		}
		// The first few blocks demand-miss before the run is detected;
		// everything after must be served by prefetch.
		if cs.Misses >= baseMisses/2 {
			t.Errorf("scan misses = %d, want well under baseline %d", cs.Misses, baseMisses)
		}
		if cs.Hits == 0 {
			t.Error("prefetched blocks were never hit")
		}
		// Device commands: one window read per readaheadWindow blocks plus
		// the leading demand misses, far fewer than one per block.
		if scanReads >= baseReads/2 {
			t.Errorf("scan issued %d device reads, want well under baseline %d", scanReads, baseReads)
		}
	})
}

// TestPointGetsTriggerNoReadahead ensures random point lookups (block
// loads with no sequential run) never prefetch.
func TestPointGetsTriggerNoReadahead(t *testing.T) {
	run(t, func(r *vclock.Runner) {
		rd, _, cache := scanTable(t, r, 500)
		it := rd.NewIterator(r)
		// Seek to scattered keys: each repositions the block cursor, so no
		// two consecutive loads form a run.
		for _, i := range []int{400, 10, 300, 50, 200, 120} {
			it.Seek(keyOf(i))
			if !it.Valid() {
				t.Fatalf("seek %d invalid", i)
			}
		}
		if got := cache.Stats().Readahead; got != 0 {
			t.Errorf("scattered seeks prefetched %d blocks, want 0", got)
		}
	})
}
