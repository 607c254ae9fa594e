package hotring

import (
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is on: its
// instrumentation allocates, so allocation counts mean nothing.
var raceEnabled bool

// benchKeys are distinct keys made up front, so neither a gate nor a
// benchmark counts the allocations of building them.
func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	return keys
}

// TestAllocsLookupAndFill pins the front cache's garbage: a hit hands out
// a view of the entry's buffer and allocates nothing, a fill admitted into
// a full cache allocates the one buffer it keeps — the struct of the entry
// it evicts is reused, and eviction relinks rings in place — and a fill
// the admission sketch declines allocates nothing. A write through a
// resident entry allocates the one buffer it keeps, and a write of an
// absent key nothing.
func TestAllocsLookupAndFill(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	c := New(64<<10, 4)
	keys, val := benchKeys(2*8192), make([]byte, 100)
	hotKeys, coldKeys := keys[:8192], keys[8192:]
	for _, k := range hotKeys {
		readTwiceAndFill(c, k, val) // fills far past capacity: evictions free structs
	}
	if c.Stats().FrontCacheEvictions == 0 {
		t.Fatal("warm-up evicted nothing")
	}
	i := 0
	fills := testing.AllocsPerRun(1000, func() {
		i++
		readTwiceAndFill(c, hotKeys[i%len(hotKeys)], val)
	})
	if fills > 1 {
		t.Errorf("%v allocations per fill into a full cache, want <= 1", fills)
	}
	declinedBefore, j := c.Stats().FrontCacheDeclined, 0
	declines := testing.AllocsPerRun(1000, func() {
		j++
		fill(c, coldKeys[j%len(coldKeys)], val)
	})
	if c.Stats().FrontCacheDeclined == declinedBefore {
		t.Fatal("the sketch declined none of the keys never read")
	}
	if declines != 0 {
		t.Errorf("%v allocations per declined fill, want 0", declines)
	}
	hot := hotKeys[i%len(hotKeys)]
	if hits := testing.AllocsPerRun(1000, func() {
		if _, hit := c.Get(hot); !hit {
			t.Fatal("the key just filled missed")
		}
	}); hits != 0 {
		t.Errorf("%v allocations per Lookup hit, want 0", hits)
	}
	updatesBefore := c.Stats().FrontCacheUpdates
	if writes := testing.AllocsPerRun(1000, func() { write(c, hot, val) }); writes > 1 {
		t.Errorf("%v allocations per write through a resident entry, want <= 1", writes)
	}
	if c.Stats().FrontCacheUpdates == updatesBefore {
		t.Fatal("no write went through a resident entry")
	}
	if absent := testing.AllocsPerRun(1000, func() { write(c, coldKeys[0], val) }); absent != 0 {
		t.Errorf("%v allocations per write of an absent key, want 0", absent)
	}
}

// BenchmarkLookup is a front-cache hit on a resident key of a full cache:
// the hash, the ring walk and the head-migration bookkeeping.
func BenchmarkLookup(b *testing.B) {
	c := New(1<<20, 16)
	keys, val := benchKeys(4096), make([]byte, 100)
	for _, k := range keys {
		fill(c, k, val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(keys[i%len(keys)])
	}
}

// BenchmarkFill reads fresh keys twice and fills them into a full cache,
// so every fill is admitted and evicts: the sketch updates, the generation
// check, the buffer copy, the ring insert and the eviction walk.
func BenchmarkFill(b *testing.B) {
	c := New(64<<10, 4)
	keys, val := benchKeys(8192), make([]byte, 100)
	for _, k := range keys {
		readTwiceAndFill(c, k, val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readTwiceAndFill(c, keys[i%len(keys)], val)
	}
}
