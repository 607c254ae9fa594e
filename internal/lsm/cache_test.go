package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"kvaccel/internal/fs"
	"kvaccel/internal/ssd"
	"kvaccel/internal/vclock"
)

// writeRound writes one deterministic round of keys derived from rng:
// mostly puts, some overwrites of earlier rounds, some deletes.
func writeRound(r *vclock.Runner, t *testing.T, db *DB, rng *rand.Rand, round int) {
	for i := 0; i < 90; i++ {
		k := []byte(fmt.Sprintf("key%03d-%05d", round, rng.Intn(4000)))
		v := bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 100+rng.Intn(156))
		if err := db.Put(r, k, v); err != nil {
			t.Errorf("put: %v", err)
		}
	}
	for i := 0; i < 10; i++ {
		prior := rng.Intn(round + 1)
		k := []byte(fmt.Sprintf("key%03d-%05d", prior, rng.Intn(4000)))
		if rng.Intn(2) == 0 {
			if err := db.Delete(r, k); err != nil {
				t.Errorf("delete: %v", err)
			}
		} else if err := db.Put(r, k, []byte("overwrite")); err != nil {
			t.Errorf("put: %v", err)
		}
	}
}

// TestBlockCacheHoldsOnlyLiveTables pins the lifetime rule aliasing reads
// need: a cached block is a view of its table's image, so every removal of
// a table evicts its blocks. After a compaction-heavy fill over a
// simulated SSD, with point reads and scans beside the merges, every file
// with blocks in the cache is one the current version lists.
func TestBlockCacheHoldsOnlyLiveTables(t *testing.T) {
	clk := vclock.New()
	dev := ssd.New(clk, ssd.CosmosConfig())
	db := Open(clk, fs.New(dev.BlockNamespace(0, 0)), smallOpts())
	rng := rand.New(rand.NewSource(11))
	clk.Go("writer", func(r *vclock.Runner) {
		defer db.Close()
		read := func(rounds int) {
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key%03d-%05d", rng.Intn(rounds), rng.Intn(4000))
				if _, _, err := db.Get(r, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			it := db.NewIterator(r) // a scan reads ahead into the cache
			for it.SeekToFirst(); it.Valid(); it.Next() {
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			it.Close()
		}
		for round := 0; round < 12; round++ {
			writeRound(r, t, db, rng, round)
			if err := db.Flush(r); err != nil {
				t.Fatal(err)
			}
			read(round + 1) // beside the compactions the flush set off
		}
		db.WaitIdle(r)
		read(12)
	})
	clk.Wait()
	if db.Stats().Compactions == 0 {
		t.Fatal("no compaction ran")
	}
	live := map[uint64]bool{}
	for _, files := range db.vers.levels {
		for _, f := range files {
			live[f.Num] = true
		}
	}
	cached := db.cache.Files()
	if len(cached) == 0 {
		t.Fatal("nothing cached: the test reads no blocks")
	}
	for _, num := range cached {
		if !live[num] {
			t.Errorf("the block cache holds blocks of %s, which no version lists", SSTName(num))
		}
	}
	if !t.Failed() && db.Stats().BlockCacheEvictions == 0 {
		t.Fatal("no cached table was ever removed: the test no longer checks the rule")
	}
}
