package kvaccel

import (
	"bytes"
	"fmt"
	"testing"

	"kvaccel/internal/machine"
	"kvaccel/internal/metrics"
)

// TestShardRouterUniformity checks that FNV-1a spreads a realistic key
// population evenly: no shard more than 25% off the ideal share.
func TestShardRouterUniformity(t *testing.T) {
	const n, keys = 8, 80_000
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[shardIndex([]byte(fmt.Sprintf("key%016d", i)), n)]++
	}
	ideal := keys / n
	for s, c := range counts {
		if c < ideal*3/4 || c > ideal*5/4 {
			t.Errorf("shard %d holds %d keys, ideal %d (±25%%)", s, c, ideal)
		}
	}
}

// TestShardRouterStability checks the two properties routing correctness
// rests on: determinism (same key, same shard, always — FNV-1a has no
// per-process seed, so placement survives restarts) and range validity.
func TestShardRouterStability(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16} {
		for i := 0; i < 1000; i++ {
			k := []byte(fmt.Sprintf("stable%08d", i))
			first := shardIndex(k, n)
			if first < 0 || first >= n {
				t.Fatalf("shardIndex(%q, %d) = %d out of range", k, n, first)
			}
			if again := shardIndex(k, n); again != first {
				t.Fatalf("shardIndex(%q, %d) unstable: %d then %d", k, n, first, again)
			}
		}
	}
	// Known FNV-1a vector: hash("") = offset basis.
	if got := shardIndex(nil, 1); got != 0 {
		t.Fatalf("shardIndex(nil, 1) = %d", got)
	}
}

func shardedTestDB(t *testing.T, shards int) *DB {
	t.Helper()
	opt := DefaultOptions()
	opt.Shards = shards
	opt.Rollback = RollbackDisabled
	return Open(opt)
}

// TestShardedRoundTrip covers the fan-out paths: Put/Get/Delete route to
// the owning shard and the view is one coherent database.
func TestShardedRoundTrip(t *testing.T) {
	db := shardedTestDB(t, 4)
	db.Run("main", func(r *Runner) {
		defer db.Close()
		for i := 0; i < 400; i++ {
			k := []byte(fmt.Sprintf("key%05d", i))
			if err := db.Put(r, k, []byte(fmt.Sprintf("val%d", i))); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		for i := 0; i < 400; i += 7 {
			k := []byte(fmt.Sprintf("key%05d", i))
			v, ok, err := db.Get(r, k)
			if err != nil || !ok || string(v) != fmt.Sprintf("val%d", i) {
				t.Errorf("get %d: ok=%v err=%v", i, ok, err)
			}
		}
		_ = db.Delete(r, []byte("key00111"))
		if _, ok, _ := db.Get(r, []byte("key00111")); ok {
			t.Error("deleted key still visible")
		}
	})
	db.Wait()

	// Every shard should have taken a share of the writes.
	st := db.Stats()
	if got := st.KVAccel.NormalPuts + st.KVAccel.RedirectedPuts; got != 401 {
		t.Fatalf("aggregate puts = %d, want 401", got)
	}
	for i, s := range st.PerShard {
		if s.KVAccel.NormalPuts+s.KVAccel.RedirectedPuts == 0 {
			t.Errorf("shard %d took no writes", i)
		}
	}
}

// TestShardedIteratorOrdering checks the cross-shard merged cursor:
// globally sorted, no duplicates, tombstones suppressed, and correct
// with shards that hold no keys at all.
func TestShardedIteratorOrdering(t *testing.T) {
	db := shardedTestDB(t, 4)
	db.Run("main", func(r *Runner) {
		defer db.Close()
		const n = 300
		for i := 0; i < n; i++ {
			_ = db.Put(r, []byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("v%d", i)))
		}
		// Delete a few keys; the merge must not resurface them.
		deleted := map[string]bool{}
		for i := 0; i < n; i += 37 {
			k := fmt.Sprintf("key%05d", i)
			_ = db.Delete(r, []byte(k))
			deleted[k] = true
		}

		it := db.NewIterator(r)
		defer it.Close()
		seen := map[string]bool{}
		var prev []byte
		for it.SeekToFirst(); it.Valid(); it.Next() {
			k := string(it.Key())
			if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
				t.Fatalf("merge out of order: %q after %q", k, prev)
			}
			if seen[k] {
				t.Fatalf("merge surfaced %q twice", k)
			}
			if deleted[k] {
				t.Fatalf("merge surfaced deleted key %q", k)
			}
			seen[k] = true
			prev = append(prev[:0], it.Key()...)
		}
		if want := n - len(deleted); len(seen) != want {
			t.Fatalf("merge yielded %d keys, want %d", len(seen), want)
		}

		// Seek lands on the first key >= target across all shards.
		it2 := db.NewIterator(r)
		defer it2.Close()
		it2.Seek([]byte("key00150"))
		if !it2.Valid() || string(it2.Key()) != "key00150" {
			t.Fatalf("Seek(key00150) landed on %q", it2.Key())
		}
	})
	db.Wait()
}

// TestShardedIteratorEmptyShards scans a store whose few keys all hash
// into a subset of shards, leaving others empty.
func TestShardedIteratorEmptyShards(t *testing.T) {
	db := shardedTestDB(t, 8)
	db.Run("main", func(r *Runner) {
		defer db.Close()
		_ = db.Put(r, []byte("only"), []byte("pair"))
		it := db.NewIterator(r)
		defer it.Close()
		it.SeekToFirst()
		if !it.Valid() || string(it.Key()) != "only" || string(it.Value()) != "pair" {
			t.Fatalf("scan over mostly-empty shards: valid=%v key=%q", it.Valid(), it.Key())
		}
		it.Next()
		if it.Valid() {
			t.Fatal("scan did not terminate")
		}
	})
	db.Wait()
}

// TestShardedWriteBatchSplitsByOwner commits one batch spanning all
// shards and checks every op landed.
func TestShardedWriteBatchSplitsByOwner(t *testing.T) {
	db := shardedTestDB(t, 4)
	db.Run("main", func(r *Runner) {
		defer db.Close()
		_ = db.Put(r, []byte("gone"), []byte("x"))
		var b Batch
		for i := 0; i < 40; i++ {
			b.Put([]byte(fmt.Sprintf("batch%03d", i)), []byte("v"))
		}
		b.Delete([]byte("gone"))
		if err := db.WriteBatch(r, &b); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if _, ok, _ := db.Get(r, []byte(fmt.Sprintf("batch%03d", i))); !ok {
				t.Fatalf("batch key %d missing", i)
			}
		}
		if _, ok, _ := db.Get(r, []byte("gone")); ok {
			t.Fatal("batched delete not applied")
		}
	})
	db.Wait()
}

// TestShardedRedirectionAndRecovery drives the stall path on every shard
// then crashes and recovers the whole front-end.
func TestShardedRedirectionAndRecovery(t *testing.T) {
	db := shardedTestDB(t, 2)
	db.Run("main", func(r *Runner) {
		defer db.Close()
		for i := 0; i < db.NumShards(); i++ {
			db.Shard(i).Detector().SetOverride(true)
		}
		for i := 0; i < 100; i++ {
			_ = db.Put(r, []byte(fmt.Sprintf("key%05d", i)), []byte("v"))
		}
		for i := 0; i < db.NumShards(); i++ {
			db.Shard(i).Detector().SetOverride(false)
		}
		st := db.Stats()
		if st.KVAccel.RedirectedPuts != 100 {
			t.Fatalf("redirected = %d, want 100", st.KVAccel.RedirectedPuts)
		}
		db.SimulateCrash()
		db.Recover(r)
		for i := 0; i < 100; i += 11 {
			if _, ok, _ := db.Get(r, []byte(fmt.Sprintf("key%05d", i))); !ok {
				t.Errorf("key %d lost across crash", i)
			}
		}
	})
	db.Wait()
	st := db.Stats()
	if st.KVAccel.Recoveries != int64(db.NumShards()) {
		t.Fatalf("recoveries = %d, want one per shard", st.KVAccel.Recoveries)
	}
}

// TestShardedStatsAggregation checks Stats() returns the exact field-wise
// sum of the per-shard breakdowns, on four shards with redirected writes
// and a front cache, so that the redirect and front-cache counters have
// something to sum.
func TestShardedStatsAggregation(t *testing.T) {
	opt := DefaultOptions()
	opt.Shards = 4
	opt.Rollback = RollbackDisabled
	opt.FrontCacheBytes = 64 << 10
	db := Open(opt)
	db.Run("main", func(r *Runner) {
		defer db.Close()
		for i := 0; i < 200; i++ {
			if i == 100 {
				for j := 0; j < db.NumShards(); j++ {
					db.Shard(j).Detector().SetOverride(true)
				}
			}
			_ = db.Put(r, []byte(fmt.Sprintf("key%05d", i)), []byte("v"))
		}
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 200; i += 4 {
				_, _, _ = db.Get(r, []byte(fmt.Sprintf("key%05d", i)))
			}
		}
	})
	db.Wait()
	st := db.Stats()
	if len(st.PerShard) != 4 {
		t.Fatalf("PerShard has %d entries, want 4", len(st.PerShard))
	}
	var sum Stats
	for _, s := range st.PerShard {
		sum.KVAccel = metrics.Sum(sum.KVAccel, s.KVAccel)
		sum.Main = metrics.Sum(sum.Main, s.Main)
	}
	if st.KVAccel != sum.KVAccel {
		t.Errorf("KVACCEL totals %+v\nper-shard sum %+v", st.KVAccel, sum.KVAccel)
	}
	if st.Main != sum.Main {
		t.Errorf("Main-LSM totals %+v\nper-shard sum %+v", st.Main, sum.Main)
	}
	k := st.KVAccel
	if puts := k.NormalPuts + k.RedirectedPuts; puts != 200 || k.RedirectedPuts != 100 {
		t.Errorf("puts %d, redirected %d: want 200 and 100", puts, k.RedirectedPuts)
	}
	if k.Gets != 100 || k.FrontCacheHits == 0 || k.FrontCacheHits+k.DevServed+k.MainGets != k.Gets {
		t.Errorf("gets %d = front cache %d + Dev-LSM %d + Main-LSM %d: want 100 with front-cache hits",
			k.Gets, k.FrontCacheHits, k.DevServed, k.MainGets)
	}
}

// TestScaleClampsToOne pins the Options.Scale contract: values below 1
// clamp to 1 (full fidelity) instead of silently reverting to the
// scale-10 default, and Shards below 1 opens one shard.
func TestScaleClampsToOne(t *testing.T) {
	for scale, want := range map[int]int{0: 1, -5: 1, 7: 7} {
		opt := DefaultOptions()
		opt.Scale = scale
		opt.Shards = 0
		db := Open(opt)
		if db.NumShards() != 1 {
			t.Fatalf("Shards=0 opened %d shards, want 1", db.NumShards())
		}
		if got, w := db.Device().Config().PCIe, machine.DeviceConfig(want).PCIe; got != w {
			t.Errorf("Scale=%d built the link %+v, want scale %d's %+v", scale, got, want, w)
		}
		db.Run("main", func(r *Runner) {
			defer db.Close()
			if err := db.Put(r, []byte("k"), []byte("v")); err != nil {
				t.Error(err)
			}
		})
		db.Wait()
	}
}
