package lsm

// Parallel WAL replay must be a pure performance change: sharding the
// memtable inserts across runners can never alter what Reopen
// recovers. Each seed builds the same crashed state twice and replays
// one copy serially (ReplayShards=1) and one in parallel
// (ReplayShards=4), including seeds whose newest WAL carries a torn
// tail of garbage bytes.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
)

// buildCrashedState runs a seeded single-writer workload that leaves a
// manifest plus a WAL full of unflushed records, then "crashes" by
// closing without a flush barrier.
func buildCrashedState(seed int64) *fs.FileSystem {
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
	clk := vclock.New()
	db := Open(clk, fsys, smallOpts())
	clk.Go("writer", func(r *vclock.Runner) {
		rng := rand.New(rand.NewSource(seed))
		// A flushed base so Reopen has a CURRENT file.
		for i := 0; i < 50; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.Flush(r)
		db.WaitIdle(r)
		// The replay payload: overwrites, fresh keys, deletes, batches.
		n := 80 + rng.Intn(80)
		for i := 0; i < n; i++ {
			k := key(rng.Intn(200))
			switch rng.Intn(10) {
			case 0:
				_ = db.Delete(r, k)
			case 1:
				var b Batch
				b.Put(k, value(rng.Intn(500)))
				b.Delete(key(rng.Intn(200)))
				b.Put(key(200+rng.Intn(50)), value(rng.Intn(500)))
				_ = db.Write(r, &b)
			default:
				_ = db.Put(r, k, value(rng.Intn(500)))
			}
		}
		db.mu.Lock()
		lg := db.log
		db.mu.Unlock()
		if lg != nil {
			lg.Sync(r) // the OS wrote these back before the crash
		}
		db.Close()
	})
	clk.Wait()
	return fsys
}

// tearTail appends seeded garbage to the newest WAL so replay has to
// stop at the last intact record.
func tearTail(fsys *fs.FileSystem, seed int64) {
	var newest string
	for _, name := range fsys.List() {
		if strings.HasSuffix(name, ".log") && name > newest {
			newest = name
		}
	}
	if newest == "" {
		return
	}
	rng := rand.New(rand.NewSource(seed ^ 0x7a11))
	garbage := make([]byte, 1+rng.Intn(64))
	rng.Read(garbage)
	clk := vclock.New()
	clk.Go("tear", func(r *vclock.Runner) {
		_ = fsys.Append(r, newest, garbage)
	})
	clk.Wait()
}

// recoverState reopens fsys with the given shard count and returns the
// scanned key -> value state plus the ReplayShards stat.
func recoverState(t *testing.T, fsys *fs.FileSystem, shards int) (map[string]string, int64) {
	t.Helper()
	opt := smallOpts()
	opt.ReplayShards = shards
	out := map[string]string{}
	var stat int64
	clk := vclock.New()
	clk.Go("recover", func(r *vclock.Runner) {
		db, err := Reopen(r, clk, fsys, opt)
		if err != nil {
			t.Errorf("reopen shards=%d: %v", shards, err)
			return
		}
		defer db.Close()
		stat = db.Stats().ReplayShards
		it := db.NewIterator(r)
		defer it.Close()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			out[string(it.Key())] = string(it.Value())
		}
	})
	clk.Wait()
	return out, stat
}

func TestReplayParallelMatchesSerial(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for seed := 1; seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			fsSerial := buildCrashedState(int64(seed))
			fsParallel := buildCrashedState(int64(seed))
			if seed%3 == 0 {
				// Same torn tail on both copies.
				tearTail(fsSerial, int64(seed))
				tearTail(fsParallel, int64(seed))
			}
			serial, serialShards := recoverState(t, fsSerial, 1)
			parallel, parallelShards := recoverState(t, fsParallel, 4)
			if t.Failed() {
				return
			}
			if serialShards != 1 {
				t.Errorf("serial reopen reports ReplayShards=%d", serialShards)
			}
			if parallelShards != 4 {
				t.Errorf("parallel reopen reports ReplayShards=%d", parallelShards)
			}
			if len(serial) == 0 {
				t.Fatal("nothing recovered")
			}
			if len(serial) != len(parallel) {
				t.Fatalf("state size differs: serial %d keys, parallel %d", len(serial), len(parallel))
			}
			keys := make([]string, 0, len(serial))
			for k := range serial {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				v, ok := parallel[k]
				if !ok {
					t.Errorf("key %s only in serial replay", k)
					continue
				}
				if v != serial[k] {
					t.Errorf("key %s: serial %q, parallel %q", k, serial[k], v)
				}
			}
		})
	}
}
