package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"kvaccel/internal/cpu"
	"kvaccel/internal/devlsm"
	"kvaccel/internal/fs"
	"kvaccel/internal/lsm"
	"kvaccel/internal/nand"
	"kvaccel/internal/nvme"
	"kvaccel/internal/pcie"
	"kvaccel/internal/ssd"
	"kvaccel/internal/vclock"
)

// testSSDConfig is the small device the stack tests run on: QD 1, one
// firmware slot, and a 12 µs Dev-LSM put.
func testSSDConfig(ways int, blockBytes, kvBytes int64) ssd.Config {
	dl := devlsm.DefaultConfig()
	dl.PutCPU = 12 * time.Microsecond
	return ssd.Config{
		Geometry:          nand.Geometry{Channels: 2, Ways: ways, BlocksPerDie: 256, PagesPerBlock: 64, PageSize: 4096},
		Timing:            nand.Timing{ReadPage: 40 * time.Microsecond, ProgramPage: 300 * time.Microsecond, ChannelMBps: 300},
		PCIe:              pcie.Config{BandwidthMBps: 2000, Latency: 2 * time.Microsecond, Lanes: 2},
		NVMe:              nvme.Config{QueueDepth: 1, Slots: 1},
		BlockRegionBytes:  blockBytes,
		KVRegionBytes:     kvBytes,
		DevLSM:            dl,
		KVCommandOverhead: 5 * time.Microsecond,
		DMAChunkSize:      128 << 10,
		IOQueues:          1,
	}
}

// testLSMOptions is a small Main-LSM that flushes and stalls within a
// test: 64 KiB memtables, L0 triggers 4/8/12, 64/256 MB pending-compaction
// limits, 64 KiB WAL chunks 32 deep and a 4 µs/KiB merge.
func testLSMOptions() lsm.Options {
	opt := lsm.DefaultOptions(cpu.NewPool(8, "host"))
	opt.MemtableSize = 64 << 10
	opt.L0SlowdownTrigger = 8
	opt.L0StopTrigger = 12
	opt.PendingCompactionSlowdownBytes = 64 << 20
	opt.PendingCompactionStopBytes = 256 << 20
	opt.BaseLevelBytes = 64 << 20
	opt.MaxFileSize = 8 << 20
	opt.BlockCacheBytes = 64 << 20
	opt.WALChunkSize = 64 << 10
	opt.WALQueueDepth = 32
	opt.Cost.MergeCPUPerKB = 4 * time.Microsecond
	return opt
}

// newStack builds clock -> SSD -> fs -> Main-LSM -> KVACCEL.
func newStack(opt Options, tune func(*lsm.Options)) (*vclock.Clock, *DB) {
	clk := vclock.New()
	dev := ssd.New(clk, testSSDConfig(4, 256<<20, 64<<20))
	fsys := fs.New(dev.BlockNamespace(0, 0))
	lopt := testLSMOptions()
	lopt.BaseLevelBytes = 256 << 10
	lopt.MaxFileSize = 128 << 10
	lopt.L0CompactionTrigger = 2
	lopt.L0SlowdownTrigger = 4
	lopt.L0StopTrigger = 8
	lopt.BlockCacheBytes = 4 << 20
	if tune != nil {
		tune(&lopt)
	}
	main := lsm.Open(clk, fsys, lopt)
	return clk, Open(clk, main, dev.KVRegionFull(), opt)
}

func key(i int) []byte   { return []byte(fmt.Sprintf("key%07d", i)) }
func value(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 256) }

func TestNormalPathPutGet(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	clk, db := newStack(opt, nil)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		for i := 0; i < 100; i++ {
			if err := db.Put(r, key(i), value(i)); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		for i := 0; i < 100; i++ {
			v, ok, err := db.Get(r, key(i))
			if err != nil || !ok || !bytes.Equal(v, value(i)) {
				t.Errorf("get %d: ok=%v err=%v", i, ok, err)
			}
		}
	})
	clk.Wait()
	s := db.Stats()
	if s.NormalPuts != 100 {
		t.Fatalf("normal puts = %d, want 100", s.NormalPuts)
	}
}

func TestRedirectionDuringForcedStall(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	clk, db := newStack(opt, nil)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		_ = db.Put(r, key(1), []byte("main-version"))
		// Force the detector's stall signal: writes must now redirect.
		db.det.SetOverride(true)
		_ = db.Put(r, key(1), []byte("dev-version"))
		_ = db.Put(r, key(2), []byte("dev-only"))
		_ = db.Delete(r, key(3))

		// Read-your-writes through the metadata manager.
		v, ok, _ := db.Get(r, key(1))
		if !ok || string(v) != "dev-version" {
			t.Errorf("key1 = %q ok=%v, want dev-version", v, ok)
		}
		v, ok, _ = db.Get(r, key(2))
		if !ok || string(v) != "dev-only" {
			t.Errorf("key2 = %q ok=%v", v, ok)
		}
		if _, ok, _ := db.Get(r, key(3)); ok {
			t.Error("redirected delete not visible")
		}
		// Stall clears: a normal write supersedes the Dev-LSM version.
		db.det.SetOverride(false)
		_ = db.Put(r, key(1), []byte("main-again"))
		v, ok, _ = db.Get(r, key(1))
		if !ok || string(v) != "main-again" {
			t.Errorf("key1 after supersede = %q, want main-again", v)
		}
	})
	clk.Wait()
	s := db.Stats()
	if s.RedirectedPuts != 3 {
		t.Fatalf("redirected puts = %d, want 3", s.RedirectedPuts)
	}
	if s.DevGets == 0 {
		t.Fatal("no reads were served by the Dev-LSM")
	}
}

func TestRollbackDrainsDevLSMIntoMain(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	clk, db := newStack(opt, nil)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		db.det.SetOverride(true)
		for i := 0; i < 500; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.det.SetOverride(false)
		if db.meta.Count() != 500 {
			t.Fatalf("metadata count = %d, want 500", db.meta.Count())
		}
		db.RollbackNow(r)
		if !db.dev.KVEmpty() {
			t.Error("Dev-LSM not empty after rollback")
		}
		if db.meta.Count() != 0 {
			t.Errorf("metadata count = %d after rollback", db.meta.Count())
		}
		for i := 0; i < 500; i += 23 {
			v, ok, err := db.Get(r, key(i))
			if err != nil || !ok || !bytes.Equal(v, value(i)) {
				t.Errorf("key %d after rollback: ok=%v err=%v", i, ok, err)
			}
		}
	})
	clk.Wait()
	s := db.Stats()
	if s.Rollbacks != 1 || s.RollbackPairs != 500 {
		t.Fatalf("rollback stats: %+v", s)
	}
	if s.RollbackTime <= 0 {
		t.Fatal("rollback time not recorded")
	}
}

func TestRollbackSkipsSupersededKeys(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	clk, db := newStack(opt, nil)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		db.det.SetOverride(true)
		_ = db.Put(r, key(7), []byte("old-redirected"))
		db.det.SetOverride(false)
		_ = db.Put(r, key(7), []byte("newer-normal")) // supersedes; clears metadata
		db.RollbackNow(r)
		v, ok, _ := db.Get(r, key(7))
		if !ok || string(v) != "newer-normal" {
			t.Fatalf("rollback clobbered newer value: %q", v)
		}
	})
	clk.Wait()
}

func TestRedirectedDeleteAppliedByRollback(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	clk, db := newStack(opt, nil)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		_ = db.Put(r, key(1), []byte("v"))
		db.det.SetOverride(true)
		_ = db.Delete(r, key(1))
		db.det.SetOverride(false)
		db.RollbackNow(r)
		if _, ok, _ := db.Get(r, key(1)); ok {
			t.Fatal("key visible after rolled-back delete")
		}
	})
	clk.Wait()
}

func TestEagerRollbackFiresAutomatically(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackEager
	opt.DetectorPeriod = 10 * time.Millisecond
	clk, db := newStack(opt, nil)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		db.det.SetOverride(true)
		for i := 0; i < 100; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.det.SetOverride(false)
		// The detector refreshes the stall signal itself; give the
		// rollback manager a few periods of virtual time.
		for w := 0; w < 100 && !db.dev.KVEmpty(); w++ {
			r.Sleep(20 * time.Millisecond)
		}
		if !db.dev.KVEmpty() {
			t.Fatal("eager rollback never drained the Dev-LSM")
		}
	})
	clk.Wait()
	if db.Stats().Rollbacks == 0 {
		t.Fatal("no rollback recorded")
	}
}

func TestLazyRollbackWaitsForQuiet(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackLazy
	opt.DetectorPeriod = 10 * time.Millisecond
	opt.LazyQuietPeriod = 500 * time.Millisecond
	clk, db := newStack(opt, nil)
	var drainedAt vclock.Time
	var lastWrite vclock.Time
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		db.det.SetOverride(true)
		for i := 0; i < 50; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.det.SetOverride(false)
		lastWrite = r.Now()
		for w := 0; w < 500 && !db.dev.KVEmpty(); w++ {
			r.Sleep(20 * time.Millisecond)
		}
		drainedAt = r.Now()
		if !db.dev.KVEmpty() {
			t.Fatal("lazy rollback never fired")
		}
	})
	clk.Wait()
	if drainedAt.Sub(lastWrite) < 400*time.Millisecond {
		t.Fatalf("lazy rollback fired after %v, want >= quiet period", drainedAt.Sub(lastWrite))
	}
}

func TestIteratorAcrossBothLSMs(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	clk, db := newStack(opt, nil)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		// Even keys in Main-LSM, odd keys redirected to Dev-LSM.
		for i := 0; i < 100; i += 2 {
			_ = db.Put(r, key(i), value(i))
		}
		db.det.SetOverride(true)
		for i := 1; i < 100; i += 2 {
			_ = db.Put(r, key(i), value(i))
		}
		// Overwrite one main key via redirection and tombstone another.
		_ = db.Put(r, key(10), []byte("dev-wins"))
		_ = db.Delete(r, key(20))
		db.det.SetOverride(false)

		it := db.NewIterator(r)
		defer it.Close()
		seen := map[string]string{}
		var prev []byte
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
				t.Fatalf("merged iterator out of order: %q then %q", prev, it.Key())
			}
			prev = append(prev[:0], it.Key()...)
			seen[string(it.Key())] = string(it.Value())
		}
		if len(seen) != 99 { // 100 keys minus the tombstoned key(20)
			t.Fatalf("saw %d keys, want 99", len(seen))
		}
		if _, ok := seen[string(key(20))]; ok {
			t.Error("redirected tombstone visible in merged scan")
		}
		if seen[string(key(10))] != "dev-wins" {
			t.Errorf("key10 = %q, want dev-wins", seen[string(key(10))])
		}
		if seen[string(key(11))] == "" {
			t.Error("dev-only key missing from merged scan")
		}
	})
	clk.Wait()
}

func TestIteratorSeekMidRange(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	clk, db := newStack(opt, nil)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		for i := 0; i < 50; i += 2 {
			_ = db.Put(r, key(i), value(i))
		}
		db.det.SetOverride(true)
		for i := 1; i < 50; i += 2 {
			_ = db.Put(r, key(i), value(i))
		}
		db.det.SetOverride(false)
		it := db.NewIterator(r)
		defer it.Close()
		it.Seek(key(25))
		for i := 25; i < 35; i++ {
			if !it.Valid() || !bytes.Equal(it.Key(), key(i)) {
				t.Fatalf("at %d: valid=%v key=%q", i, it.Valid(), it.Key())
			}
			it.Next()
		}
	})
	clk.Wait()
}

func TestCrashRecovery(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	clk, db := newStack(opt, nil)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		db.det.SetOverride(true)
		const pairs = 10000
		for i := 0; i < pairs; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.det.SetOverride(false)
		// Crash: the volatile metadata hash table is lost.
		db.SimulateCrash()
		if db.meta.Count() != 0 {
			t.Fatal("crash did not clear metadata")
		}
		// Before recovery, redirected keys are unreachable via metadata.
		// Recovery rolls back all pairs from non-volatile NAND.
		start := r.Now()
		db.Recover(r)
		elapsed := r.Now().Sub(start)
		for i := 0; i < pairs; i += 499 {
			v, ok, err := db.Get(r, key(i))
			if err != nil || !ok || !bytes.Equal(v, value(i)) {
				t.Errorf("key %d lost in recovery: ok=%v err=%v", i, ok, err)
			}
		}
		// The paper restores 10,000 pairs in 1.1 s; the scaled model
		// should land within the same order of magnitude.
		if elapsed > 30*time.Second {
			t.Errorf("recovery of %d pairs took %v", pairs, elapsed)
		}
	})
	clk.Wait()
	s := db.Stats()
	if s.Recoveries != 1 || s.RecoveryTime <= 0 {
		t.Fatalf("recovery stats: %+v", s)
	}
	t.Logf("recovery of 10k pairs took %v (paper: 1.1s)", s.RecoveryTime)
}

func TestWriteAfterClose(t *testing.T) {
	opt := DefaultOptions()
	clk, db := newStack(opt, nil)
	clk.Go("test", func(r *vclock.Runner) {
		db.Close()
		if err := db.Put(r, key(1), value(1)); err != ErrClosed {
			t.Errorf("put after close: %v", err)
		}
		if _, _, err := db.Get(r, key(1)); err != ErrClosed {
			t.Errorf("get after close: %v", err)
		}
	})
	clk.Wait()
}

func TestDetectorTracksHealth(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	opt.DetectorPeriod = 10 * time.Millisecond
	clk, db := newStack(opt, nil)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		for i := 0; i < 200; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		r.Sleep(50 * time.Millisecond) // let the detector sample
		if db.det.Checks() == 0 {
			t.Error("detector never ran")
		}
	})
	clk.Wait()
}

func TestMetadataManager(t *testing.T) {
	m := NewMetadataManager(8)
	if m.Contains([]byte("k")) {
		t.Fatal("empty manager contains key")
	}
	m.Insert([]byte("k"))
	if !m.Contains([]byte("k")) || m.Count() != 1 {
		t.Fatal("insert not visible")
	}
	m.Insert([]byte("k")) // idempotent
	if m.Count() != 1 {
		t.Fatal("duplicate insert counted twice")
	}
	if !m.Remove([]byte("k")) {
		t.Fatal("remove of present key returned false")
	}
	if m.Remove([]byte("k")) {
		t.Fatal("remove of absent key returned true")
	}
	for i := 0; i < 1000; i++ {
		m.Insert([]byte(fmt.Sprintf("key%d", i)))
	}
	if m.Count() != 1000 {
		t.Fatalf("count = %d", m.Count())
	}
	m.Clear()
	if m.Count() != 0 {
		t.Fatal("clear left entries")
	}
}

// BenchmarkMetadataShards sweeps the metadata manager's lock striping
// under concurrent insert/check/delete (real wall time, like Table VI).
func BenchmarkMetadataShards(b *testing.B) {
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = key(i)
	}
	for _, shards := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			m := NewMetadataManager(shards)
			b.RunParallel(func(pb *testing.PB) {
				for i := 0; pb.Next(); i++ {
					k := keys[i%len(keys)]
					m.Insert(k)
					m.Contains(k)
					m.Remove(k)
				}
			})
		})
	}
}

func TestWriteBatchBothPaths(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	clk, db := newStack(opt, nil)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		var b lsm.Batch
		b.Put(key(1), []byte("v1"))
		b.Put(key(2), []byte("v2"))
		b.Delete(key(3))
		if err := db.WriteBatch(r, &b); err != nil {
			t.Fatal(err)
		}
		if v, ok, _ := db.Get(r, key(1)); !ok || string(v) != "v1" {
			t.Errorf("normal-path batch: key1 = %q ok=%v", v, ok)
		}
		// Redirected batch via compound command.
		db.det.SetOverride(true)
		var b2 lsm.Batch
		b2.Put(key(1), []byte("v1-dev"))
		b2.Put(key(10), []byte("v10-dev"))
		if err := db.WriteBatch(r, &b2); err != nil {
			t.Fatal(err)
		}
		db.det.SetOverride(false)
		if v, ok, _ := db.Get(r, key(1)); !ok || string(v) != "v1-dev" {
			t.Errorf("redirected batch: key1 = %q ok=%v", v, ok)
		}
		if db.meta.Count() != 2 {
			t.Errorf("metadata count = %d, want 2", db.meta.Count())
		}
		// Rollback merges the batch pairs like any others.
		db.RollbackNow(r)
		if v, ok, _ := db.Get(r, key(10)); !ok || string(v) != "v10-dev" {
			t.Errorf("batch pair lost in rollback: ok=%v", ok)
		}
		// Empty batch is a no-op.
		var empty lsm.Batch
		if err := db.WriteBatch(r, &empty); err != nil {
			t.Error(err)
		}
	})
	clk.Wait()
	if db.Stats().RedirectedPuts != 2 {
		t.Fatalf("redirected = %d, want 2", db.Stats().RedirectedPuts)
	}
}
