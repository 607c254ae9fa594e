package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"kvaccel/internal/cpu"
	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
)

// testDev is a block device with optional fixed per-page latency.
type testDev struct {
	pageSize int
	pages    int
	perPage  time.Duration
}

func (d *testDev) WritePages(r *vclock.Runner, lpns []int) error {
	if d.perPage > 0 {
		r.Sleep(time.Duration(len(lpns)) * d.perPage)
	}
	return nil
}
func (d *testDev) ReadPages(r *vclock.Runner, lpns []int) error {
	if d.perPage > 0 {
		r.Sleep(time.Duration(len(lpns)) * d.perPage / 4)
	}
	return nil
}
func (d *testDev) TrimPages(r *vclock.Runner, lpns []int) error { return nil }
func (d *testDev) PageSize() int                                { return d.pageSize }
func (d *testDev) Pages() int                                   { return d.pages }

// smallOpts is a tiny configuration that flushes and compacts quickly.
func smallOpts() Options {
	opt := DefaultOptions(cpu.NewPool(8, "test-cpu"))
	opt.MemtableSize = 64 << 10 // 64 KiB
	opt.BaseLevelBytes = 256 << 10
	opt.MaxFileSize = 128 << 10
	opt.L0CompactionTrigger = 2
	opt.L0SlowdownTrigger = 6
	opt.L0StopTrigger = 10
	opt.PendingCompactionSlowdownBytes = 64 << 20
	opt.PendingCompactionStopBytes = 256 << 20
	opt.WALChunkSize = 64 << 10
	opt.WALQueueDepth = 32
	opt.Cost.MergeCPUPerKB = 4 * time.Microsecond
	return opt
}

func newTestDB(perPage time.Duration, opt Options) (*vclock.Clock, *DB) {
	clk := vclock.New()
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20, perPage: perPage})
	return clk, Open(clk, fsys, opt)
}

func key(i int) []byte   { return []byte(fmt.Sprintf("key%07d", i)) }
func value(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 256) }

func TestPutGetRoundTrip(t *testing.T) {
	clk, db := newTestDB(0, smallOpts())
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		for i := 0; i < 100; i++ {
			if err := db.Put(r, key(i), value(i)); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}
		for i := 0; i < 100; i++ {
			v, ok, err := db.Get(r, key(i))
			if err != nil || !ok || !bytes.Equal(v, value(i)) {
				t.Errorf("get %d: ok=%v err=%v", i, ok, err)
			}
		}
		if _, ok, _ := db.Get(r, []byte("missing")); ok {
			t.Error("absent key found")
		}
	})
	clk.Wait()
}

func TestOverwriteAndDelete(t *testing.T) {
	clk, db := newTestDB(0, smallOpts())
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		_ = db.Put(r, []byte("k"), []byte("v1"))
		_ = db.Put(r, []byte("k"), []byte("v2"))
		v, ok, _ := db.Get(r, []byte("k"))
		if !ok || string(v) != "v2" {
			t.Errorf("overwrite: got %q ok=%v", v, ok)
		}
		_ = db.Delete(r, []byte("k"))
		if _, ok, _ := db.Get(r, []byte("k")); ok {
			t.Error("deleted key still visible")
		}
		_ = db.Put(r, []byte("k"), []byte("v3"))
		v, ok, _ = db.Get(r, []byte("k"))
		if !ok || string(v) != "v3" {
			t.Error("re-put after delete not visible")
		}
	})
	clk.Wait()
}

func TestFlushCreatesSSTAndGetStillWorks(t *testing.T) {
	clk, db := newTestDB(0, smallOpts())
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		for i := 0; i < 200; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.Flush(r)
		if db.Stats().Flushes == 0 {
			t.Fatal("no flush occurred")
		}
		counts := db.LevelFileCounts()
		total := 0
		for _, c := range counts {
			total += c
		}
		if total == 0 {
			t.Fatal("no SST files after flush")
		}
		for i := 0; i < 200; i += 13 {
			v, ok, err := db.Get(r, key(i))
			if err != nil || !ok || !bytes.Equal(v, value(i)) {
				t.Errorf("get %d after flush: ok=%v err=%v", i, ok, err)
			}
		}
	})
	clk.Wait()
}

func TestCompactionDrainsL0AndPreservesData(t *testing.T) {
	clk, db := newTestDB(0, smallOpts())
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		// Write enough to force several flushes and L0->L1 compactions.
		for i := 0; i < 3000; i++ {
			_ = db.Put(r, key(i%500), value(i))
		}
		db.Flush(r)
		db.WaitIdle(r)
		s := db.Stats()
		if s.Compactions == 0 {
			t.Fatal("no compaction ran")
		}
		counts := db.LevelFileCounts()
		if counts[0] >= db.opt.L0CompactionTrigger {
			t.Errorf("L0 still has %d files after WaitIdle", counts[0])
		}
		deeper := 0
		for _, c := range counts[1:] {
			deeper += c
		}
		if deeper == 0 {
			t.Error("no files moved to deeper levels")
		}
		// Every key must return its newest value (i from the last round
		// that touched it).
		for k := 0; k < 500; k += 17 {
			want := value(2500 + k) // last write of key k was i=2500+k
			v, ok, err := db.Get(r, key(k))
			if err != nil || !ok || !bytes.Equal(v, want) {
				t.Errorf("get key %d after compaction: ok=%v err=%v", k, ok, err)
			}
		}
	})
	clk.Wait()
}

func TestHardStallsOccurWithoutSlowdown(t *testing.T) {
	opt := smallOpts()
	opt.EnableSlowdown = false
	opt.L0StopTrigger = 4
	opt.L0SlowdownTrigger = 3
	opt.L0CompactionTrigger = 2
	clk, db := newTestDB(200*time.Microsecond, opt) // slow device
	clk.Go("writer", func(r *vclock.Runner) {
		defer db.Close()
		for i := 0; i < 4000; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.Flush(r)
	})
	clk.Wait()
	s := db.Stats()
	if s.TotalStalls() == 0 {
		t.Fatalf("no hard stalls under write burst on slow device: %+v", s)
	}
	if s.Slowdowns != 0 {
		t.Fatalf("slowdowns fired while disabled: %d", s.Slowdowns)
	}
	if s.StallTime == 0 {
		t.Fatal("stall time not recorded")
	}
}

func TestSlowdownThrottlesInsteadOfStalling(t *testing.T) {
	opt := smallOpts()
	opt.EnableSlowdown = true
	opt.L0CompactionTrigger = 2
	opt.L0SlowdownTrigger = 3
	opt.L0StopTrigger = 8
	clk, db := newTestDB(200*time.Microsecond, opt)
	clk.Go("writer", func(r *vclock.Runner) {
		defer db.Close()
		for i := 0; i < 4000; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.Flush(r)
	})
	clk.Wait()
	s := db.Stats()
	if s.Slowdowns == 0 {
		t.Fatalf("slowdown never engaged: %+v", s)
	}
	// Slowdown should largely displace hard stalls.
	if s.TotalStalls() > s.Slowdowns {
		t.Fatalf("stalls (%d) exceed slowdowns (%d); slowdown ineffective", s.TotalStalls(), s.Slowdowns)
	}
}

func TestIteratorMergesMemtableAndSSTs(t *testing.T) {
	clk, db := newTestDB(0, smallOpts())
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		// Half the keys, then flush, then the other half stays in memory.
		for i := 0; i < 100; i += 2 {
			_ = db.Put(r, key(i), value(i))
		}
		db.Flush(r)
		for i := 1; i < 100; i += 2 {
			_ = db.Put(r, key(i), value(i))
		}
		it := db.NewIterator(r)
		defer it.Close()
		n := 0
		var prev []byte
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
				t.Fatalf("iterator out of order: %q then %q", prev, it.Key())
			}
			prev = append(prev[:0], it.Key()...)
			n++
		}
		if n != 100 {
			t.Fatalf("iterated %d keys, want 100", n)
		}
	})
	clk.Wait()
}

func TestIteratorHidesTombstonesAndOldVersions(t *testing.T) {
	clk, db := newTestDB(0, smallOpts())
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		for i := 0; i < 50; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.Flush(r)
		_ = db.Delete(r, key(10))
		_ = db.Put(r, key(20), []byte("updated"))
		it := db.NewIterator(r)
		defer it.Close()
		seen := map[string]string{}
		for it.SeekToFirst(); it.Valid(); it.Next() {
			seen[string(it.Key())] = string(it.Value())
		}
		if len(seen) != 49 {
			t.Fatalf("saw %d keys, want 49 (one deleted)", len(seen))
		}
		if _, ok := seen[string(key(10))]; ok {
			t.Error("tombstoned key visible in scan")
		}
		if seen[string(key(20))] != "updated" {
			t.Errorf("key 20 = %q, want updated", seen[string(key(20))])
		}
	})
	clk.Wait()
}

func TestIteratorSeekRange(t *testing.T) {
	clk, db := newTestDB(0, smallOpts())
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		for i := 0; i < 1000; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.Flush(r)
		db.WaitIdle(r)
		it := db.NewIterator(r)
		defer it.Close()
		it.Seek(key(500))
		for i := 500; i < 600; i++ {
			if !it.Valid() {
				t.Fatalf("iterator exhausted at %d", i)
			}
			if !bytes.Equal(it.Key(), key(i)) {
				t.Fatalf("at %d got key %q", i, it.Key())
			}
			it.Next()
		}
	})
	clk.Wait()
}

func TestTombstonesDroppedAtBottomLevel(t *testing.T) {
	clk, db := newTestDB(0, smallOpts())
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		for i := 0; i < 500; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		for i := 0; i < 500; i++ {
			_ = db.Delete(r, key(i))
		}
		db.Flush(r)
		db.WaitIdle(r)
		for i := 0; i < 500; i += 37 {
			if _, ok, _ := db.Get(r, key(i)); ok {
				t.Errorf("deleted key %d visible after full compaction", i)
			}
		}
	})
	clk.Wait()
}

func TestRuntimeKnobs(t *testing.T) {
	clk, db := newTestDB(0, smallOpts())
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		db.SetCompactionThreads(4)
		if db.CompactionThreads() != 4 {
			t.Error("SetCompactionThreads(4) not applied")
		}
		db.SetCompactionThreads(100)
		if db.CompactionThreads() != db.opt.MaxCompactionThreads {
			t.Error("thread count not clamped to max")
		}
		db.SetCompactionThreads(0)
		if db.CompactionThreads() != 1 {
			t.Error("thread count not clamped to 1")
		}
		db.SetMemtableSize(1 << 20)
		if db.MemtableSize() != 1<<20 {
			t.Error("SetMemtableSize not applied")
		}
		db.SetMemtableSize(-5)
		if db.MemtableSize() != 1<<20 {
			t.Error("negative memtable size applied")
		}
	})
	clk.Wait()
}

func TestHealthSignals(t *testing.T) {
	clk, db := newTestDB(0, smallOpts())
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		h := db.Health()
		if h.Stalled || h.L0Files != 0 {
			t.Errorf("fresh DB health = %+v", h)
		}
		for i := 0; i < 300; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		h = db.Health()
		if h.MemtableBytes == 0 && h.L0Files == 0 && h.QueuedFlushes == 0 {
			t.Error("health shows no activity after writes")
		}
	})
	clk.Wait()
}

func TestOperationsAfterClose(t *testing.T) {
	clk, db := newTestDB(0, smallOpts())
	clk.Go("test", func(r *vclock.Runner) {
		_ = db.Put(r, []byte("k"), []byte("v"))
		db.Close()
		if err := db.Put(r, []byte("k2"), []byte("v")); err != ErrClosed {
			t.Errorf("put after close: %v, want ErrClosed", err)
		}
		if _, _, err := db.Get(r, []byte("k")); err != ErrClosed {
			t.Errorf("get after close: %v, want ErrClosed", err)
		}
		db.Close() // idempotent
	})
	clk.Wait()
}

func TestRandomOpsMatchModel(t *testing.T) {
	opt := smallOpts()
	opt.MemtableSize = 16 << 10 // rotate often
	clk, db := newTestDB(0, opt)
	rng := rand.New(rand.NewSource(7))
	model := map[string][]byte{}
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		for op := 0; op < 5000; op++ {
			k := key(rng.Intn(300))
			switch rng.Intn(10) {
			case 0:
				_ = db.Delete(r, k)
				delete(model, string(k))
			default:
				v := value(op)
				_ = db.Put(r, k, v)
				model[string(k)] = v
			}
		}
		db.Flush(r)
		db.WaitIdle(r)
		// Point-read every key in the model.
		for k, want := range model {
			v, ok, err := db.Get(r, []byte(k))
			if err != nil || !ok || !bytes.Equal(v, want) {
				t.Fatalf("model mismatch for %q: ok=%v err=%v", k, ok, err)
			}
		}
		// Scan must match model exactly.
		it := db.NewIterator(r)
		defer it.Close()
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			want, ok := model[string(it.Key())]
			if !ok {
				t.Fatalf("scan surfaced unexpected key %q", it.Key())
			}
			if !bytes.Equal(it.Value(), want) {
				t.Fatalf("scan value mismatch for %q", it.Key())
			}
			n++
		}
		if n != len(model) {
			t.Fatalf("scan saw %d keys, model has %d", n, len(model))
		}
	})
	clk.Wait()
}

func TestConcurrentWriters(t *testing.T) {
	clk, db := newTestDB(0, smallOpts())
	done := make(chan struct{}, 4)
	for w := 0; w < 4; w++ {
		w := w
		clk.Go(fmt.Sprintf("writer%d", w), func(r *vclock.Runner) {
			for i := 0; i < 500; i++ {
				_ = db.Put(r, key(w*1000+i), value(i))
			}
			done <- struct{}{}
		})
	}
	clk.Go("closer", func(r *vclock.Runner) {
		for i := 0; i < 4; i++ {
			// Writers signal via a plain channel; poll with virtual sleeps.
			for len(done) <= i {
				r.Sleep(10 * time.Millisecond)
			}
		}
		db.Flush(r)
		for w := 0; w < 4; w++ {
			for i := 0; i < 500; i += 97 {
				if _, ok, err := db.Get(r, key(w*1000+i)); !ok || err != nil {
					t.Errorf("writer %d key %d missing: ok=%v err=%v", w, i, ok, err)
				}
			}
		}
		db.Close()
	})
	clk.Wait()
}

func TestWriteAmplificationReported(t *testing.T) {
	clk, db := newTestDB(0, smallOpts())
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		for i := 0; i < 2000; i++ {
			_ = db.Put(r, key(i%200), value(i))
		}
		db.Flush(r)
		db.WaitIdle(r)
	})
	clk.Wait()
	s := db.Stats()
	if wa := s.WriteAmplification(); wa < 1 {
		t.Fatalf("write amplification = %.2f, want >= 1", wa)
	}
	if s.FlushBytes == 0 || s.WALBytesWritten == 0 {
		t.Fatalf("flush/WAL bytes not tracked: %+v", s)
	}
}

// TestWALBytesCountedAsWrittenBack: WALBytesWritten counts what every
// log has written back so far, not only the logs a flush retired, so puts
// with no flush read it; it never steps back across rotation and flush;
// and it equals the bytes that landed in *.log files. One-byte chunks hand
// every record to write-back at once, so nothing waits for a flush's Sync
// and a drained log's file is final before Flush retires it.
func TestWALBytesCountedAsWrittenBack(t *testing.T) {
	opt := smallOpts()
	opt.MemtableSize = 1 << 20 // only Flush rotates
	opt.WALChunkSize = 1
	clk, db := newTestDB(0, opt)
	final := map[string]int64{} // each *.log file's size when last seen
	logged := func() (n int64) {
		for _, name := range db.fsys.List() {
			if strings.HasSuffix(name, ".log") {
				size, _ := db.fsys.Size(name)
				final[name] = int64(size)
			}
		}
		for _, size := range final {
			n += size
		}
		return n
	}
	clk.Go("writer", func(r *vclock.Runner) {
		defer db.Close()
		var last int64
		monotone := func(when string) {
			if w := db.Stats().WALBytesWritten; w < last {
				t.Errorf("WALBytesWritten stepped back %d -> %d %s", last, w, when)
			} else {
				last = w
			}
		}
		for round := 0; round < 3; round++ {
			for i := 0; i < 200; i++ {
				_ = db.Put(r, key(round*200+i), value(i))
				monotone("after a put")
			}
			r.Sleep(time.Millisecond) // drain write-back
			s := db.Stats()
			if s.Flushes != int64(round) {
				t.Fatalf("round %d: %d flushes, want %d", round, s.Flushes, round)
			}
			if s.WALBytesWritten <= 0 || s.WALBytesWritten != logged() {
				t.Errorf("round %d: WALBytesWritten %d, *.log files hold %d", round, s.WALBytesWritten, logged())
			}
			if err := db.Flush(r); err != nil {
				t.Fatal(err)
			}
			monotone("after a flush")
		}
		db.WaitIdle(r)
		if w := db.Stats().WALBytesWritten; w != logged() {
			t.Errorf("after the last flush WALBytesWritten %d, *.log files held %d", w, logged())
		}
	})
	clk.Wait()
}

func TestDeviceFullGoesReadOnly(t *testing.T) {
	clk := vclock.New()
	// A device with room for only a handful of pages.
	fsys := fs.New(&testDev{pageSize: 4096, pages: 96})
	db := Open(clk, fsys, smallOpts())
	clk.Go("writer", func(r *vclock.Runner) {
		defer db.Close()
		var sawErr error
		for i := 0; i < 5000; i++ {
			if err := db.Put(r, key(i), value(i)); err != nil {
				sawErr = err
				break
			}
		}
		if sawErr == nil {
			t.Error("writes kept succeeding on a full device")
		}
		if db.BackgroundError() == nil {
			t.Error("background error not recorded")
		}
		// Reads must keep working: recently written keys are still in
		// memtables or flushed SSTs.
		served := 0
		for i := 0; i < 100; i++ {
			if _, ok, err := db.Get(r, key(i)); ok && err == nil {
				served++
			}
		}
		if served == 0 {
			t.Error("read-only mode serves no reads")
		}
	})
	clk.Wait()
}

func TestInvariantsHoldUnderChurn(t *testing.T) {
	opt := smallOpts()
	opt.MemtableSize = 16 << 10
	clk, db := newTestDB(0, opt)
	rng := rand.New(rand.NewSource(17))
	clk.Go("churn", func(r *vclock.Runner) {
		defer db.Close()
		for step := 0; step < 40; step++ {
			for i := 0; i < 200; i++ {
				_ = db.Put(r, key(rng.Intn(800)), value(step*200+i))
			}
			if rng.Intn(4) == 0 {
				db.Flush(r)
			}
			if err := db.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		db.Flush(r)
		db.WaitIdle(r)
		if err := db.CheckInvariants(); err != nil {
			t.Fatalf("final: %v", err)
		}
		if db.Stats().Compactions == 0 {
			t.Fatal("churn never compacted; invariants untested")
		}
	})
	clk.Wait()
}
