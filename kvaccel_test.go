package kvaccel

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	db := Open(DefaultOptions())
	db.Run("main", func(r *Runner) {
		defer db.Close()
		for i := 0; i < 200; i++ {
			k := []byte(fmt.Sprintf("key%05d", i))
			if err := db.Put(r, k, []byte(fmt.Sprintf("val%d", i))); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		for i := 0; i < 200; i += 7 {
			k := []byte(fmt.Sprintf("key%05d", i))
			v, ok, err := db.Get(r, k)
			if err != nil || !ok || string(v) != fmt.Sprintf("val%d", i) {
				t.Errorf("get %d: ok=%v err=%v", i, ok, err)
			}
		}
		if _, ok, _ := db.Get(r, []byte("missing")); ok {
			t.Error("absent key found")
		}
	})
	db.Wait()
	if db.Stats().KVAccel.NormalPuts != 200 {
		t.Fatalf("stats: %+v", db.Stats().KVAccel)
	}
}

func TestPublicAPIDeleteAndScan(t *testing.T) {
	db := Open(DefaultOptions())
	db.Run("main", func(r *Runner) {
		defer db.Close()
		for i := 0; i < 50; i++ {
			_ = db.Put(r, []byte(fmt.Sprintf("key%05d", i)), []byte("v"))
		}
		_ = db.Delete(r, []byte("key00025"))
		it := db.NewIterator(r)
		defer it.Close()
		n := 0
		var prev []byte
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
				t.Fatal("scan out of order")
			}
			prev = append(prev[:0], it.Key()...)
			n++
		}
		if n != 49 {
			t.Fatalf("scanned %d keys, want 49", n)
		}
	})
	db.Wait()
}

func TestPublicAPICrashRecovery(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	db := Open(opt)
	db.Run("main", func(r *Runner) {
		defer db.Close()
		kv := db.Shard(0)
		kv.Detector().SetOverride(true)
		for i := 0; i < 100; i++ {
			_ = db.Put(r, []byte(fmt.Sprintf("key%05d", i)), []byte("v"))
		}
		kv.Detector().SetOverride(false)
		db.SimulateCrash()
		db.Recover(r)
		for i := 0; i < 100; i += 13 {
			if _, ok, _ := db.Get(r, []byte(fmt.Sprintf("key%05d", i))); !ok {
				t.Errorf("key %d lost across crash", i)
			}
		}
	})
	db.Wait()
}

func TestVirtualTimeAdvances(t *testing.T) {
	db := Open(DefaultOptions())
	start := time.Now()
	db.Run("main", func(r *Runner) {
		defer db.Close()
		r.Sleep(time.Hour) // one virtual hour
	})
	db.Wait()
	if db.Now() < 3_600_000_000_000 {
		t.Fatalf("virtual clock = %v, want >= 1h", db.Now())
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("virtual hour took too much real time")
	}
}

// TestRunnersStartAtWait: threads started with Run before Wait all start
// at time zero, however long the caller takes between the calls, even
// with the first one ticking on a timer and the background runners Open
// started parked on theirs. Close from outside before Wait lets the
// simulation drain.
func TestRunnersStartAtWait(t *testing.T) {
	db := Open(DefaultOptions())
	var stop atomic.Bool
	db.Run("monitor", func(r *Runner) {
		for !stop.Load() {
			r.Sleep(time.Second)
		}
	})
	time.Sleep(50 * time.Millisecond) // wall time between the two Runs
	startedAt := time.Duration(-1)
	db.Run("main", func(r *Runner) {
		startedAt = time.Duration(r.Now())
		stop.Store(true)
	})
	db.Close()
	db.Wait()
	if startedAt != 0 {
		t.Errorf("second thread started at virtual %v, want 0", startedAt)
	}
}

func TestPublicAPIWriteBatch(t *testing.T) {
	db := Open(DefaultOptions())
	db.Run("main", func(r *Runner) {
		defer db.Close()
		var b Batch
		for i := 0; i < 20; i++ {
			b.Put([]byte(fmt.Sprintf("batch%03d", i)), []byte("v"))
		}
		if err := db.WriteBatch(r, &b); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, ok, _ := db.Get(r, []byte(fmt.Sprintf("batch%03d", i))); !ok {
				t.Fatalf("batch key %d missing", i)
			}
		}
	})
	db.Wait()
}
