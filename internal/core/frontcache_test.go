package core

import (
	"bytes"
	"testing"

	"kvaccel/internal/vclock"
)

// These tests pin the front cache's coherence contract: a cached value
// must never be served past a newer write, whichever path (normal,
// redirect, failover, rollback merge, crash recovery) that write took.

func newFrontCacheStack() (*vclock.Clock, *DB) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	opt.FrontCacheBytes = 1 << 20
	return newStack(opt, nil)
}

func TestFrontCacheServesRepeatReads(t *testing.T) {
	clk, db := newFrontCacheStack()
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		for i := 0; i < 50; i++ {
			if err := db.Put(r, key(i), value(i)); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < 50; i++ {
				v, ok, err := db.Get(r, key(i))
				if err != nil || !ok || !bytes.Equal(v, value(i)) {
					t.Errorf("pass %d get %d: ok=%v err=%v", pass, i, ok, err)
				}
			}
		}
	})
	clk.Wait()
	s := db.Stats()
	// Pass 1 misses and fills; passes 2-3 must hit.
	if s.FrontCacheHits < 100 {
		t.Fatalf("front cache hits = %d, want >= 100", s.FrontCacheHits)
	}
	if got := s.FrontCacheHits + s.DevServed + s.MainGets; got != s.Gets {
		t.Fatalf("attribution: hits %d + devServed %d + mainGets %d = %d, want Gets %d",
			s.FrontCacheHits, s.DevServed, s.MainGets, got, s.Gets)
	}
}

func TestFrontCacheInvalidatedByNormalWrite(t *testing.T) {
	clk, db := newFrontCacheStack()
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		_ = db.Put(r, key(1), []byte("v1"))
		if v, _, _ := db.Get(r, key(1)); string(v) != "v1" {
			t.Fatalf("before overwrite: %q", v)
		}
		_ = db.Put(r, key(1), []byte("v2"))
		if v, _, _ := db.Get(r, key(1)); string(v) != "v2" {
			t.Fatalf("stale read after overwrite: %q", v)
		}
		_ = db.Delete(r, key(1))
		if _, ok, _ := db.Get(r, key(1)); ok {
			t.Fatal("cached value served past a delete")
		}
	})
	clk.Wait()
	if s := db.Stats(); s.FrontCacheInvalidations == 0 {
		t.Fatal("writes produced no front-cache invalidations")
	}
}

func TestFrontCacheInvalidatedByRedirectedWrite(t *testing.T) {
	clk, db := newFrontCacheStack()
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		_ = db.Put(r, key(1), []byte("main-version"))
		if v, _, _ := db.Get(r, key(1)); string(v) != "main-version" {
			t.Fatalf("warm read: %q", v)
		}
		// Redirected overwrite: the cached main version must die with it.
		db.det.SetOverride(true)
		_ = db.Put(r, key(1), []byte("dev-version"))
		if v, _, _ := db.Get(r, key(1)); string(v) != "dev-version" {
			t.Fatalf("stale read past a redirected write: %q", v)
		}
		// Cached Dev-LSM values must survive the rollback merge unchanged
		// (the merge replays the identical newest version into Main).
		db.det.SetOverride(false)
		if err := db.RollbackNow(r); err != nil {
			t.Fatalf("RollbackNow: %v", err)
		}
		if v, ok, _ := db.Get(r, key(1)); !ok || string(v) != "dev-version" {
			t.Fatalf("after rollback: %q ok=%v", v, ok)
		}
		// And a post-rollback overwrite still invalidates.
		_ = db.Put(r, key(1), []byte("after-rollback"))
		if v, _, _ := db.Get(r, key(1)); string(v) != "after-rollback" {
			t.Fatalf("stale read after post-rollback write: %q", v)
		}
	})
	clk.Wait()
}

func TestFrontCacheDroppedByCrashRecovery(t *testing.T) {
	clk, db := newFrontCacheStack()
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		db.det.SetOverride(true)
		for i := 0; i < 20; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		for i := 0; i < 20; i++ {
			if _, ok, _ := db.Get(r, key(i)); !ok {
				t.Fatalf("warm read %d missing", i)
			}
		}
		db.det.SetOverride(false)
		db.SimulateCrash()
		if got := db.FrontCache().Stats().Entries; got != 0 {
			t.Fatalf("front cache holds %d entries past a crash", got)
		}
		if err := db.Recover(r); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		for i := 0; i < 20; i++ {
			v, ok, err := db.Get(r, key(i))
			if err != nil || !ok || !bytes.Equal(v, value(i)) {
				t.Fatalf("post-recovery get %d: ok=%v err=%v", i, ok, err)
			}
		}
	})
	clk.Wait()
}

// TestFrontCacheAttributionUnderRedirection checks the per-source read
// attribution stays exact when reads are answered by all three layers.
func TestFrontCacheAttributionUnderRedirection(t *testing.T) {
	clk, db := newFrontCacheStack()
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		for i := 0; i < 40; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.det.SetOverride(true)
		for i := 40; i < 80; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.det.SetOverride(false)
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 100; i++ { // 80..99 are absent
				_, _, _ = db.Get(r, key(i))
			}
		}
	})
	clk.Wait()
	s := db.Stats()
	if s.DevServed == 0 {
		t.Fatal("no reads served by the Dev-LSM")
	}
	if s.FrontCacheHits == 0 {
		t.Fatal("no reads served by the front cache")
	}
	if got := s.FrontCacheHits + s.DevServed + s.MainGets; got != s.Gets {
		t.Fatalf("attribution: %d + %d + %d = %d, want %d",
			s.FrontCacheHits, s.DevServed, s.MainGets, got, s.Gets)
	}
}
