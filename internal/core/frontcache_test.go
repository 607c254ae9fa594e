package core

import (
	"bytes"
	"testing"

	"kvaccel/internal/vclock"
)

// These tests pin the front cache's coherence contract: a cached value
// must never be served past a newer write, whichever path (normal,
// redirect, failover, rollback merge, crash recovery) that write took.
// A point put goes through the cache — a resident entry takes the new
// value — and a delete drops it.

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
	// The overwrite refreshed the resident entry; the delete dropped it.
	if s := db.Stats(); s.FrontCacheUpdates != 1 || s.FrontCacheInvalidations != 1 {
		t.Fatalf("front cache updates %d, invalidations %d, want 1 and 1",
			s.FrontCacheUpdates, s.FrontCacheInvalidations)
	}
}

// TestFrontCacheWriteThrough: a put to a resident key leaves the new
// bytes in the front cache, on the normal path and on the redirect path,
// so the next Get is a hit.
func TestFrontCacheWriteThrough(t *testing.T) {
	clk, db := newFrontCacheStack()
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		_ = db.Put(r, key(1), []byte("v1"))
		if v, _, _ := db.Get(r, key(1)); string(v) != "v1" {
			t.Fatalf("warm read: %q", v)
		}
		for _, step := range []struct {
			redirect bool
			value    string
		}{{false, "normal-v2"}, {true, "redirected-v3"}, {false, "normal-v4"}} {
			db.det.SetOverride(step.redirect)
			if red, err := db.PutEx(r, key(1), []byte(step.value)); err != nil || red != step.redirect {
				t.Fatalf("put %s: redirected=%v err=%v", step.value, red, err)
			}
			hits := db.Stats().FrontCacheHits
			v, ok, err := db.Get(r, key(1))
			if err != nil || !ok || string(v) != step.value {
				t.Fatalf("get after put %s: %q ok=%v err=%v", step.value, v, ok, err)
			}
			if got := db.Stats().FrontCacheHits - hits; got != 1 {
				t.Fatalf("get after put %s: %d front-cache hits, want 1", step.value, got)
			}
		}
	})
	clk.Wait()
	if s := db.Stats(); s.FrontCacheUpdates != 3 || s.FrontCacheInvalidations != 0 {
		t.Fatalf("front cache updates %d, invalidations %d, want 3 and 0",
			s.FrontCacheUpdates, s.FrontCacheInvalidations)
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
