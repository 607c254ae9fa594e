package core

import (
	"testing"

	"kvaccel/internal/vclock"
)

// raceEnabled is set by race_test.go when the race detector is on: its
// instrumentation allocates, so allocation counts mean nothing.
var raceEnabled bool

// TestAllocsGetFrontCacheHit: a read the front cache answers hands out a
// view of the cache's buffer, so it allocates nothing.
func TestAllocsGetFrontCacheHit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	clk, db := newFrontCacheStack(nil)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		if err := db.Put(r, key(1), value(1)); err != nil {
			t.Fatal(err)
		}
		k := key(1)
		get := func() {
			if _, ok, err := db.Get(r, k); !ok || err != nil {
				t.Fatalf("get: ok=%v err=%v", ok, err)
			}
		}
		get() // the miss that fills
		hits := db.Stats().FrontCacheHits
		if n := testing.AllocsPerRun(100, get); n != 0 {
			t.Errorf("%v allocations per front-cache hit, want 0", n)
		}
		if got := db.Stats().FrontCacheHits - hits; got != 101 {
			t.Errorf("%d of the 101 measured reads hit the front cache", got)
		}
	})
	clk.Wait()
}
