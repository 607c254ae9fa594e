package core

import (
	"runtime"
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
	clk, db := newFrontCacheStack()
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

// newRedirectStack opens a KVACCEL whose detector is pinned to a hard
// stall, so every put takes the redirect path (StallFailover narrows the
// redirect signal to StallNow, which the override pins too).
func newRedirectStack() (*vclock.Clock, *DB) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	opt.StallFailover = true
	clk, db := newStack(opt, nil)
	db.det.SetOverride(true)
	return clk, db
}

// TestAllocsRedirectPut: a redirected put — one recycled KV_PUT command,
// a metadata insert and the Dev-LSM insert behind it — pays only the
// amortized growth of the metadata table and the device memtable.
func TestAllocsRedirectPut(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const puts = 20000
	keys := make([][]byte, puts)
	for i := range keys {
		keys[i] = key(i)
	}
	val := value(0)
	clk, db := newRedirectStack()
	var mallocs uint64
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		put := func(k []byte) {
			if err := db.Put(r, k, val); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 8; i++ {
			put(keys[i]) // spawns the runners every later command reuses
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, k := range keys {
			put(k)
		}
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
	})
	clk.Wait()
	s := db.Stats()
	if s.RedirectedPuts != puts+8 || s.NormalPuts != 0 {
		t.Fatalf("%d redirected and %d normal puts, want %d and 0", s.RedirectedPuts, s.NormalPuts, puts+8)
	}
	if per := float64(mallocs) / puts; per > 0.05 {
		t.Errorf("%.4f allocations per redirected put, want at most 0.05", per)
	}
}

// BenchmarkRedirectPut is one put on the redirect path: the controller's
// path decision, a KV_PUT through the NVMe queue pair, the Dev-LSM insert
// and the metadata insert. The Dev-LSM is rolled back, off the clock,
// every 50 000 puts.
func BenchmarkRedirectPut(b *testing.B) {
	b.ReportAllocs()
	keys := make([][]byte, 50000)
	for i := range keys {
		keys[i] = key(i)
	}
	val := value(0)
	clk, db := newRedirectStack()
	clk.Go("bench", func(r *vclock.Runner) {
		defer db.Close()
		for i := 0; i < 8; i++ {
			_ = db.Put(r, keys[i], val)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Put(r, keys[i%len(keys)], val); err != nil {
				b.Error(err)
				return
			}
			if i%len(keys) == len(keys)-1 {
				b.StopTimer()
				if err := db.RollbackNow(r); err != nil {
					b.Error(err)
					return
				}
				b.StartTimer()
			}
		}
	})
	clk.Wait()
}
