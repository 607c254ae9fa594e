package ssd

import (
	"bytes"
	"runtime"
	"testing"

	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// raceEnabled is set by race_test.go when the race detector is on: its
// instrumentation allocates, so allocation counts mean nothing.
var raceEnabled bool

// mallocs returns the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAllocsKVPut: a redirected put is one recycled KV_PUT command, so the
// host pays only the Dev-LSM's own amortized growth: the device memtable's
// slab and the run its flush builds.
func TestAllocsKVPut(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	d, clk := newTestDev()
	const puts = 30000
	val := bytes.Repeat([]byte("v"), 200)
	keys := make([][]byte, puts)
	for i := range keys {
		keys[i] = key(i)
	}
	var n uint64
	runOn(t, clk, func(r *vclock.Runner) {
		put := func(k []byte) {
			if err := d.KVRegionFull().KVPut(r, memtable.KindPut, k, val); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 8; i++ {
			put(keys[i]) // spawns the runners every later command reuses
		}
		n = mallocs(func() {
			for _, k := range keys {
				put(k)
			}
		})
	})
	if d.Dev.Stats().Flushes == 0 {
		t.Fatal("no Dev-LSM flush inside the measured window")
	}
	if per := float64(n) / puts; per > 0.05 {
		t.Errorf("%.4f allocations per KVPut, want at most 0.05", per)
	}
}

// TestAllocsKVGetMemtable: a GET answered from the device memtable hands
// back a view of its slab through a recycled command.
func TestAllocsKVGetMemtable(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	d, clk := newTestDev()
	var allocs float64
	runOn(t, clk, func(r *vclock.Runner) {
		if err := d.KVRegionFull().KVPut(r, memtable.KindPut, key(1), []byte("hello")); err != nil {
			t.Error(err)
			return
		}
		k := key(1)
		get := func() {
			if v, _, ok, err := d.KVRegionFull().KVGet(r, k); !ok || err != nil || string(v) != "hello" {
				t.Errorf("get: %q ok=%v err=%v", v, ok, err)
			}
		}
		for i := 0; i < 8; i++ {
			get()
		}
		allocs = testing.AllocsPerRun(100, get)
	})
	if allocs != 0 {
		t.Errorf("%v allocations per KVGet from the memtable, want 0", allocs)
	}
}

// TestAllocsBlockIO: block reads and writes of one and of four MDTS chunks
// translate into the commands' own LPN buffers and keep their in-flight
// list on the stack.
func TestAllocsBlockIO(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	d, clk := newTestDev()
	ns := d.BlockNamespace(0, 0)
	mdts := d.maxTransferPages()
	runOn(t, clk, func(r *vclock.Runner) {
		for _, chunks := range []int{1, 4} {
			lpns := make([]int, chunks*mdts)
			for i := range lpns {
				lpns[i] = i
			}
			for _, io := range []struct {
				name string
				fn   func(*vclock.Runner, []int) error
			}{{"WritePages", ns.WritePages}, {"ReadPages", ns.ReadPages}} {
				do := func() {
					if err := io.fn(r, lpns); err != nil {
						t.Error(err)
					}
				}
				for i := 0; i < 8; i++ {
					do()
				}
				if allocs := testing.AllocsPerRun(50, do); allocs != 0 {
					t.Errorf("%s of %d MDTS chunks: %v allocations, want 0", io.name, chunks, allocs)
				}
			}
		}
	})
}

// BenchmarkKVPut is one redirected put through the KV interface: a
// KV_PUT on the region's queue pair and the Dev-LSM insert behind it,
// flushes included.
func BenchmarkKVPut(b *testing.B) {
	b.ReportAllocs()
	cfg := testConfig()
	cfg.KVRegionBytes = 32 << 20
	clk := vclock.New()
	d := New(clk, cfg)
	val := bytes.Repeat([]byte("v"), 100)
	keys := make([][]byte, 50000) // ~7 MB of puts between resets
	for i := range keys {
		keys[i] = key(i)
	}
	clk.Go("bench", func(r *vclock.Runner) {
		for i := 0; i < 8; i++ {
			_ = d.KVRegionFull().KVPut(r, memtable.KindPut, keys[i], val)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.KVRegionFull().KVPut(r, memtable.KindPut, keys[i%len(keys)], val); err != nil {
				b.Error(err)
				return
			}
			if i%len(keys) == len(keys)-1 {
				b.StopTimer()
				if err := d.KVRegionFull().KVReset(r); err != nil {
					b.Error(err)
					return
				}
				b.StartTimer()
			}
		}
	})
	clk.Wait()
}
