package lsm

import (
	"encoding/binary"
	"runtime"
	"testing"

	"kvaccel/internal/cpu"
	"kvaccel/internal/vclock"
)

// raceEnabled is set by race_test.go when the race detector is on: its
// instrumentation allocates, so allocation counts mean nothing.
var raceEnabled bool

// fillOpts is the benchmark's fill configuration where it matters to the
// write path's host cost: a 12.8 MB memtable, 256 KiB WAL chunks, values
// inline, CPU costs charged to a pool.
func fillOpts() Options {
	opt := DefaultOptions(cpu.NewPool(8, "test-cpu"))
	opt.MemtableSize = 128 << 20 / 10
	opt.WALChunkSize = 256 << 10
	opt.WALQueueDepth = 512
	return opt
}

// TestAllocsPut4K pins the put path's garbage: the writer, the group
// queue and the claimed-group slice are reused, the payload is encoded in
// the log buffer, and the memtable carves from slabs, so a steady
// single-writer Put of a 4 KiB inline value — WAL on, one append per put —
// allocates only what is amortised over many puts: a log chunk every 62,
// a slab every few hundred. The measured stretch stays inside one
// memtable (1 000 puts of 4 KiB in 12.8 MB), as the gate is about the
// path between flushes.
func TestAllocsPut4K(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	clk, db := newTestDB(0, fillOpts())
	clk.Go("writer", func(r *vclock.Runner) {
		defer db.Close()
		key, val := make([]byte, 16), make([]byte, 4096)
		i := uint64(0)
		put := func() {
			i++
			binary.BigEndian.PutUint64(key[8:], i*0x9e3779b97f4a7c15)
			if err := db.Put(r, key, val); err != nil {
				t.Error(err)
			}
		}
		for n := 0; n < 200; n++ {
			put() // open the slabs, the log buffer, the ring; fill the writer pool
		}
		// MemStats, not testing.AllocsPerRun: that rounds down to a whole
		// number, and the other runners' allocations (write-back) count.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := 0; n < 1000; n++ {
			put()
		}
		runtime.ReadMemStats(&after)
		perPut := float64(after.Mallocs-before.Mallocs) / 1000
		t.Logf("%.3f allocations per 4 KiB Put", perPut)
		if perPut > 2 {
			t.Errorf("%.3f allocations per 4 KiB Put between flushes, want <= 2", perPut)
		}
		if db.Stats().Flushes != 0 {
			t.Errorf("the measured stretch crossed a flush")
		}
	})
	clk.Wait()
}

// BenchmarkPut4K is the fill benchmarks' foreground path on its own: one
// writer, random 16-byte keys, 4 KiB inline values, WAL on, over a
// zero-latency device, with flushes and compactions running beside it as
// the memtable rotates every 12.8 MB.
func BenchmarkPut4K(b *testing.B) {
	clk, db := newTestDB(0, fillOpts())
	b.ReportAllocs()
	b.SetBytes(16 + 4096)
	clk.Go("writer", func(r *vclock.Runner) {
		defer db.Close()
		key, val := make([]byte, 16), make([]byte, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			binary.BigEndian.PutUint64(key[8:], uint64(i)*0x9e3779b97f4a7c15)
			if err := db.Put(r, key, val); err != nil {
				b.Error(err)
				return
			}
		}
	})
	clk.Wait()
}
