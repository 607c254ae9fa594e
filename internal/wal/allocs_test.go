package wal

import (
	"fmt"
	"runtime"
	"testing"

	"kvaccel/internal/vclock"
)

// raceEnabled is set by race_test.go when the race detector is on: its
// instrumentation allocates, so allocation counts mean nothing.
var raceEnabled bool

// TestAllocsAppend: a record is encoded in place in the log buffer, so
// between two chunk hand-offs (each of which opens a fresh buffer) an
// append allocates nothing — no payload buffer, no escaping closure.
func TestAllocsAppend(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	clk, fsys := newEnv(0)
	log := Open(clk, fsys, "wal-allocs", Options{ChunkSize: 1 << 20, QueueDepth: 4})
	payload := make([]byte, 4096)
	clk.Go("writer", func(r *vclock.Runner) {
		defer log.Close()
		if err := appendBytes(log, r, payload); err != nil { // opens the buffer
			t.Error(err)
			return
		}
		// 200 records of 4 KiB stay inside the 1 MiB chunk.
		n := testing.AllocsPerRun(200, func() {
			if err := appendBytes(log, r, payload); err != nil {
				t.Error(err)
			}
		})
		if n != 0 {
			t.Errorf("%v allocations per Append between chunk hand-offs, want 0", n)
		}
	})
	clk.Wait()
}

// TestAllocsOversizedRecord: the file system keeps the chunk it is handed
// and copies one with more than an eighth of slack, so a record that does
// not fit the buffer gets exactly the room it needs. A record that is a
// chunk by itself — a rollback batch of some 480 KiB against 256 KiB
// chunks — used to open a buffer sized for a chunk on top and be handed
// off a third empty; a closing record larger than the opening one, which
// the buffer was sized for, used to regrow it by a quarter.
func TestAllocsOversizedRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, tc := range []struct {
		name   string
		sizes  []int   // one round's records
		rounds int     // each round ends on a hand-off
		atMost float64 // bytes allocated per byte written
	}{
		{"a chunk by itself", []int{480 << 10}, 16, 1.05},
		// 64 B, then 8 KiB records: the 32nd crosses 256 KiB and overflows
		// a buffer sized for a 64 B record. The buffer is allocated twice.
		{"larger than the opening record", append([]int{64}, repeat(8<<10, 32)...), 16, 2.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk, fsys := newEnv(0)
			log := Open(clk, fsys, "wal-oversized", Options{ChunkSize: 256 << 10, QueueDepth: 4})
			payload := make([]byte, 480<<10)
			clk.Go("writer", func(r *vclock.Runner) {
				defer log.Close()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < tc.rounds; i++ {
					for _, n := range tc.sizes {
						if err := appendBytes(log, r, payload[:n]); err != nil {
							t.Error(err)
							return
						}
					}
				}
				if err := log.Sync(r); err != nil {
					t.Error(err)
				}
				runtime.ReadMemStats(&after)
				got, written := float64(after.TotalAlloc-before.TotalAlloc), float64(log.BytesWritten())
				if got > tc.atMost*written {
					t.Errorf("%.0f bytes written allocated %.0f (%.2fx), want at most %.2fx", written, got, got/written, tc.atMost)
				}
			})
			clk.Wait()
		})
	}
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// BenchmarkAppend appends 4 KiB records with the benchmark testbed's
// chunk size and queue depth over a zero-latency device, write-back
// running beside it; the log is synced, deleted and reopened every 3 000
// records, as a memtable rotation does.
func BenchmarkAppend(b *testing.B) {
	const perLog = 3000
	clk, fsys := newEnv(0)
	payload := make([]byte, 4096+20)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	clk.Go("writer", func(r *vclock.Runner) {
		var log *Log
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%perLog == 0 {
				if log != nil {
					if err := log.Sync(r); err != nil {
						b.Error(err)
					}
					log.Close()
					log.Delete(r)
				}
				log = Open(clk, fsys, fmt.Sprintf("wal-%d", i/perLog), Options{ChunkSize: 256 << 10, QueueDepth: 512})
			}
			if err := appendBytes(log, r, payload); err != nil {
				b.Error(err)
				return
			}
		}
		if log != nil {
			log.Close()
		}
	})
	clk.Wait()
}
