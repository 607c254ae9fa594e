package wal

import (
	"fmt"
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
