package lsm

import (
	"encoding/binary"
	"fmt"
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

// putCost4K measures a steady single-writer Put of a 4 KiB inline value
// with 16-byte keys, WAL on, one append per put, over 1 000 puts that stay
// inside one memtable (4 MB of a 12.8 MB buffer): the path between
// flushes. It returns the heap allocations and the bytes allocated per
// put.
func putCost4K(t *testing.T) (allocs, bytes float64) {
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
		allocs = float64(after.Mallocs-before.Mallocs) / 1000
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / 1000
		if db.Stats().Flushes != 0 {
			t.Errorf("the measured stretch crossed a flush")
		}
	})
	clk.Wait()
	return allocs, bytes
}

// TestAllocsPut4K pins the put path's garbage: the writer, the group
// queue and the claimed-group slice are reused, the payload is encoded in
// the log buffer, and the memtable carves nodes from slabs, so a put
// allocates only what is amortised over many puts: a log chunk every 62,
// a slab every few hundred.
func TestAllocsPut4K(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	perPut, _ := putCost4K(t)
	t.Logf("%.3f allocations per 4 KiB Put", perPut)
	if perPut > 2 {
		t.Errorf("%.3f allocations per 4 KiB Put between flushes, want <= 2", perPut)
	}
}

// TestAllocsPutBytes: a put's key and value are held once in host
// memory, in the log buffer, whose record the memtable's entry is a view
// of. The bytes allocated per put are the record and the amortised log
// chunk and node slabs around it; a second copy of the key and value
// would double them.
func TestAllocsPutBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	_, perPut := putCost4K(t)
	const record = 16 + 4096
	t.Logf("%.0f bytes allocated per 4 KiB Put (%.3fx the key and value)", perPut, perPut/record)
	if perPut > 1.15*record {
		t.Errorf("%.0f bytes allocated per 4 KiB Put between flushes (%.3fx the key and value), want <= 1.15x", perPut, perPut/record)
	}
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

// TestAllocsGroupCommit: four writers queue behind the WAL lane and
// commit through groups of up to two, commit after commit. The queue
// ring, the writers and their group slices are recycled, so grouped puts
// allocate only what the log and the memtable amortise over many puts.
func TestAllocsGroupCommit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const writers, warm, measured = 4, 100, 500
	opt := fillOpts()
	// The WAL lane is the bottleneck, so writers queue behind it, and two
	// queued writers fill a group: a put stages key+value+16 bytes.
	opt.Cost.WALAppendCPU = 4 * opt.Cost.WriteCPU
	opt.MaxWriteGroupBytes = 2 * (16 + 2016 + 16)
	clk, db := newTestDB(0, opt)
	var before, after runtime.MemStats
	var groupsBefore, recordsBefore int64
	started, finished := 0, 0
	for w := 0; w < writers; w++ {
		w := w
		clk.Go(fmt.Sprintf("writer%d", w), func(r *vclock.Runner) {
			key, val := make([]byte, 16), make([]byte, 2016)
			binary.BigEndian.PutUint64(key, uint64(w))
			for i := 0; i < warm+measured; i++ {
				if i == warm {
					if started++; started == writers {
						runtime.ReadMemStats(&before)
						groupsBefore, recordsBefore = db.stats.GroupCommits, db.stats.GroupedRecords
					}
				}
				binary.BigEndian.PutUint64(key[8:], uint64(i))
				if err := db.Put(r, key, val); err != nil {
					t.Error(err)
					return
				}
			}
			if finished++; finished == writers {
				runtime.ReadMemStats(&after)
				db.Close()
			}
		})
	}
	clk.Wait()
	s := db.Stats()
	groups, records := s.GroupCommits-groupsBefore, s.GroupedRecords-recordsBefore
	perPut := float64(after.Mallocs-before.Mallocs) / (writers * measured)
	t.Logf("%.4f allocations per put; %d records in %d groups", perPut, records, groups)
	if groups == 0 || records <= groups {
		t.Fatalf("%d records in %d groups: the writers did not commit in groups", records, groups)
	}
	if perPut > 0.05 {
		t.Errorf("%.4f allocations per grouped put, want <= 0.05", perPut)
	}
	if s.Flushes != 0 {
		t.Errorf("the measured stretch crossed a flush")
	}
}

// TestAllocsBatchPutAfterReset pins the arena: a batch that has been
// filled once stages the same load again — keys, values and the op list —
// without allocating.
func TestAllocsBatchPutAfterReset(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var b Batch
	key, val := make([]byte, 16), make([]byte, 128)
	fill := func() {
		b.Reset()
		for i := 0; i < 64; i++ {
			key[15] = byte(i)
			if i%8 == 7 {
				b.Delete(key)
			} else {
				b.Put(key, val)
			}
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Errorf("%v allocations to refill a 64-op batch after Reset, want 0", allocs)
	}
}

// getOpts sizes the memtable so that a few thousand small records stay in
// it until the test flushes them.
func getOpts() Options {
	opt := DefaultOptions(cpu.NewPool(8, "test-cpu"))
	opt.MemtableSize = 8 << 20
	return opt
}

const getKeys = 4096

func getKey(key []byte, i int) []byte {
	binary.BigEndian.PutUint64(key[8:], uint64(i%getKeys)*0x9e3779b97f4a7c15)
	return key
}

// loadForGet writes getKeys records of 128 B; with flush they end up in
// one L0 table and the memtable is empty.
func loadForGet(r *vclock.Runner, db *DB, flush bool) error {
	key, val := make([]byte, 16), make([]byte, 128)
	for i := 0; i < getKeys; i++ {
		if err := db.Put(r, getKey(key, i), val); err != nil {
			return err
		}
	}
	if flush {
		return db.Flush(r)
	}
	return nil
}

// TestAllocsGet pins the read path's garbage. A Get pins the current
// version by one counter — no copy of the level lists, no walk over the
// files — reads the immutables into an array on its stack and visits
// candidate files without collecting them, and the value it returns is a
// view — of the memtable's slab, of a block of the table's one extent,
// of the value log's segment — so with the page cache warm a Get
// allocates nothing wherever it is answered.
func TestAllocsGet(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, tc := range []struct {
		name      string
		flush     bool
		threshold int // ValueThreshold: 128-byte values go to the value log at 64
	}{
		{"memtable", false, 0},
		{"sst", true, 0},
		{"value-pointer", true, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := getOpts()
			opt.ValueThreshold = tc.threshold
			opt.VLogSegmentSize = 64 << 10 // most values in written-back segment files
			clk, db := newTestDB(0, opt)
			clk.Go("reader", func(r *vclock.Runner) {
				defer db.Close()
				if err := loadForGet(r, db, tc.flush); err != nil {
					t.Error(err)
					return
				}
				key := make([]byte, 16)
				get := func(i int) {
					if _, ok, err := db.Get(r, getKey(key, i)); err != nil || !ok {
						t.Errorf("get %d: ok=%v err=%v", i, ok, err)
					}
				}
				for i := 0; i < getKeys; i++ {
					get(i) // every page the measured stretch reads is resident
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < 2000; i++ {
					get(i * 7)
				}
				runtime.ReadMemStats(&after)
				perGet := float64(after.Mallocs-before.Mallocs) / 2000
				t.Logf("%.3f allocations per Get", perGet)
				if perGet > 0.01 {
					t.Errorf("%.3f allocations per Get, want 0", perGet)
				}
				st := db.Stats()
				if tc.flush != (st.ReadsMemtable == 0) || st.ReadMisses != 0 {
					t.Errorf("reads were not served where the case says: %d from the memtable, %d missed", st.ReadsMemtable, st.ReadMisses)
				}
				if (tc.threshold > 0) != (st.VLogDerefs > 0) {
					t.Errorf("%d value-log dereferences with ValueThreshold %d", st.VLogDerefs, tc.threshold)
				}
			})
			clk.Wait()
		})
	}
}

func benchmarkGet(b *testing.B, flush bool) {
	clk, db := newTestDB(0, getOpts())
	b.ReportAllocs()
	clk.Go("reader", func(r *vclock.Runner) {
		defer db.Close()
		if err := loadForGet(r, db, flush); err != nil {
			b.Error(err)
			return
		}
		key := make([]byte, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, err := db.Get(r, getKey(key, i)); err != nil || !ok {
				b.Errorf("get %d: ok=%v err=%v", i, ok, err)
				return
			}
		}
	})
	clk.Wait()
}

// BenchmarkGetMemtable is a point read the active memtable answers: the
// read CPU charge (one park), the version pin and the memtable seek.
func BenchmarkGetMemtable(b *testing.B) { benchmarkGet(b, false) }

// BenchmarkGetSST is a point read one L0 table answers from cached
// blocks: the memtable miss, the bloom probe, the index and block seeks.
func BenchmarkGetSST(b *testing.B) { benchmarkGet(b, true) }
