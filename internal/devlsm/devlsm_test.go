package devlsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"kvaccel/internal/cpu"
	"kvaccel/internal/ftl"
	"kvaccel/internal/memtable"
	"kvaccel/internal/nand"
	"kvaccel/internal/vclock"
)

func newDev(cfg Config) *DevLSM {
	geo := nand.Geometry{Channels: 2, Ways: 2, BlocksPerDie: 64, PagesPerBlock: 32, PageSize: 4096}
	timing := nand.Timing{ReadPage: 50 * time.Microsecond, ProgramPage: 400 * time.Microsecond, ChannelMBps: 200}
	arr := nand.New(geo, timing)
	f := ftl.New(arr, ftl.Config{BlockRegionPages: 1024, KVRegionPages: 4096, GCFreeBlockLow: 4, GCFreeBlockHigh: 8})
	arm := cpu.NewPool(1, "arm")
	return New(f, arm, cfg)
}

func runSim(t *testing.T, fn func(r *vclock.Runner)) {
	t.Helper()
	clk := vclock.New()
	clk.Go("test", fn)
	clk.Wait()
}

func key(i int) []byte   { return []byte(fmt.Sprintf("key%06d", i)) }
func value(i int) []byte { return bytes.Repeat([]byte{byte('A' + i%26)}, 100) }

func TestPutGetMemtableOnly(t *testing.T) {
	d := newDev(DefaultConfig())
	runSim(t, func(r *vclock.Runner) {
		d.Put(r, memtable.KindPut, key(1), value(1))
		v, kind, ok, _ := d.Get(r, key(1))
		if !ok || kind != memtable.KindPut || !bytes.Equal(v, value(1)) {
			t.Fatalf("get: ok=%v kind=%v", ok, kind)
		}
		if _, _, ok, _ := d.Get(r, key(99)); ok {
			t.Fatal("absent key found")
		}
	})
	if d.Count() != 1 {
		t.Fatalf("count = %d", d.Count())
	}
}

func TestFlushAndGetFromRun(t *testing.T) {
	d := newDev(DefaultConfig())
	runSim(t, func(r *vclock.Runner) {
		for i := 0; i < 200; i++ {
			d.Put(r, memtable.KindPut, key(i), value(i))
		}
		d.Flush(r)
		if d.Stats().Flushes == 0 {
			t.Fatal("flush did not happen")
		}
		for i := 0; i < 200; i += 11 {
			v, _, ok, _ := d.Get(r, key(i))
			if !ok || !bytes.Equal(v, value(i)) {
				t.Fatalf("get %d from run: ok=%v", i, ok)
			}
		}
	})
}

func TestMemtableAutoFlushOnBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemtableBytes = 8 << 10
	d := newDev(cfg)
	runSim(t, func(r *vclock.Runner) {
		for i := 0; i < 500; i++ {
			d.Put(r, memtable.KindPut, key(i), value(i))
		}
	})
	if d.Stats().Flushes == 0 {
		t.Fatal("no automatic flush despite exceeding the DRAM budget")
	}
}

func TestNewestVersionWinsAcrossRuns(t *testing.T) {
	d := newDev(DefaultConfig())
	runSim(t, func(r *vclock.Runner) {
		d.Put(r, memtable.KindPut, key(5), []byte("old"))
		d.Flush(r)
		d.Put(r, memtable.KindPut, key(5), []byte("mid"))
		d.Flush(r)
		d.Put(r, memtable.KindPut, key(5), []byte("new"))
		v, _, ok, _ := d.Get(r, key(5))
		if !ok || string(v) != "new" {
			t.Fatalf("got %q, want new", v)
		}
	})
}

func TestTombstoneSurfaces(t *testing.T) {
	d := newDev(DefaultConfig())
	runSim(t, func(r *vclock.Runner) {
		d.Put(r, memtable.KindPut, key(1), value(1))
		d.Flush(r)
		d.Put(r, memtable.KindDelete, key(1), nil)
		_, kind, ok, _ := d.Get(r, key(1))
		if !ok || kind != memtable.KindDelete {
			t.Fatalf("tombstone: ok=%v kind=%v", ok, kind)
		}
	})
}

func TestIteratorDedupsAndOrders(t *testing.T) {
	d := newDev(DefaultConfig())
	runSim(t, func(r *vclock.Runner) {
		for i := 0; i < 100; i++ {
			d.Put(r, memtable.KindPut, key(i), value(i))
		}
		d.Flush(r)
		for i := 0; i < 100; i += 2 { // overwrite half
			d.Put(r, memtable.KindPut, key(i), []byte("v2"))
		}
		it := d.NewIterator(r)
		n := 0
		var prev []byte
		for it.SeekToFirst(); it.Valid(); it.Next() {
			e := it.Entry()
			if prev != nil && bytes.Compare(prev, e.Key) >= 0 {
				t.Fatalf("iterator not strictly ascending: %q then %q", prev, e.Key)
			}
			prev = append(prev[:0], e.Key...)
			if n%2 == 0 && !bytes.Equal(e.Value, []byte("v2")) {
				t.Fatalf("key %d: old version surfaced", n)
			}
			n++
		}
		if n != 100 {
			t.Fatalf("iterated %d keys, want 100", n)
		}
	})
}

func TestIteratorSeek(t *testing.T) {
	d := newDev(DefaultConfig())
	runSim(t, func(r *vclock.Runner) {
		for i := 0; i < 100; i += 2 {
			d.Put(r, memtable.KindPut, key(i), value(i))
		}
		d.Flush(r)
		it := d.NewIterator(r)
		it.Seek(key(51))
		if !it.Valid() || !bytes.Equal(it.Entry().Key, key(52)) {
			t.Fatalf("Seek landed on %q, want key 52", it.Entry().Key)
		}
	})
}

func TestBulkScanChunksAndCompleteness(t *testing.T) {
	d := newDev(DefaultConfig())
	runSim(t, func(r *vclock.Runner) {
		const n = 300
		for i := 0; i < n; i++ {
			d.Put(r, memtable.KindPut, key(i), value(i))
		}
		d.Flush(r)
		for i := 0; i < 50; i++ { // some still in memtable
			d.Put(r, memtable.KindPut, key(n+i), value(i))
		}
		var got int
		var chunks int
		var prev []byte
		d.BulkScan(r, 8<<10, func(c ScanChunk) {
			chunks++
			if c.Bytes > 16<<10 {
				t.Errorf("chunk of %d bytes exceeds bound", c.Bytes)
			}
			for _, e := range c.Entries() {
				if prev != nil && bytes.Compare(prev, e.Key) >= 0 {
					t.Fatalf("bulk scan out of order: %q then %q", prev, e.Key)
				}
				prev = append(prev[:0], e.Key...)
				got++
			}
		})
		if got != n+50 {
			t.Fatalf("bulk scan returned %d entries, want %d", got, n+50)
		}
		if chunks < 2 {
			t.Fatalf("expected multiple chunks, got %d", chunks)
		}
	})
}

func TestResetClearsEverything(t *testing.T) {
	d := newDev(DefaultConfig())
	runSim(t, func(r *vclock.Runner) {
		for i := 0; i < 200; i++ {
			d.Put(r, memtable.KindPut, key(i), value(i))
		}
		d.Flush(r)
		d.Reset(r)
		if !d.Empty() || d.Bytes() != 0 {
			t.Fatal("reset left data behind")
		}
		if _, _, ok, _ := d.Get(r, key(5)); ok {
			t.Fatal("key readable after reset")
		}
		// The device must be reusable after reset.
		d.Put(r, memtable.KindPut, key(1), value(1))
		d.Flush(r)
		if _, _, ok, _ := d.Get(r, key(1)); !ok {
			t.Fatal("Dev-LSM unusable after reset")
		}
	})
	if d.Stats().Resets != 1 {
		t.Fatalf("resets = %d", d.Stats().Resets)
	}
}

func TestDeviceCompactionMergesRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CompactionEnabled = true
	cfg.MaxRuns = 2
	d := newDev(cfg)
	runSim(t, func(r *vclock.Runner) {
		for round := 0; round < 4; round++ {
			for i := 0; i < 100; i++ {
				d.Put(r, memtable.KindPut, key(i), []byte(fmt.Sprintf("round%d", round)))
			}
			d.Flush(r)
		}
		if d.Stats().Compactions == 0 {
			t.Fatal("device compaction never ran")
		}
		// Data intact and newest version preserved.
		for i := 0; i < 100; i += 9 {
			v, _, ok, _ := d.Get(r, key(i))
			if !ok || string(v) != "round3" {
				t.Fatalf("key %d after device compaction = %q ok=%v", i, v, ok)
			}
		}
	})
}

func TestRandomMatchesModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemtableBytes = 4 << 10
	d := newDev(cfg)
	rng := rand.New(rand.NewSource(3))
	model := map[string]string{}
	runSim(t, func(r *vclock.Runner) {
		for op := 0; op < 2000; op++ {
			k := key(rng.Intn(150))
			if rng.Intn(8) == 0 {
				d.Put(r, memtable.KindDelete, k, nil)
				model[string(k)] = "" // tombstone
			} else {
				v := fmt.Sprintf("v%d", op)
				d.Put(r, memtable.KindPut, k, []byte(v))
				model[string(k)] = v
			}
		}
		for k, want := range model {
			v, kind, ok, _ := d.Get(r, []byte(k))
			if !ok {
				t.Fatalf("model key %q missing", k)
			}
			if want == "" {
				if kind != memtable.KindDelete {
					t.Fatalf("key %q should be a tombstone", k)
				}
			} else if string(v) != want {
				t.Fatalf("key %q = %q, want %q", k, v, want)
			}
		}
	})
}

func TestLargeRecordSpansPages(t *testing.T) {
	d := newDev(DefaultConfig())
	runSim(t, func(r *vclock.Runner) {
		big := bytes.Repeat([]byte("x"), 10_000) // > 4 KiB page
		d.Put(r, memtable.KindPut, key(1), big)
		d.Flush(r)
		v, _, ok, _ := d.Get(r, key(1))
		if !ok || !bytes.Equal(v, big) {
			t.Fatal("oversized record lost across page boundary")
		}
	})
}

func TestVersionsStraddlingPageBoundary(t *testing.T) {
	// Regression twin of the sstable block-boundary bug: versions of one
	// key crossing a flash-page boundary must resolve to the newest.
	d := newDev(DefaultConfig())
	runSim(t, func(r *vclock.Runner) {
		big := bytes.Repeat([]byte("p"), 1500) // ~3 records per 4 KiB page
		d.Put(r, memtable.KindPut, key(0), big)
		for v := 0; v < 12; v++ {
			d.Put(r, memtable.KindPut, key(5), append([]byte(fmt.Sprintf("v%02d-", v)), big...))
		}
		d.Put(r, memtable.KindPut, key(9), big)
		d.Flush(r)
		v, _, ok, _ := d.Get(r, key(5))
		if !ok || !bytes.HasPrefix(v, []byte("v11-")) {
			t.Fatalf("Get returned %.8q ok=%v, want newest v11-", v, ok)
		}
	})
}

// TestNewRegionRejectsZeroBudgets: the memtable budget and the run limit
// are used as given, so a zero one panics with the field's name.
func TestNewRegionRejectsZeroBudgets(t *testing.T) {
	for _, field := range []string{"MemtableBytes", "MaxRuns"} {
		cfg := DefaultConfig()
		if field == "MemtableBytes" {
			cfg.MemtableBytes = 0
		} else {
			cfg.MaxRuns = 0
		}
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, field) {
					t.Errorf("NewRegion with zero %s panicked with %q, want the field's name", field, msg)
				}
			}()
			newDev(cfg)
		}()
	}
}
