package devlsm

import (
	"errors"
	"testing"
	"time"

	"kvaccel/internal/cpu"
	"kvaccel/internal/faults"
	"kvaccel/internal/ftl"
	"kvaccel/internal/memtable"
	"kvaccel/internal/nand"
	"kvaccel/internal/vclock"
)

// A full key-value region is a status: these tests run 64 KiB buffers
// over a 48-page (192 KiB) region, so two runs fit and the third flush
// finds the region out of pages.

func fullRegionDev() *DevLSM {
	geo := nand.Geometry{Channels: 2, Ways: 2, BlocksPerDie: 64, PagesPerBlock: 32, PageSize: 4096}
	timing := nand.Timing{ReadPage: 50 * time.Microsecond, ProgramPage: 400 * time.Microsecond, ChannelMBps: 200}
	f := ftl.New(nand.New(geo, timing), ftl.Config{BlockRegionPages: 1024, KVRegionPages: 48, GCFreeBlockLow: 4, GCFreeBlockHigh: 8})
	cfg := DefaultConfig()
	cfg.MemtableBytes = 64 << 10
	return New(f, cpu.NewPool(1, "arm"), cfg)
}

// fillUntilFull puts key(0), key(1), ... until a flush finds the region
// full, then waits out the puts' own flushes, and returns the next index.
func fillUntilFull(t *testing.T, r *vclock.Runner, d *DevLSM, model map[string]string) int {
	t.Helper()
	i := 0
	for ; !d.Full(); i++ {
		if i > 10000 {
			t.Fatal("the region never filled")
		}
		if err := d.Put(r, memtable.KindPut, key(i), value(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		model[string(key(i))] = string(value(i))
		r.Sleep(100 * time.Microsecond) // let the background flushes keep up
	}
	return i
}

// usedPages counts the region pages the installed runs hold.
func usedPages(d *DevLSM) int {
	n := 0
	for _, ru := range d.runs {
		for _, pm := range ru.pages {
			n += len(pm.lpns)
		}
	}
	return n
}

// TestFullRegionIsAStatus: the flush that finds too few pages installs no
// run, gives back the pages it took and leaves its buffer sealed; every
// record stays readable through Get, the iterator and the bulk scan, and
// Flush reports faults.ErrCapacityExceeded. Puts still land, in the active
// buffer past its budget, since no run can take them; Reset empties the
// region and the Dev-LSM flushes again.
func TestFullRegionIsAStatus(t *testing.T) {
	d := fullRegionDev()
	model := map[string]string{}
	runSim(t, func(r *vclock.Runner) {
		next := fillUntilFull(t, r, d, model)
		if d.sealed == nil {
			t.Fatal("the full region's flush dropped its sealed buffer")
		}
		if free := d.freeLPNs.Len(); free+usedPages(d) != 48 {
			t.Errorf("%d free pages and %d in runs, want 48 together: the failed flush kept pages", free, usedPages(d))
		}
		if err := d.Flush(r); !errors.Is(err, faults.ErrCapacityExceeded) {
			t.Errorf("Flush on a full region: %v, want capacity exceeded", err)
		}
		// Past the budget: a supersede marker, an overwrite and new keys.
		budget := d.cfg.MemtableBytes
		for i := next; d.mem.ApproximateSize() < 2*budget; i++ {
			if err := d.Put(r, memtable.KindPut, key(i), value(i)); err != nil {
				t.Fatalf("put %d on a full region: %v", i, err)
			}
			model[string(key(i))] = string(value(i))
		}
		if err := d.Put(r, memtable.KindDelete, key(1), nil); err != nil {
			t.Fatal(err)
		}
		model[string(key(1))] = ""
		if !d.Full() || d.Stats().BufferWaits != 0 {
			t.Errorf("full=%v buffer-waits=%d after puts past the budget, want full and 0", d.Full(), d.Stats().BufferWaits)
		}
		for k, want := range model {
			v, kind, ok, err := d.Get(r, []byte(k))
			if err != nil || !ok || string(v) != want || (want == "") != (kind == memtable.KindDelete) {
				t.Fatalf("Get(%s) = %.8q kind %v ok=%v err=%v, want %.8q", k, v, kind, ok, err, want)
			}
		}
		var scanned []memtable.Entry
		d.BulkScan(r, 16<<10, func(ch ScanChunk) { scanned = append(scanned, ch.Entries()...) })
		checkRecords(t, "BulkScan", scanned, model)
		it := d.NewIterator(r)
		var iterated []memtable.Entry
		for it.SeekToFirst(); it.Valid(); it.Next() {
			iterated = append(iterated, it.Entry())
		}
		checkRecords(t, "Iterator", iterated, model)

		d.Reset(r)
		if d.Full() || !d.Empty() || d.freeLPNs.Len() != 48 {
			t.Fatalf("after Reset: full=%v empty=%v free=%d, want a clear 48-page region", d.Full(), d.Empty(), d.freeLPNs.Len())
		}
		for i := 0; i < 200; i++ {
			if err := d.Put(r, memtable.KindPut, key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(r); err != nil {
			t.Fatalf("Flush after Reset: %v", err)
		}
	})
}
