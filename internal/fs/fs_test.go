package fs

import (
	"bytes"
	"errors"
	"testing"

	"kvaccel/internal/faults"
	"kvaccel/internal/vclock"
)

// fakeDev counts page I/O without spending time.
type fakeDev struct {
	pageSize   int
	pages      int
	writes     int
	reads      int
	trims      int
	failWrites bool
}

var errFake = errors.New("fakeDev: injected write failure")

func (d *fakeDev) WritePages(r *vclock.Runner, lpns []int) error {
	if d.failWrites {
		return errFake
	}
	d.writes += len(lpns)
	return nil
}
func (d *fakeDev) ReadPages(r *vclock.Runner, lpns []int) error {
	d.reads += len(lpns)
	return nil
}
func (d *fakeDev) TrimPages(r *vclock.Runner, lpns []int) error {
	d.trims += len(lpns)
	return nil
}
func (d *fakeDev) PageSize() int { return d.pageSize }
func (d *fakeDev) Pages() int    { return d.pages }

func run(t *testing.T, fn func(r *vclock.Runner)) {
	t.Helper()
	c := vclock.New()
	c.Go("test", fn)
	c.Wait()
}

func newTestFS() (*FileSystem, *fakeDev) {
	dev := &fakeDev{pageSize: 4096, pages: 1024}
	return New(dev), dev
}

func TestWriteReadFile(t *testing.T) {
	fsys, dev := newTestFS()
	data := bytes.Repeat([]byte("abcd"), 3000) // 12000 bytes -> 3 pages
	run(t, func(r *vclock.Runner) {
		if err := fsys.WriteFile(r, "f1", data); err != nil {
			t.Fatal(err)
		}
		got, err := fsys.ReadFile(r, "f1")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read data differs from written data")
		}
	})
	if dev.writes != 3 {
		t.Fatalf("page writes = %d, want 3", dev.writes)
	}
	if dev.reads != 0 {
		t.Fatalf("page reads = %d, want 0 (written pages are cache-resident)", dev.reads)
	}
}

func TestReadAtTouchesOnlyCoveredPages(t *testing.T) {
	fsys, dev := newTestFS()
	data := make([]byte, 10*4096)
	for i := range data {
		data[i] = byte(i)
	}
	run(t, func(r *vclock.Runner) {
		if err := fsys.WriteFile(r, "f", data); err != nil {
			t.Fatal(err)
		}
		// Bound the cache to two pages so reads outside it are cold.
		fsys.SetPageCacheBytes(2 * 4096)
		dev.reads = 0
		got, err := fsys.ReadAt(r, "f", 4096+100, 200) // inside page 1
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[4196:4396]) {
			t.Fatal("ReadAt returned wrong bytes")
		}
	})
	if dev.reads != 1 {
		t.Fatalf("page reads = %d, want 1 (cold page)", dev.reads)
	}
}

func TestReadAtBounds(t *testing.T) {
	fsys, _ := newTestFS()
	run(t, func(r *vclock.Runner) {
		if err := fsys.WriteFile(r, "f", []byte("hello")); err != nil {
			t.Fatal(err)
		}
		if _, err := fsys.ReadAt(r, "f", 3, 10); err == nil {
			t.Error("out-of-bounds read succeeded")
		}
		if _, err := fsys.ReadAt(r, "f", -1, 2); err == nil {
			t.Error("negative offset read succeeded")
		}
		if _, err := fsys.ReadAt(r, "missing", 0, 1); err == nil {
			t.Error("read of missing file succeeded")
		}
		// Zero-length read at the end is legal.
		if _, err := fsys.ReadAt(r, "f", 5, 0); err != nil {
			t.Errorf("zero-length read at EOF: %v", err)
		}
	})
}

func TestAppendGrowsAndRewritesPartialTail(t *testing.T) {
	fsys, dev := newTestFS()
	run(t, func(r *vclock.Runner) {
		if err := fsys.Append(r, "log", make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		w1 := dev.writes // 1 new page
		if err := fsys.Append(r, "log", make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		// Second append stays within page 0: rewrites that page only.
		if dev.writes != w1+1 {
			t.Fatalf("partial-tail append wrote %d pages, want 1", dev.writes-w1)
		}
		if err := fsys.Append(r, "log", make([]byte, 8192)); err != nil {
			t.Fatal(err)
		}
		sz, _ := fsys.Size("log")
		if sz != 8392 {
			t.Fatalf("size = %d, want 8392", sz)
		}
		got, err := fsys.ReadFile(r, "log")
		if err != nil || len(got) != 8392 {
			t.Fatalf("read after appends: len=%d err=%v", len(got), err)
		}
	})
}

func TestRemoveFreesPages(t *testing.T) {
	fsys, dev := newTestFS()
	var before int64
	run(t, func(r *vclock.Runner) {
		before = fsys.FreeBytes()
		if err := fsys.WriteFile(r, "tmp", make([]byte, 4*4096)); err != nil {
			t.Fatal(err)
		}
		if fsys.FreeBytes() != before-4*4096 {
			t.Fatal("free space not reduced by write")
		}
		if err := fsys.Remove(r, "tmp"); err != nil {
			t.Fatal(err)
		}
		if fsys.FreeBytes() != before {
			t.Fatal("remove did not reclaim pages")
		}
		if dev.trims != 4 {
			t.Fatalf("trims = %d, want 4", dev.trims)
		}
		if err := fsys.Remove(r, "tmp"); err == nil {
			t.Fatal("double remove succeeded")
		}
	})
}

func TestOverwriteReplacesFile(t *testing.T) {
	fsys, _ := newTestFS()
	run(t, func(r *vclock.Runner) {
		if err := fsys.WriteFile(r, "f", make([]byte, 8*4096)); err != nil {
			t.Fatal(err)
		}
		free := fsys.FreeBytes()
		if err := fsys.WriteFile(r, "f", make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		if fsys.FreeBytes() != free+7*4096 {
			t.Fatalf("overwrite did not reclaim pages: free %d -> %d", free, fsys.FreeBytes())
		}
	})
}

func TestOutOfSpace(t *testing.T) {
	dev := &fakeDev{pageSize: 4096, pages: 4}
	fsys := New(dev)
	run(t, func(r *vclock.Runner) {
		if err := fsys.WriteFile(r, "big", make([]byte, 5*4096)); err == nil {
			t.Error("oversized write succeeded")
		}
		if err := fsys.WriteFile(r, "ok", make([]byte, 4*4096)); err != nil {
			t.Errorf("exact-fit write failed: %v", err)
		}
	})
}

func TestListAndExists(t *testing.T) {
	fsys, _ := newTestFS()
	run(t, func(r *vclock.Runner) {
		_ = fsys.WriteFile(r, "a", []byte("1"))
		_ = fsys.WriteFile(r, "b", []byte("2"))
	})
	if !fsys.Exists("a") || !fsys.Exists("b") || fsys.Exists("c") {
		t.Fatal("Exists wrong")
	}
	if got := fsys.List(); len(got) != 2 {
		t.Fatalf("List = %v", got)
	}
	if fsys.UsedBytes() != 2 {
		t.Fatalf("UsedBytes = %d, want 2", fsys.UsedBytes())
	}
}

func TestPageCacheUnboundedServesReadsFromMemory(t *testing.T) {
	fsys, dev := newTestFS()
	run(t, func(r *vclock.Runner) {
		_ = fsys.WriteFile(r, "f", make([]byte, 8*4096))
		for i := 0; i < 10; i++ {
			if _, err := fsys.ReadFile(r, "f"); err != nil {
				t.Fatal(err)
			}
		}
	})
	if dev.reads != 0 {
		t.Fatalf("device reads = %d, want 0 with unbounded cache", dev.reads)
	}
	if fsys.CachedPages() != 8 {
		t.Fatalf("cached pages = %d, want 8", fsys.CachedPages())
	}
}

func TestPageCacheBoundedEvictsLRU(t *testing.T) {
	fsys, dev := newTestFS()
	run(t, func(r *vclock.Runner) {
		_ = fsys.WriteFile(r, "f", make([]byte, 8*4096))
		fsys.SetPageCacheBytes(4 * 4096) // half the file fits
		if fsys.CachedPages() != 4 {
			t.Fatalf("cached pages after shrink = %d, want 4", fsys.CachedPages())
		}
		dev.reads = 0
		// A full scan must fault the evicted half back in.
		if _, err := fsys.ReadFile(r, "f"); err != nil {
			t.Fatal(err)
		}
		if dev.reads == 0 {
			t.Fatal("bounded cache never touched the device")
		}
	})
}

func TestPageCacheDropsRemovedFiles(t *testing.T) {
	fsys, _ := newTestFS()
	run(t, func(r *vclock.Runner) {
		_ = fsys.WriteFile(r, "f", make([]byte, 4*4096))
		if err := fsys.Remove(r, "f"); err != nil {
			t.Fatal(err)
		}
	})
	if fsys.CachedPages() != 0 {
		t.Fatalf("cached pages after remove = %d, want 0", fsys.CachedPages())
	}
}

func TestCrashDropsNeverDurableFiles(t *testing.T) {
	fsys, dev := newTestFS()
	free := fsys.FreeBytes()
	run(t, func(r *vclock.Runner) {
		dev.failWrites = true
		if err := fsys.WriteFile(r, "lost", make([]byte, 4096)); err == nil {
			t.Fatal("write should have failed")
		}
	})
	fsys.Crash(faults.NewPlan(1))
	if fsys.Exists("lost") {
		t.Fatal("never-durable file survived the crash")
	}
	if fsys.FreeBytes() != free {
		t.Fatal("crash leaked pages of the vanished file")
	}
}

func TestCrashRevertsFailedReplaceToOldImage(t *testing.T) {
	fsys, dev := newTestFS()
	old := bytes.Repeat([]byte("old!"), 1024)
	run(t, func(r *vclock.Runner) {
		if err := fsys.WriteFile(r, "f", old); err != nil {
			t.Fatal(err)
		}
		dev.failWrites = true
		if err := fsys.WriteFile(r, "f", bytes.Repeat([]byte("new!"), 4096)); err == nil {
			t.Fatal("replace should have failed")
		}
	})
	fsys.Crash(faults.NewPlan(1))
	dev.failWrites = false
	run(t, func(r *vclock.Runner) {
		got, err := fsys.ReadFile(r, "f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, old) {
			t.Fatalf("crash image len=%d, want the old image len=%d", len(got), len(old))
		}
	})
}

func TestCrashKeepsAckedPrefixAndTearsTail(t *testing.T) {
	fsys, dev := newTestFS()
	acked := bytes.Repeat([]byte("A"), 5000)
	unacked := bytes.Repeat([]byte("B"), 3000)
	run(t, func(r *vclock.Runner) {
		if err := fsys.Append(r, "log", acked); err != nil {
			t.Fatal(err)
		}
		dev.failWrites = true
		if err := fsys.Append(r, "log", unacked); err == nil {
			t.Fatal("append should have failed")
		}
	})
	fsys.Crash(faults.NewPlan(7))
	dev.failWrites = false
	run(t, func(r *vclock.Runner) {
		got, err := fsys.ReadFile(r, "log")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < len(acked) || len(got) > len(acked)+len(unacked) {
			t.Fatalf("crash image len=%d, want within [%d,%d]", len(got), len(acked), len(acked)+len(unacked))
		}
		if !bytes.Equal(got[:len(acked)], acked) {
			t.Fatal("acknowledged prefix corrupted by crash")
		}
	})
	if fsys.CachedPages() != 0 {
		// ReadFile above re-faulted pages; check by crashing a fresh fs.
		f2, _ := newTestFS()
		f2.Crash(faults.NewPlan(1))
		if f2.CachedPages() != 0 {
			t.Fatal("crash did not drop the page cache")
		}
	}
}

func TestCrashTornFragmentIsSeedDeterministic(t *testing.T) {
	build := func(seed int64) []byte {
		fsys, dev := newTestFS()
		var img []byte
		run(t, func(r *vclock.Runner) {
			_ = fsys.Append(r, "log", bytes.Repeat([]byte("x"), 2000))
			dev.failWrites = true
			_ = fsys.Append(r, "log", bytes.Repeat([]byte("y"), 2000))
		})
		fsys.Crash(faults.NewPlan(seed))
		dev.failWrites = false
		run(t, func(r *vclock.Runner) {
			img, _ = fsys.ReadFile(r, "log")
		})
		return img
	}
	a, b := build(3), build(3)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different crash images")
	}
}
