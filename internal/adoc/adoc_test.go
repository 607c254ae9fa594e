package adoc

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"kvaccel/internal/cpu"
	"kvaccel/internal/fs"
	"kvaccel/internal/lsm"
	"kvaccel/internal/vclock"
)

type testDev struct {
	pageSize int
	pages    int
	perPage  time.Duration
}

func (d *testDev) WritePages(r *vclock.Runner, lpns []int) error {
	if d.perPage > 0 {
		r.Sleep(time.Duration(len(lpns)) * d.perPage)
	}
	return nil
}
func (d *testDev) ReadPages(r *vclock.Runner, lpns []int) error {
	if d.perPage > 0 {
		r.Sleep(time.Duration(len(lpns)) * d.perPage / 4)
	}
	return nil
}
func (d *testDev) TrimPages(r *vclock.Runner, lpns []int) error { return nil }
func (d *testDev) PageSize() int                                { return d.pageSize }
func (d *testDev) Pages() int                                   { return d.pages }

func newEnv(perPage time.Duration) (*vclock.Clock, *lsm.DB) {
	clk := vclock.New()
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20, perPage: perPage})
	opt := lsm.DefaultOptions(cpu.NewPool(8, "host"))
	opt.MemtableSize = 64 << 10
	opt.BaseLevelBytes = 256 << 10
	opt.MaxFileSize = 128 << 10
	opt.L0CompactionTrigger = 2
	opt.L0SlowdownTrigger = 4
	opt.L0StopTrigger = 8
	opt.PendingCompactionSlowdownBytes = 64 << 20
	opt.PendingCompactionStopBytes = 256 << 20
	opt.WALChunkSize = 64 << 10
	opt.WALQueueDepth = 32
	opt.Cost.MergeCPUPerKB = 4 * time.Microsecond
	opt.EnableSlowdown = true
	opt.MaxCompactionThreads = 8
	return clk, lsm.Open(clk, fsys, opt)
}

func TestTunerScalesThreadsUpUnderPressure(t *testing.T) {
	clk, db := newEnv(300 * time.Microsecond)
	tuner := Attach(clk, db, Options{
		Period:            50 * time.Millisecond,
		MinThreads:        1,
		MaxThreads:        4,
		BaseMemtableBytes: 64 << 10,
		MaxMemtableBytes:  256 << 10,
		CalmEpochs:        4,
	})
	clk.Go("writer", func(r *vclock.Runner) {
		defer db.Close()
		defer tuner.Stop()
		val := bytes.Repeat([]byte("v"), 256)
		for i := 0; i < 5000; i++ {
			_ = db.Put(r, []byte(fmt.Sprintf("key%07d", i)), val)
		}
		db.Flush(r)
	})
	clk.Wait()
	s := tuner.Stats()
	if s.Epochs == 0 {
		t.Fatal("tuner never ran an epoch")
	}
	if s.ThreadIncreases == 0 {
		t.Fatalf("ADOC never scaled threads under sustained write pressure: %+v", s)
	}
}

func TestTunerStepsDownWhenCalm(t *testing.T) {
	clk, db := newEnv(0)
	tuner := Attach(clk, db, Options{
		Period:            20 * time.Millisecond,
		MinThreads:        1,
		MaxThreads:        4,
		BaseMemtableBytes: 64 << 10,
		MaxMemtableBytes:  256 << 10,
		CalmEpochs:        2,
	})
	clk.Go("driver", func(r *vclock.Runner) {
		defer db.Close()
		defer tuner.Stop()
		// Manually push the knobs up, then idle.
		db.SetCompactionThreads(4)
		db.SetMemtableSize(256 << 10)
		r.Sleep(2 * time.Second)
		if db.CompactionThreads() != 1 {
			t.Errorf("threads = %d after calm period, want 1", db.CompactionThreads())
		}
		if db.MemtableSize() != 64<<10 {
			t.Errorf("memtable = %d after calm period, want 64KiB", db.MemtableSize())
		}
	})
	clk.Wait()
	if tuner.Stats().ThreadDecreases == 0 {
		t.Fatal("no step-down recorded")
	}
}

func TestTunerRespectsBounds(t *testing.T) {
	clk, db := newEnv(500 * time.Microsecond)
	tuner := Attach(clk, db, Options{
		Period:     30 * time.Millisecond,
		MinThreads: 2,
		MaxThreads: 3,
		CalmEpochs: 2,
	})
	if db.CompactionThreads() != 2 {
		t.Fatalf("initial threads = %d, want MinThreads=2", db.CompactionThreads())
	}
	clk.Go("writer", func(r *vclock.Runner) {
		defer db.Close()
		defer tuner.Stop()
		val := bytes.Repeat([]byte("v"), 256)
		for i := 0; i < 4000; i++ {
			_ = db.Put(r, []byte(fmt.Sprintf("key%07d", i)), val)
		}
		if n := db.CompactionThreads(); n < 2 || n > 3 {
			t.Errorf("threads = %d outside [2,3]", n)
		}
	})
	clk.Wait()
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions(2, 128<<10)
	if o.MinThreads != 2 || o.MaxThreads != 4 {
		t.Fatalf("thread bounds = [%d,%d]", o.MinThreads, o.MaxThreads)
	}
	if o.MaxMemtableBytes != 256<<10 {
		t.Fatalf("max memtable = %d", o.MaxMemtableBytes)
	}
	o = DefaultOptions(0, 0)
	if o.MinThreads != 1 {
		t.Fatal("startThreads not clamped")
	}
}
