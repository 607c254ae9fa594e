package ftl

import (
	"testing"
	"time"

	"kvaccel/internal/faults"
	"kvaccel/internal/nand"
	"kvaccel/internal/vclock"
)

func testArray() *nand.Array {
	geo := nand.Geometry{Channels: 2, Ways: 2, BlocksPerDie: 16, PagesPerBlock: 8, PageSize: 4096}
	timing := nand.Timing{ReadPage: 10 * time.Microsecond, ProgramPage: 100 * time.Microsecond, EraseBlock: time.Millisecond, ChannelMBps: 0}
	return nand.New(geo, timing)
}

func testCfg() Config {
	// 64 blocks total * 8 pages = 512 pages; leave room for GC reserve.
	return Config{BlockRegionPages: 128, KVRegionPages: 64, GCFreeBlockLow: 4, GCFreeBlockHigh: 8}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := vclock.New()
	f := New(testArray(), testCfg())
	c.Go("io", func(r *vclock.Runner) {
		f.Write(r, BlockRegion, 5)
		if err := f.Read(r, BlockRegion, 5); err != nil {
			t.Errorf("read mapped page: %v", err)
		}
	})
	c.Wait()
	if got := f.Stats().HostPagesWritten; got != 1 {
		t.Fatalf("pages written = %d, want 1", got)
	}
}

func TestReadUnmappedErrors(t *testing.T) {
	c := vclock.New()
	f := New(testArray(), testCfg())
	c.Go("io", func(r *vclock.Runner) {
		if err := f.Read(r, BlockRegion, 7); err == nil {
			t.Error("read of unmapped lpn succeeded")
		}
		if err := f.Read(r, BlockRegion, 9999); err == nil {
			t.Error("read of out-of-range lpn succeeded")
		}
	})
	c.Wait()
}

func TestRegionsAreIsolated(t *testing.T) {
	c := vclock.New()
	f := New(testArray(), testCfg())
	c.Go("io", func(r *vclock.Runner) {
		f.Write(r, BlockRegion, 3)
		// Same LPN number in the KV region must be independent.
		if err := f.Read(r, KVRegion, 3); err == nil {
			t.Error("KV region lpn 3 mapped by a block-region write (regions overlap!)")
		}
		f.Write(r, KVRegion, 3)
		if err := f.Read(r, KVRegion, 3); err != nil {
			t.Errorf("KV region read after write: %v", err)
		}
		if err := f.Read(r, BlockRegion, 3); err != nil {
			t.Errorf("block region mapping disturbed by KV write: %v", err)
		}
	})
	c.Wait()
}

func TestOverwriteInvalidatesOldPage(t *testing.T) {
	c := vclock.New()
	f := New(testArray(), testCfg())
	c.Go("io", func(r *vclock.Runner) {
		for i := 0; i < 10; i++ {
			f.Write(r, BlockRegion, 0) // overwrite the same lpn
		}
		if err := f.Read(r, BlockRegion, 0); err != nil {
			t.Errorf("read after overwrites: %v", err)
		}
	})
	c.Wait()
	if got := f.Stats().HostPagesWritten; got != 10 {
		t.Fatalf("pages written = %d, want 10", got)
	}
}

func TestWriteManyParallelFasterThanSerial(t *testing.T) {
	mk := func(fanout int) vclock.Time {
		c := vclock.New()
		cfg := testCfg()
		cfg.MaxFanout = fanout
		f := New(testArray(), cfg)
		c.Go("io", func(r *vclock.Runner) {
			lpns := make([]int, 16)
			for i := range lpns {
				lpns[i] = i
			}
			f.WriteMany(r, BlockRegion, lpns)
		})
		c.Wait()
		return c.Now()
	}
	serial := mk(1)
	parallel := mk(8)
	if parallel >= serial {
		t.Fatalf("fanout did not help: parallel=%v serial=%v", parallel, serial)
	}
	// 16 pages, 4 dies, 100us program: ideal parallel = 4 rounds = 400us.
	if parallel > vclock.Time(800*time.Microsecond) {
		t.Fatalf("parallel WriteMany = %v, want <= 800us", parallel)
	}
}

func TestTrimFreesMapping(t *testing.T) {
	c := vclock.New()
	f := New(testArray(), testCfg())
	c.Go("io", func(r *vclock.Runner) {
		f.Write(r, KVRegion, 1)
		f.Trim(KVRegion, 1)
		if err := f.Read(r, KVRegion, 1); err == nil {
			t.Error("read after trim succeeded")
		}
		f.Trim(KVRegion, 1)    // double trim is a no-op
		f.Trim(KVRegion, 9999) // out of range is a no-op
	})
	c.Wait()
}

func TestTrimRegionWipesOnlyThatRegion(t *testing.T) {
	c := vclock.New()
	f := New(testArray(), testCfg())
	c.Go("io", func(r *vclock.Runner) {
		for i := 0; i < 10; i++ {
			f.Write(r, KVRegion, i)
			f.Write(r, BlockRegion, i)
		}
		f.TrimRegion(KVRegion)
		for i := 0; i < 10; i++ {
			if err := f.Read(r, KVRegion, i); err == nil {
				t.Errorf("KV lpn %d still mapped after TrimRegion", i)
			}
			if err := f.Read(r, BlockRegion, i); err != nil {
				t.Errorf("block lpn %d lost by KV TrimRegion: %v", i, err)
			}
		}
	})
	c.Wait()
}

func TestGCReclaimsInvalidatedBlocks(t *testing.T) {
	c := vclock.New()
	f := New(testArray(), testCfg())
	c.Go("io", func(r *vclock.Runner) {
		// Hammer a small working set so most written pages are stale;
		// this must force GC rather than running out of space.
		for round := 0; round < 40; round++ {
			lpns := make([]int, 16)
			for i := range lpns {
				lpns[i] = i
			}
			f.WriteMany(r, BlockRegion, lpns)
		}
	})
	c.Wait()
	s := f.Stats()
	if s.GCRuns == 0 {
		t.Fatal("GC never ran despite heavy overwrite traffic")
	}
	if s.HostPagesWritten != 640 {
		t.Fatalf("host pages = %d, want 640", s.HostPagesWritten)
	}
	if wa := s.WriteAmplification(); wa < 1.0 {
		t.Fatalf("write amplification = %.2f, want >= 1", wa)
	}
	if f.FreeBlocks() < testCfg().GCFreeBlockLow {
		t.Fatalf("free pool = %d below low watermark after GC", f.FreeBlocks())
	}
}

// TestGCPreservesLiveData: a write stream where one page in five is a
// live key written once and the rest overwrite one churn key leaves live
// pages in every block, so greedy GC cannot find an all-stale victim and
// must migrate survivors. Each migration reads the survivor from the
// victim block — a fault rule scoped to the victim's pages observes those
// reads — and every live key reads back afterwards.
func TestGCPreservesLiveData(t *testing.T) {
	arr, cfg := testArray(), testCfg()
	f := New(arr, cfg)
	geo := arr.Geometry()
	const live, churn = 120, 127
	n := 0
	write := func(r *vclock.Runner) bool {
		lpn := churn
		if n%5 == 0 {
			lpn = n / 5 % live
		}
		n++
		if err := f.Write(r, BlockRegion, lpn); err != nil {
			t.Errorf("write %d: %v", n, err)
			return false
		}
		return true
	}
	// fits reports the block greedy GC would collect now, its survivor
	// count, and whether the frontier blocks their new pages go to have
	// room for them — so collecting it takes no free block. Called with
	// f.mu held.
	fits := func() (victim, survivors int, ok bool) {
		victim = f.pickVictim()
		if victim < 0 {
			return victim, 0, false
		}
		survivors = f.blocks[victim].validCount
		need := make([]int, geo.Dies())
		for i := 0; i < survivors; i++ {
			need[(f.nextDie+i)%geo.Dies()]++
		}
		for die, k := range need {
			bid := f.regions[BlockRegion].frontier[die]
			if k > 0 && (bid < 0 || geo.PagesPerBlock-f.blocks[bid].nextPage < k) {
				return victim, survivors, false
			}
		}
		return victim, survivors, true
	}
	c := vclock.New()
	c.Go("io", func(r *vclock.Runner) {
		// Fill to within a few blocks of the GC trigger, stopping where
		// collecting one victim needs no fresh block.
		var victim, survivors int
		for {
			if !write(r) {
				return
			}
			near := f.FreeBlocks() <= cfg.GCFreeBlockHigh
			var ok bool
			if near {
				victim, survivors, ok = fits()
			}
			if ok {
				break
			}
			if f.FreeBlocks() <= cfg.GCFreeBlockLow+1 {
				t.Errorf("the fill reached the GC trigger after %d writes without a victim that fits", n)
				return
			}
		}
		if f.Stats().GCRuns != 0 || n >= 5*live {
			t.Errorf("after %d writes: %d GC runs; the fill no longer stops short of GC with every live key written once", n, f.Stats().GCRuns)
			return
		}
		for bid, b := range f.blocks {
			if b.allocated && b.nextPage == geo.PagesPerBlock && b.validCount == 0 {
				t.Errorf("block %d holds no live page: GC could skip migration", bid)
			}
		}
		// One victim reaches the high watermark.
		f.cfg.GCFreeBlockHigh = f.FreeBlocks() + 1

		plan := faults.NewPlan(1)
		start := int64(victim * geo.PagesPerBlock)
		plan.AddRule(faults.Rule{Op: "NAND_READ", Class: faults.LatencySpike, Every: 1,
			Scope: faults.Extent{Start: start, End: start + int64(geo.PagesPerBlock)}})
		arr.SetFaultPlan(plan)
		f.collect(r)
		arr.SetFaultPlan(nil)
		f.cfg.GCFreeBlockHigh = cfg.GCFreeBlockHigh

		s := f.Stats()
		if s.GCRuns != 1 || s.GCPagesMigrated != int64(survivors) || survivors == 0 {
			t.Errorf("GC ran %d times and migrated %d pages, want 1 run migrating the victim's %d survivors", s.GCRuns, s.GCPagesMigrated, survivors)
			return
		}
		if got := plan.TotalInjected(); got != int64(survivors) {
			t.Errorf("%d NAND reads landed on victim block %d, want one per survivor (%d)", got, victim, survivors)
		}
		// Keep writing: GC now runs from the write path, migrating as it goes.
		for i := 0; i < 400; i++ {
			if !write(r) {
				return
			}
		}
		for lpn := 0; lpn < live; lpn++ {
			if err := f.Read(r, BlockRegion, lpn); err != nil {
				t.Errorf("live lpn %d lost after GC: %v", lpn, err)
			}
		}
	})
	c.Wait()
	if s := f.Stats(); !t.Failed() && (s.GCRuns < 2 || s.GCPagesMigrated <= 1) {
		t.Fatalf("%d GC runs migrated %d pages: the write path never migrated", s.GCRuns, s.GCPagesMigrated)
	}
}

func TestOversizedRegionsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized region config did not panic")
		}
	}()
	New(testArray(), Config{BlockRegionPages: 100000, KVRegionPages: 0})
}

func TestWriteAmplificationIdle(t *testing.T) {
	var s Stats
	if s.WriteAmplification() != 1 {
		t.Fatal("idle WAF should be 1")
	}
}

// TestStartWriteOverlapsTheCaller: StartWrite returns at once with the
// programs in flight, the caller's own work overlaps them, and Finish
// returns when they are done — at the instant WriteMany of the same pages
// would have — with every page mapped and the first fault reported.
func TestStartWriteOverlapsTheCaller(t *testing.T) {
	lpns := []int{0, 1, 2, 3, 4, 5, 6, 7} // two programs per die: 200µs
	writeMany := func() vclock.Time {
		c := vclock.New()
		f := New(testArray(), testCfg())
		c.Go("io", func(r *vclock.Runner) { f.WriteMany(r, KVRegion, lpns) })
		c.Wait()
		return c.Now()
	}()
	c := vclock.New()
	arr := testArray()
	plan := faults.NewPlan(1)
	plan.AddRule(faults.Rule{Op: "NAND_PROG", Class: faults.MediaError, Every: 3, Count: 1})
	arr.SetFaultPlan(plan)
	f := New(arr, testCfg())
	c.Go("io", func(r *vclock.Runner) {
		p := f.StartWrite(r, KVRegion, lpns)
		if r.Now() != 0 {
			t.Errorf("StartWrite returned at %v, want at once", r.Now())
		}
		r.Sleep(50 * time.Microsecond) // the caller's own work
		if err := f.Finish(r, p); err == nil {
			t.Error("Finish reported no fault; the plan failed the third program")
		}
		if r.Now() != writeMany {
			t.Errorf("Finish returned at %v, WriteMany of the same pages at %v", r.Now(), writeMany)
		}
		for _, lpn := range lpns {
			if err := f.Read(r, KVRegion, lpn); err != nil {
				t.Errorf("page %d after Finish: %v", lpn, err)
			}
		}
		if err := f.Finish(r, Programs{}); err != nil {
			t.Errorf("Finish of the empty batch: %v", err)
		}
	})
	c.Wait()
}

// TestConcurrentCollectsReclaimEachVictimOnce: writers whose allocations
// leave the free pool low each run GC, and their collections overlap
// while migrations park. A victim in migration is no candidate for
// another collection, so no block is reclaimed twice: the free list never
// holds a block twice, and no block is both free and allocated.
func TestConcurrentCollectsReclaimEachVictimOnce(t *testing.T) {
	c := vclock.New()
	f := New(testArray(), testCfg())
	for w := 0; w < 4; w++ {
		c.Go("io", func(r *vclock.Runner) {
			lpns := make([]int, 8)
			for round := 0; round < 40; round++ {
				for i := range lpns {
					lpns[i] = (8*w + 3*round + i) % 64
				}
				if err := f.WriteMany(r, BlockRegion, lpns); err != nil {
					t.Error(err)
				}
			}
		})
	}
	c.Wait()
	if f.Stats().GCRuns == 0 {
		t.Fatal("GC never ran")
	}
	free := map[int]bool{}
	for _, die := range f.free {
		for die.Len() > 0 {
			bid := die.Pop()
			if free[bid] {
				t.Fatalf("block %d is on the free list twice", bid)
			}
			if free[bid] = true; f.blocks[bid].allocated {
				t.Fatalf("block %d is free and allocated", bid)
			}
		}
	}
}
