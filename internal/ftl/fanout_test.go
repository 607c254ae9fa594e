package ftl

import (
	"testing"
	"time"

	"kvaccel/internal/faults"
	"kvaccel/internal/nand"
	"kvaccel/internal/trace"
	"kvaccel/internal/vclock"
)

// raceEnabled is set by race_test.go when the race detector is on: its
// instrumentation allocates, so allocation counts mean nothing.
var raceEnabled bool

// wideArray is the benchmark device's shape: 4 channels of 8 ways, so a
// 64-page request runs on MaxFanout's default of 64 workers, two per die.
func wideArray() (*nand.Array, Config) {
	geo := nand.Geometry{Channels: 4, Ways: 8, BlocksPerDie: 8, PagesPerBlock: 32, PageSize: 4096}
	timing := nand.Timing{ReadPage: 10 * time.Microsecond, ProgramPage: 100 * time.Microsecond, EraseBlock: time.Millisecond, ChannelMBps: 400}
	return nand.New(geo, timing), Config{BlockRegionPages: 4096, KVRegionPages: 1024, GCFreeBlockLow: 8, GCFreeBlockHigh: 16}
}

// TestFanoutBindsPagesToWorkersByStride: which pages meet on a die, and
// in what order, is part of the device model. Worker w of n takes pages w,
// w+n, w+2n, ... in that order, and the workers are registered in stride
// order; a shared queue ("whoever is free takes the next page") would be a
// different device. Who programmed which page is read off the array's
// trace: each program span ends on its worker's lane with the page's
// number.
func TestFanoutBindsPagesToWorkersByStride(t *testing.T) {
	arr, cfg := wideArray()
	cfg.MaxFanout = 8
	f := New(arr, cfg)
	const pages = 50
	// Uneven page times, so a free worker would have pages to steal.
	plan := faults.NewPlan(1)
	for round := int64(0); round < 2; round++ {
		for ppn := 1000 * round; ppn < 1000*round+pages; ppn++ {
			plan.AddRule(faults.Rule{Op: "NAND_PROG", Class: faults.LatencySpike, Scope: faults.Extent{Start: ppn, End: ppn + 1},
				Every: 1, Delay: time.Duration(1+ppn%7) * time.Microsecond})
		}
	}
	arr.SetFaultPlan(plan)
	tr := trace.New(1 << 14)
	arr.SetTracer(tr)
	c := vclock.New()
	var parent uint64
	c.Go("io", func(r *vclock.Runner) {
		parent = r.ID()
		for round := 0; round < 2; round++ { // the second round runs on reused workers and a reused job
			job := f.takeFanout()
			for i := 0; i < pages; i++ {
				job.ppns = append(job.ppns, int32(1000*round+i))
			}
			if err := f.run(r, job); err != nil {
				t.Error(err)
			}
		}
	})
	c.Wait()
	byRunner := map[uint64][]int32{}
	for _, e := range tr.Events() {
		if e.Kind == trace.KindEnd && e.Phase == trace.PhaseNANDProg {
			byRunner[e.Lane] = append(byRunner[e.Lane], int32(e.Arg))
		}
	}
	if len(byRunner) != 2*cfg.MaxFanout {
		t.Fatalf("%d runners did the work, want %d per round", len(byRunner), cfg.MaxFanout)
	}
	for id, got := range byRunner {
		// Runner ids follow registration order: the parent, then round
		// one's workers in stride order, then round two's.
		round, stride := int(id-parent-1)/cfg.MaxFanout, int(id-parent-1)%cfg.MaxFanout
		var want []int32
		for i := stride; i < pages; i += cfg.MaxFanout {
			want = append(want, int32(1000*round+i))
		}
		if len(got) != len(want) {
			t.Fatalf("runner %d (round %d, worker %d) did pages %v, want %v", id, round, stride, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("runner %d (round %d, worker %d) did pages %v, want %v", id, round, stride, got, want)
			}
		}
	}
	if st := c.Stats(); st.Reuses < uint64(cfg.MaxFanout) {
		t.Errorf("%d runners reused, want round two's %d workers among them", st.Reuses, cfg.MaxFanout)
	}
}

// TestWriteManyHandsOffNothing: a 64-page WriteMany from the only runner
// runs its 64 fan-out workers as kernel tasks on that runner's goroutine,
// so the baton never goes to another goroutine. Each task parks where its
// goroutine did: 277 parks, what the fan-out over goroutines counted.
func TestWriteManyHandsOffNothing(t *testing.T) {
	arr, cfg := wideArray()
	f := New(arr, cfg)
	lpns := make([]int, 64)
	for i := range lpns {
		lpns[i] = i
	}
	c := vclock.New()
	var before, after vclock.Stats
	c.Go("io", func(r *vclock.Runner) {
		before = c.Stats()
		if err := f.WriteMany(r, BlockRegion, lpns); err != nil {
			t.Error(err)
		}
		after = c.Stats()
	})
	c.Wait()
	if n := after.Handoffs - before.Handoffs; n != 0 {
		t.Errorf("%d hand-offs in a 64-page WriteMany, want 0", n)
	}
	if n := after.Parks - before.Parks; n != 277 {
		t.Errorf("%d parks in a 64-page WriteMany, want 277", n)
	}
}

// TestFanoutAfterMigration: the fan-outs GC migrates with are recycled
// for the writes and reads that follow, and each does what it is for: the
// array sees one program per host and per migrated page, and one read per
// migrated and per mapped page read.
func TestFanoutAfterMigration(t *testing.T) {
	geo := nand.Geometry{Channels: 2, Ways: 2, BlocksPerDie: 32, PagesPerBlock: 32, PageSize: 4096}
	timing := nand.Timing{ReadPage: 40 * time.Microsecond, ProgramPage: 300 * time.Microsecond, ChannelMBps: 200}
	arr := nand.New(geo, timing)
	f := New(arr, Config{BlockRegionPages: 2048, KVRegionPages: 512, GCFreeBlockLow: 6, GCFreeBlockHigh: 12})
	const space = 1536
	written := map[int]bool{}
	c := vclock.New()
	c.Go("churn", func(r *vclock.Runner) {
		// Random overwrites across three quarters of the logical space, so
		// victims hold live pages to migrate.
		rng := uint64(12345)
		lpns := make([]int, 64)
		for round := 0; round < 200; round++ {
			for j := range lpns {
				rng = rng*6364136223846793005 + 1442695040888963407
				lpns[j] = int(rng>>33) % space
				written[lpns[j]] = true
			}
			if err := f.WriteMany(r, BlockRegion, lpns); err != nil {
				t.Error(err)
			}
		}
		all := make([]int, space)
		for i := range all {
			all[i] = i
		}
		if err := f.ReadMany(r, BlockRegion, all); err != nil {
			t.Error(err)
		}
	})
	c.Wait()
	s, a := f.Stats(), arr.Stats()
	if s.GCPagesMigrated == 0 {
		t.Fatal("GC migrated nothing: the test does not reach a recycled migration fan-out")
	}
	if want := s.HostPagesWritten + s.GCPagesMigrated; a.PagesProgrammed != want {
		t.Errorf("%d pages programmed, want %d host + %d migrated", a.PagesProgrammed, s.HostPagesWritten, s.GCPagesMigrated)
	}
	if want := s.GCPagesMigrated + int64(len(written)); a.PagesRead != want {
		t.Errorf("%d pages read, want %d migrated + %d mapped", a.PagesRead, s.GCPagesMigrated, len(written))
	}
}

// TestAllocsWriteMany: a 64-page write in steady state — page list,
// worker list and the 64 workers' tasks all reused — allocates next to
// nothing.
func TestAllocsWriteMany(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	arr, cfg := wideArray()
	f := New(arr, cfg)
	lpns := make([]int, 64)
	for i := range lpns {
		lpns[i] = i
	}
	c := vclock.New()
	var allocs float64
	c.Go("io", func(r *vclock.Runner) {
		write := func() {
			if err := f.WriteMany(r, BlockRegion, lpns); err != nil {
				t.Error(err)
			}
		}
		// Steady state is reached when the tasks have their Runners, the
		// waiter lists and the timer heap have their size, and overwriting
		// the same pages has filled the device far enough for GC to be
		// erasing the fully invalid blocks behind the writes.
		for i := 0; i < 1000 && f.Stats().BlocksErased == 0; i++ {
			write()
		}
		allocs = testing.AllocsPerRun(100, write)
	})
	c.Wait()
	if allocs > 4 {
		t.Errorf("%v allocations per 64-page WriteMany in steady state, want at most 4", allocs)
	}
	if f.Stats().BlocksErased < 100 {
		t.Errorf("%d blocks erased: GC was not part of what was measured", f.Stats().BlocksErased)
	}
}

// BenchmarkWriteMany64 is the flush and compaction write shape: one
// 64-page request fanned out over 32 dies, two workers per die.
func BenchmarkWriteMany64(b *testing.B) {
	b.ReportAllocs()
	arr, cfg := wideArray()
	f := New(arr, cfg)
	lpns := make([]int, 64)
	for i := range lpns {
		lpns[i] = i
	}
	c := vclock.New()
	c.Go("io", func(r *vclock.Runner) {
		for i := 0; i < 8; i++ {
			f.WriteMany(r, BlockRegion, lpns)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.WriteMany(r, BlockRegion, lpns); err != nil {
				b.Error(err)
			}
		}
	})
	c.Wait()
	b.ReportMetric(float64(b.N*len(lpns))/b.Elapsed().Seconds(), "pages/s")
}

// BenchmarkGCWriteAmplification stresses the garbage collector with a
// deliberately small device so write amplification becomes visible — the
// device-level cost KVACCEL's KV region shares with the block region.
func BenchmarkGCWriteAmplification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		geo := nand.Geometry{Channels: 2, Ways: 2, BlocksPerDie: 32, PagesPerBlock: 32, PageSize: 4096}
		timing := nand.Timing{ReadPage: 40 * time.Microsecond, ProgramPage: 300 * time.Microsecond, ChannelMBps: 200}
		f := New(nand.New(geo, timing), Config{BlockRegionPages: 2048, KVRegionPages: 512, GCFreeBlockLow: 6, GCFreeBlockHigh: 12})
		c := vclock.New()
		c.Go("churn", func(r *vclock.Runner) {
			// Random overwrites across ~75% of the logical space: victim
			// blocks hold a mix of live and stale pages, so GC must
			// migrate — the write-amplification regime.
			rng := uint64(12345)
			lpns := make([]int, 64)
			for round := 0; round < 400; round++ {
				for j := range lpns {
					rng = rng*6364136223846793005 + 1442695040888963407
					lpns[j] = int(rng>>33) % 1536
				}
				f.WriteMany(r, BlockRegion, lpns)
			}
		})
		c.Wait()
		s := f.Stats()
		b.ReportMetric(s.WriteAmplification(), "device-WAF")
		b.ReportMetric(float64(s.GCRuns), "gc-runs")
	}
}

// TestKVRegionProgramsGoFirst: on a one-die array, a key-value region
// batch that queues between two block region batches takes the die as
// soon as the page in progress is done, ahead of both. Plain waiters
// would leave it in the middle: a freed die goes to the oldest or the
// newest waiter (vclock.Semaphore), both of them block pages.
func TestKVRegionProgramsGoFirst(t *testing.T) {
	geo := nand.Geometry{Channels: 1, Ways: 1, BlocksPerDie: 16, PagesPerBlock: 32, PageSize: 4096}
	timing := nand.Timing{ProgramPage: 100 * time.Microsecond}
	f := New(nand.New(geo, timing), Config{BlockRegionPages: 64, KVRegionPages: 64, GCFreeBlockLow: 2, GCFreeBlockHigh: 4, MaxFanout: 8})
	var kvDone vclock.Time
	c := vclock.New()
	block := func(at time.Duration, lpns ...int) {
		c.Go("block", func(r *vclock.Runner) {
			r.Sleep(at)
			if err := f.WriteMany(r, BlockRegion, lpns); err != nil {
				t.Error(err)
			}
		})
	}
	block(0, 0, 1, 2, 3, 4, 5, 6, 7) // holds the die from t=0, 7 pages queued
	c.Go("kv", func(r *vclock.Runner) {
		r.Sleep(50 * time.Microsecond)
		if err := f.Finish(r, f.StartWrite(r, KVRegion, []int{0, 1})); err != nil {
			t.Error(err)
		}
		kvDone = r.Now()
	})
	block(60*time.Microsecond, 8, 9, 10, 11)
	c.Wait()
	if want := vclock.Time(3 * timing.ProgramPage); kvDone != want {
		t.Errorf("key-value batch done at %v, want %v: one block page, then its own two", kvDone, want)
	}
	if want := vclock.Time(14 * timing.ProgramPage); c.Now() != want {
		t.Errorf("the die went idle at %v, want %v: every page programmed back to back", c.Now(), want)
	}
}

// TestKVRegionReadsWaitTheirTurn: only key-value region programs are in
// the first class. A key-value region read batch, such as a rollback's
// bulk scan, queues among block region pages as any block op does, so a
// long scan cannot hold a die away from block I/O. First-class reads
// would be done three page times after the die's first batch began.
func TestKVRegionReadsWaitTheirTurn(t *testing.T) {
	geo := nand.Geometry{Channels: 1, Ways: 1, BlocksPerDie: 16, PagesPerBlock: 32, PageSize: 4096}
	timing := nand.Timing{ReadPage: 100 * time.Microsecond, ProgramPage: 100 * time.Microsecond}
	f := New(nand.New(geo, timing), Config{BlockRegionPages: 64, KVRegionPages: 64, GCFreeBlockLow: 2, GCFreeBlockHigh: 4, MaxFanout: 8})
	const start = time.Millisecond // after the key-value pages are written
	var kvDone vclock.Time
	c := vclock.New()
	block := func(at time.Duration, lpns ...int) {
		c.Go("block", func(r *vclock.Runner) {
			r.Sleep(at)
			if err := f.WriteMany(r, BlockRegion, lpns); err != nil {
				t.Error(err)
			}
		})
	}
	c.Go("kv", func(r *vclock.Runner) {
		if err := f.WriteMany(r, KVRegion, []int{0, 1}); err != nil {
			t.Error(err)
		}
		r.Sleep(start + 50*time.Microsecond - time.Duration(r.Now()))
		if err := f.ReadMany(r, KVRegion, []int{0, 1}); err != nil {
			t.Error(err)
		}
		kvDone = r.Now()
	})
	block(start, 0, 1, 2, 3, 4, 5, 6, 7)
	block(start+60*time.Microsecond, 8, 9, 10, 11)
	c.Wait()
	if first := vclock.Time(start + 3*timing.ReadPage); kvDone <= first {
		t.Errorf("key-value reads done at %v, want later than %v: they went ahead of block pages queued before them", kvDone, first)
	}
	if want := vclock.Time(start + 14*timing.ProgramPage); c.Now() != want {
		t.Errorf("the die went idle at %v, want %v: every page served back to back", c.Now(), want)
	}
}
