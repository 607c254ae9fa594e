package ftl

import (
	"testing"
	"time"

	"kvaccel/internal/nand"
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
// different device.
func TestFanoutBindsPagesToWorkersByStride(t *testing.T) {
	arr, cfg := wideArray()
	cfg.MaxFanout = 8
	f := New(arr, cfg)
	const pages = 50
	byRunner := map[uint64][]int32{}
	record := func(job *fanout, w *vclock.Runner, i int) error {
		ppn := job.ppns[i]
		byRunner[w.ID()] = append(byRunner[w.ID()], ppn)
		// Uneven page times, so a free worker would have pages to steal.
		w.Sleep(time.Duration(1+ppn%7) * time.Microsecond)
		return nil
	}
	c := vclock.New()
	var parent uint64
	c.Go("io", func(r *vclock.Runner) {
		parent = r.ID()
		for round := 0; round < 2; round++ { // the second round runs on reused runners and a reused job
			job := f.takeFanout()
			for i := 0; i < pages; i++ {
				job.ppns = append(job.ppns, int32(1000*round+i))
			}
			if err := f.run(r, job, record); err != nil {
				t.Error(err)
			}
		}
	})
	c.Wait()
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
}

// TestAllocsWriteMany: a 64-page write in steady state — page list,
// worker list and the 64 runners all reused — allocates next to nothing.
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
		// Steady state is reached when the runners are spawned, the waiter
		// lists and the timer heap have their size, and overwriting the same
		// pages has filled the device far enough for GC to be erasing the
		// fully invalid blocks behind the writes.
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
