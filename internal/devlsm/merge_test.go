package devlsm

import (
	"errors"
	"testing"
	"time"

	"kvaccel/internal/cpu"
	"kvaccel/internal/ftl"
	"kvaccel/internal/memtable"
	"kvaccel/internal/nand"
	"kvaccel/internal/offload"
	"kvaccel/internal/sstable"
	"kvaccel/internal/vclock"
)

// mergeFixture builds an FTL whose block region holds two overlapping
// input tables on its first pages, and an executor over it. It returns
// the merge request without outputs and the first page after the inputs.
func mergeFixture(t *testing.T, r *vclock.Runner) (*ftl.FTL, *MergeExecutor, *offload.MergeRequest, int) {
	geo := nand.Geometry{Channels: 2, Ways: 2, BlocksPerDie: 64, PagesPerBlock: 32, PageSize: 4096}
	timing := nand.Timing{ReadPage: 50 * time.Microsecond, ProgramPage: 400 * time.Microsecond, ChannelMBps: 200}
	f := ftl.New(nand.New(geo, timing), ftl.Config{BlockRegionPages: 1024, KVRegionPages: 1024, GCFreeBlockLow: 4, GCFreeBlockHigh: 8})
	x := NewMergeExecutor(f, cpu.NewPool(1, "arm"), time.Microsecond, nil)
	req := &offload.MergeRequest{
		Builder:     sstable.BuilderOptions{BlockSize: 4096, BloomBits: 10},
		MaxFileSize: 8 << 10,
		PageSize:    geo.PageSize,
	}
	next := 0
	// The older table holds every key, the newer one every other key.
	for i, seq := range []uint64{1, 1000} {
		b := sstable.NewBuilder(req.Builder)
		for k := 0; k < 400; k += 1 + i {
			if err := b.Add(key(k), seq+uint64(k), memtable.KindPut, value(k+i)); err != nil {
				t.Fatal(err)
			}
		}
		data, _, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		ext := make([]int, (len(data)+geo.PageSize-1)/geo.PageSize)
		for j := range ext {
			ext[j] = next + j
		}
		next += len(ext)
		if err := f.WriteMany(r, ftl.BlockRegion, ext); err != nil {
			t.Fatal(err)
		}
		req.Inputs = append(req.Inputs, offload.InputTable{Num: uint64(i + 1), Extents: ext, Data: data})
	}
	return f, x, req, next
}

// pageRange returns n consecutive page numbers from first.
func pageRange(first, n int) []int {
	pages := make([]int, n)
	for i := range pages {
		pages[i] = first + i
	}
	return pages
}

// TestMergeAbortsAtTheReservationBoundary: given one output page fewer
// than the merge emits, the executor returns offload.ErrAborted and
// programs no page outside the reservation.
func TestMergeAbortsAtTheReservationBoundary(t *testing.T) {
	need := 0
	runSim(t, func(r *vclock.Runner) {
		_, x, req, next := mergeFixture(t, r)
		req.OutputPages = pageRange(next, 200)
		res, err := x.Run(r, req)
		if err != nil {
			t.Fatal(err)
		}
		for _, out := range res.Outputs {
			need += len(out.Pages)
		}
		if len(res.Outputs) < 2 {
			t.Fatalf("the merge emitted %d tables, want several", len(res.Outputs))
		}
	})
	runSim(t, func(r *vclock.Runner) {
		f, x, req, next := mergeFixture(t, r)
		req.OutputPages = pageRange(next, need-1)
		before := f.Stats().HostPagesWritten
		res, err := x.Run(r, req)
		if !errors.Is(err, offload.ErrAborted) || res != nil {
			t.Fatalf("Run with %d of %d output pages returned %v, %v; want offload.ErrAborted", need-1, need, res, err)
		}
		if n := f.Stats().HostPagesWritten - before; n > int64(need-1) {
			t.Errorf("the aborted merge programmed %d pages into a %d-page reservation", n, need-1)
		}
		for lpn := next + need - 1; lpn < f.RegionPages(ftl.BlockRegion); lpn++ {
			if f.Read(r, ftl.BlockRegion, lpn) == nil {
				t.Fatalf("the aborted merge programmed page %d, outside its reservation", lpn)
			}
		}
	})
}
