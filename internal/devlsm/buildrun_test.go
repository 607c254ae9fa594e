package devlsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"kvaccel/internal/encoding"
	"kvaccel/internal/iterkit"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// raceEnabled is set by race_test.go when the race detector is on: its
// instrumentation allocates, so allocation counts mean nothing.
var raceEnabled bool

// referenceBuildRun is the page-buffer builder buildRun replaced, kept as
// the reference its output must equal: records are encoded into a page
// buffer, each full page is copied into the run's data, and every page
// gets its own first-key copy and LPN slice.
func referenceBuildRun(d *DevLSM, r *vclock.Runner, it iterkit.Iterator, sizeHint int) (*run, []int) {
	pageSize := d.f.PageSize()
	ru := &run{}
	var all []int
	var page []byte
	var pageFirst []byte

	flushPage := func() {
		if len(page) == 0 {
			return
		}
		n := (len(page) + pageSize - 1) / pageSize
		lpns := make([]int, n)
		copy(lpns, d.freeLPNs[len(d.freeLPNs)-n:])
		d.freeLPNs = d.freeLPNs[:len(d.freeLPNs)-n]
		ru.pages = append(ru.pages, pageMeta{
			firstKey: append([]byte(nil), pageFirst...),
			off:      len(ru.data),
			length:   len(page),
			lpns:     lpns,
		})
		if ru.data == nil {
			ru.data = make([]byte, 0, sizeHint)
		}
		ru.data = append(ru.data, page...)
		all = append(all, lpns...)
		page = page[:0]
	}

	cpuPending := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		e := it.Entry()
		recLen := encoding.RecordSize(len(e.Key), len(e.Value)) + 9
		if len(page) > 0 && len(page)+recLen > pageSize {
			flushPage()
		}
		if len(page) == 0 {
			pageFirst = append(pageFirst[:0], e.Key...)
		}
		page = appendRecord(page, e)
		if ru.count == 0 {
			ru.smallest = append([]byte(nil), e.Key...)
		}
		ru.largest = append(ru.largest[:0], e.Key...)
		ru.count++
		cpuPending += recLen
		if cpuPending >= 64<<10 {
			d.chargeScanCPU(r, cpuPending)
			cpuPending = 0
		}
	}
	d.chargeScanCPU(r, cpuPending)
	flushPage()
	if ru.count == 0 {
		return nil, nil
	}
	return ru, all
}

// randomTable fills a memtable with records of seeded sizes: keys of
// 1–40 bytes, values from empty to beyond a flash page, some tombstones
// and some overwritten keys.
func randomTable(rng *rand.Rand) *memtable.Table {
	mem := memtable.New(64 << 20)
	n := 1 + rng.Intn(600)
	for seq := uint64(1); seq <= uint64(n); seq++ {
		key := []byte(fmt.Sprintf("k%0*d", rng.Intn(40), rng.Intn(n)))
		var value []byte
		switch rng.Intn(10) {
		case 0:
			value = make([]byte, 4096+rng.Intn(9000)) // spans pages
		case 1, 2:
			value = make([]byte, 1000+rng.Intn(3000))
		default:
			value = make([]byte, rng.Intn(300))
		}
		rng.Read(value)
		kind := memtable.KindPut
		if rng.Intn(12) == 0 {
			kind, value = memtable.KindDelete, nil
		}
		mem.Add(seq, kind, key, value)
	}
	return mem
}

// TestBuildRunMatchesPageBufferBuilder: over 20 seeds of record sizes,
// building a run in place gives byte-identical data and the same pages —
// offsets, lengths, first keys and LPNs, in the same order — as the page
// buffer builder, from the same free list. Each first key is clipped, so
// appending to it cannot write into the run.
func TestBuildRunMatchesPageBufferBuilder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		mem := randomTable(rand.New(rand.NewSource(seed)))
		// Half the seeds pass no size hint, so the data buffer and the LPN
		// list are regrown while the pages are cut.
		hint := int(mem.ApproximateSize())
		if seed%2 == 0 {
			hint = 0
		}
		got, want := newDev(DefaultConfig()), newDev(DefaultConfig())
		runSim(t, func(r *vclock.Runner) {
			ru, lpns := got.buildRun(r, mem.NewIterator(), hint)
			ref, refLPNs := referenceBuildRun(want, r, mem.NewIterator(), hint)
			if !bytes.Equal(ru.data, ref.data) {
				t.Fatalf("seed %d: run data differs (%d vs %d bytes)", seed, len(ru.data), len(ref.data))
			}
			if fmt.Sprint(lpns) != fmt.Sprint(refLPNs) {
				t.Fatalf("seed %d: run LPNs %v, want %v", seed, lpns, refLPNs)
			}
			if ru.count != ref.count || !bytes.Equal(ru.smallest, ref.smallest) || !bytes.Equal(ru.largest, ref.largest) {
				t.Fatalf("seed %d: count/smallest/largest %d %q %q, want %d %q %q", seed,
					ru.count, ru.smallest, ru.largest, ref.count, ref.smallest, ref.largest)
			}
			if len(ru.pages) != len(ref.pages) {
				t.Fatalf("seed %d: %d pages, want %d", seed, len(ru.pages), len(ref.pages))
			}
			for i, pm := range ru.pages {
				rp := ref.pages[i]
				if pm.off != rp.off || pm.length != rp.length || !bytes.Equal(pm.firstKey, rp.firstKey) ||
					fmt.Sprint(pm.lpns) != fmt.Sprint(rp.lpns) {
					t.Fatalf("seed %d page %d: off %d len %d first %q lpns %v, want %d %d %q %v", seed, i,
						pm.off, pm.length, pm.firstKey, pm.lpns, rp.off, rp.length, rp.firstKey, rp.lpns)
				}
			}
			if fmt.Sprint(got.freeLPNs) != fmt.Sprint(want.freeLPNs) {
				t.Fatalf("seed %d: free lists differ after the build", seed)
			}
			data := bytes.Clone(ru.data)
			for _, pm := range ru.pages {
				_ = append(pm.firstKey, "scribble"...)
				_ = append(pm.lpns, -1)
			}
			_ = append(ru.smallest, "scribble"...)
			_ = append(ru.largest, "scribble"...)
			if !bytes.Equal(ru.data, data) || fmt.Sprint(lpns) != fmt.Sprint(refLPNs) {
				t.Fatalf("seed %d: appending to a page's first key or LPNs wrote into the run", seed)
			}
		})
	}
}

// TestAllocsFlushPerPage: a flush encodes records straight into the run's
// one data buffer and takes its LPNs into one run-wide list, so the host
// allocates a handful of buffers per run rather than two per page.
func TestAllocsFlushPerPage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	d := newDev(DefaultConfig())
	value := bytes.Repeat([]byte("v"), 200)
	var mallocs uint64
	runSim(t, func(r *vclock.Runner) {
		// The second flush is measured: the first spawns the FTL's
		// program workers, which every later flush reuses.
		for round := 0; round < 2; round++ {
			for i := 0; i < 7000; i++ { // ~1.6 MB: under the memtable budget
				if err := d.Put(r, memtable.KindPut, key(i), value); err != nil {
					t.Error(err)
					return
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := d.Flush(r); err != nil {
				t.Error(err)
			}
			runtime.ReadMemStats(&after)
			mallocs = after.Mallocs - before.Mallocs
		}
	})
	if len(d.runs) != 2 {
		t.Fatalf("%d runs after two flushes", len(d.runs))
	}
	pages := len(d.runs[1].pages)
	if per := float64(mallocs) / float64(pages); per > 0.05 {
		t.Errorf("%d allocations for a %d-page flush: %.3f per page, want at most 0.05", mallocs, pages, per)
	}
}
