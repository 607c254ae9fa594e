package devlsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"kvaccel/internal/encoding"
	"kvaccel/internal/fold"
	"kvaccel/internal/iterkit"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// raceEnabled is set by race_test.go when the race detector is on: its
// instrumentation allocates, so allocation counts mean nothing.
var raceEnabled bool

// referenceBuildRun is the page-buffer builder buildRun replaced, kept as
// the reference its output must equal: records are encoded into a page
// buffer, each full page is copied into the run's flat data, and every
// page gets its own first-key copy and LPN slice.
func referenceBuildRun(d *DevLSM, r *vclock.Runner, it iterkit.Iterator, sizeHint int) (*run, []int) {
	pageSize := d.f.PageSize()
	ru := &run{}
	var all []int
	var data, page []byte
	var pageFirst []byte

	flushPage := func() {
		if len(page) == 0 {
			return
		}
		n := (len(page) + pageSize - 1) / pageSize
		lpns := d.freeLPNs.Take(make([]int, 0, n), n)
		ru.pages = append(ru.pages, pageMeta{
			firstKey: append([]byte(nil), pageFirst...),
			off:      len(data),
			length:   len(page),
			lpns:     lpns,
		})
		if data == nil {
			data = make([]byte, 0, sizeHint)
		}
		data = append(data, page...)
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
	ru.data = fold.Literal(data)
	return ru, all
}

// flat is a run's data, its folds materialised.
func flat(ru *run) []byte { return ru.data.Read(0, ru.data.Len()) }

// runLPNs returns the LPNs of a run's pages, in page order.
func runLPNs(ru *run) []int {
	var lpns []int
	for _, pm := range ru.pages {
		lpns = append(lpns, pm.lpns...)
	}
	return lpns
}

// randomTable fills a memtable with records of seeded sizes: keys of
// 1–40 bytes, values from empty to beyond a flash page, half of the long
// ones repeating a run of 1 to 80 bytes (so most of those fold), some
// tombstones and some overwritten keys.
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
		if len(value) >= 1000 && rng.Intn(2) == 0 {
			for d := 1 + rng.Intn(80); d < len(value); d *= 2 {
				copy(value[d:], value[:d])
			}
		}
		kind := memtable.KindPut
		if rng.Intn(12) == 0 {
			kind, value = memtable.KindDelete, nil
		}
		mem.Add(seq, kind, key, value)
	}
	return mem
}

// TestBuildRunMatchesPageBufferBuilder: over 20 seeds of record sizes,
// building a run in place, folding its repeating values, gives data whose
// materialised bytes are the page buffer builder's and the same pages —
// offsets, lengths, first keys and LPNs, in the same order — from the same
// free list, and every page reads back as its flat bytes. Each first key
// is clipped, so appending to it cannot write into the run.
func TestBuildRunMatchesPageBufferBuilder(t *testing.T) {
	folded := 0
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
			ru, err := got.buildRun(r, mem.NewIterator(), hint)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			lpns := runLPNs(ru)
			ref, refLPNs := referenceBuildRun(want, r, mem.NewIterator(), hint)
			if !bytes.Equal(flat(ru), flat(ref)) {
				t.Fatalf("seed %d: run data differs (%d vs %d bytes)", seed, ru.data.Len(), ref.data.Len())
			}
			if ru.data.Folded() {
				folded++
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
					fmt.Sprint(pm.lpns) != fmt.Sprint(rp.lpns) || !bytes.Equal(ru.data.Read(pm.off, pm.length), flat(ref)[rp.off:rp.off+rp.length]) {
					t.Fatalf("seed %d page %d: off %d len %d first %q lpns %v, want %d %d %q %v", seed, i,
						pm.off, pm.length, pm.firstKey, pm.lpns, rp.off, rp.length, rp.firstKey, rp.lpns)
				}
			}
			if fmt.Sprint(got.freeLPNs) != fmt.Sprint(want.freeLPNs) {
				t.Fatalf("seed %d: free lists differ after the build", seed)
			}
			data := bytes.Clone(flat(ru))
			for _, pm := range ru.pages {
				_ = append(pm.firstKey, "scribble"...)
				_ = append(pm.lpns, -1)
			}
			_ = append(ru.smallest, "scribble"...)
			_ = append(ru.largest, "scribble"...)
			if !bytes.Equal(flat(ru), data) || fmt.Sprint(runLPNs(ru)) != fmt.Sprint(refLPNs) {
				t.Fatalf("seed %d: appending to a page's first key or LPNs wrote into the run", seed)
			}
		})
	}
	if folded < 10 {
		t.Errorf("%d of 20 runs folded a value: the input tests little", folded)
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

// TestAllocsBulkScanPerChunk: the rollback's scan hands out views of the
// records where they lie, so the host allocates a handful of times per
// 512 KiB chunk, not twice per pair, and fewer bytes than the pairs hold:
// a chunk's entry slice, not a copy of its keys and values. The pairs sit
// in three runs and the memtable, and every one comes back with its
// bytes.
func TestAllocsBulkScanPerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const pairs, chunkSize = 28000, 512 << 10
	d := newDev(DefaultConfig())
	value := bytes.Repeat([]byte("v"), 200)
	keys := make([][]byte, pairs)
	for i := range keys {
		keys[i] = key(i)
	}
	var mallocs, allocated uint64
	var chunks, got int
	runSim(t, func(r *vclock.Runner) {
		for i, k := range keys {
			if err := d.Put(r, memtable.KindPut, k, value); err != nil {
				t.Error(err)
				return
			}
			if i%7000 == 6999 && i < pairs-1 {
				if err := d.Flush(r); err != nil {
					t.Error(err)
					return
				}
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d.BulkScan(r, chunkSize, func(c ScanChunk) {
			chunks++
			for _, e := range c.Entries() {
				if got >= pairs || !bytes.Equal(e.Key, keys[got]) || !bytes.Equal(e.Value, value) {
					t.Errorf("pair %d came back as %q = %d bytes", got, e.Key, len(e.Value))
				}
				got++
			}
		})
		runtime.ReadMemStats(&after)
		mallocs, allocated = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	})
	if got != pairs {
		t.Fatalf("the scan returned %d pairs, want %d", got, pairs)
	}
	pairBytes := uint64(pairs * (len(keys[0]) + len(value)))
	t.Logf("%d bytes allocated to scan %d bytes of keys and values", allocated, pairBytes)
	if allocated > pairBytes/2 {
		t.Errorf("%d bytes allocated to scan %d bytes of keys and values, want at most half", allocated, pairBytes)
	}
	per := float64(mallocs) / float64(chunks)
	t.Logf("%d allocations for %d pairs in %d chunks: %.1f per chunk", mallocs, pairs, chunks, per)
	if per > 5 {
		t.Errorf("%.1f allocations per %d KiB chunk, want at most 5", per, chunkSize>>10)
	}
}

// TestBulkScanOfAFewPairsAllocatesAFewBytes: a chunk's buffer is opened
// at no more than the bytes the scan has left, so a scan over a few pairs
// allocates about what it returns, not a whole chunk.
func TestBulkScanOfAFewPairsAllocatesAFewBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const pairs, chunkSize = 10, 512 << 10
	d := newDev(DefaultConfig())
	value := bytes.Repeat([]byte("v"), 200)
	var allocated uint64
	got := 0
	runSim(t, func(r *vclock.Runner) {
		for i := 0; i < pairs; i++ {
			if err := d.Put(r, memtable.KindPut, key(i), value); err != nil {
				t.Error(err)
				return
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d.BulkScan(r, chunkSize, func(c ScanChunk) {
			for _, e := range c.Entries() {
				if !bytes.Equal(e.Key, key(got)) || !bytes.Equal(e.Value, value) {
					t.Errorf("pair %d came back as %q = %d bytes", got, e.Key, len(e.Value))
				}
				got++
			}
		})
		runtime.ReadMemStats(&after)
		allocated = after.TotalAlloc - before.TotalAlloc
	})
	if got != pairs {
		t.Fatalf("the scan returned %d pairs, want %d", got, pairs)
	}
	t.Logf("%d bytes allocated to scan %d pairs", allocated, pairs)
	if allocated > 16<<10 {
		t.Errorf("%d bytes allocated to scan %d pairs, want at most 16 KiB", allocated, pairs)
	}
}
