package devlsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"kvaccel/internal/fold"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// foldValue returns a seeded value of one of the shapes a run stores:
// periodic (it folds), periodic but for one byte (it does not), periodic
// with a period past fold.MaxPeriod, periodic but shorter than
// fold.MinLen, or random. Long ones span the test array's 4 KiB pages.
func foldValue(rng *rand.Rand) []byte {
	periodic := func(n, d int) []byte {
		v := make([]byte, n)
		rng.Read(v[:min(d, n)])
		for f := d; f < n; f *= 2 {
			copy(v[f:], v[:f])
		}
		return v
	}
	switch rng.Intn(6) {
	case 0, 1:
		return periodic(fold.MinLen+rng.Intn(9000), 1+rng.Intn(fold.MaxPeriod))
	case 2:
		d := 1 + rng.Intn(fold.MaxPeriod)
		v := periodic(fold.MinLen+rng.Intn(6000), d)
		v[d+rng.Intn(len(v)-d)]++
		return v
	case 3:
		return periodic(fold.MinLen+rng.Intn(3000), fold.MaxPeriod+1+rng.Intn(16))
	case 4:
		return periodic(1+rng.Intn(fold.MinLen-1), 1+rng.Intn(8))
	}
	v := make([]byte, rng.Intn(3000))
	rng.Read(v)
	return v
}

// foldTable fills a memtable with n records over a pool of 40 keys, from
// seq on: foldValue puts, tombstones and supersede markers.
func foldTable(rng *rand.Rand, seq uint64, n int) *memtable.Table {
	mem := memtable.New(64 << 20)
	for i := 0; i < n; i++ {
		k := key(rng.Intn(40))
		switch rng.Intn(10) {
		case 0:
			mem.Add(seq, memtable.KindDelete, k, nil)
		case 1:
			mem.Add(seq, memtable.KindSupersede, k, nil)
		default:
			mem.Add(seq, memtable.KindPut, k, foldValue(rng))
		}
		seq++
	}
	return mem
}

// foldedDev builds, from one seed, a Dev-LSM holding three runs and both
// write buffers (a full region keeps the sealed one readable and no flush
// in flight), over a pool of keys each in several of them.
func foldedDev(t *testing.T, r *vclock.Runner, seed int64) *DevLSM {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := newDev(DefaultConfig())
	seq := uint64(1)
	for i := 0; i < 3; i++ {
		mem := foldTable(rng, seq, 30+rng.Intn(60))
		seq += uint64(mem.Count())
		ru, err := d.buildRun(r, mem.NewIterator(), int(mem.ApproximateSize()))
		if err != nil || ru == nil {
			t.Fatalf("seed %d: build run %d: %v", seed, i, err)
		}
		d.runs = append(d.runs, ru)
	}
	d.sealed = foldTable(rng, seq, 20+rng.Intn(20))
	seq += uint64(d.sealed.Count())
	d.mem, d.full = foldTable(rng, seq, 10+rng.Intn(20)), true
	return d
}

// flatRuns returns d's runs with their data materialised: what a run
// was read as before runs were read in place, every page a view of
// flat bytes, decoded as a whole.
func flatRuns(d *DevLSM) []*run {
	runs := make([]*run, len(d.runs))
	for i, ru := range d.runs {
		f := *ru
		f.data = fold.Literal(flat(ru))
		runs[i] = &f
	}
	return runs
}

// TestRunRecordsMatchFlatDecoder: decoded in place, every record of every
// run is the record the flat decoder reads from the materialised page —
// key, kind, seq and value — and its value is a view of the run exactly
// when the value did not fold.
func TestRunRecordsMatchFlatDecoder(t *testing.T) {
	folded, views := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		runSim(t, func(r *vclock.Runner) {
			d := foldedDev(t, r, seed)
			for ri, ru := range d.runs {
				data := flat(ru)
				for pi, pm := range ru.pages {
					page, off := data[pm.off:pm.off+pm.length], pm.off
					for len(page) > 0 {
						want, rest, err := decodeRecord(page)
						if err != nil {
							t.Fatalf("seed %d run %d page %d: flat decode: %v", seed, ri, pi, err)
						}
						e, voff, vlen, next := ru.record(off)
						isView := len(e.Value) == vlen
						if !isView {
							e.Value = ru.data.Read(voff, vlen)
							folded++
						} else {
							views++
						}
						if !bytes.Equal(e.Key, want.Key) || !bytes.Equal(e.Value, want.Value) || e.Kind != want.Kind || e.Seq != want.Seq ||
							next-off != len(page)-len(rest) || isView != (fold.Period(want.Value) == 0) {
							t.Fatalf("seed %d run %d page %d offset %d: in place %q kind %v seq %d %d bytes (view %v), flat %q kind %v seq %d %d bytes",
								seed, ri, pi, off, e.Key, e.Kind, e.Seq, len(e.Value), isView, want.Key, want.Kind, want.Seq, len(want.Value))
						}
						page, off = rest, next
					}
					if off != pm.off+pm.length {
						t.Fatalf("seed %d run %d page %d: records end at %d, the page at %d", seed, ri, pi, off, pm.off+pm.length)
					}
				}
			}
		})
	}
	if folded < 100 || views < 100 {
		t.Errorf("%d folded values and %d views: the input tests little", folded, views)
	}
}

// scanned is one chunk a bulk scan emitted: its Bytes and its records,
// values landed and copied.
type scanned struct {
	bytes   int
	entries []memtable.Entry
}

func bulkScan(r *vclock.Runner, d *DevLSM, chunkSize int) []scanned {
	var out []scanned
	d.BulkScan(r, chunkSize, func(c ScanChunk) {
		s := scanned{bytes: c.Bytes}
		for _, e := range c.Entries() {
			e.Value = bytes.Clone(e.Value)
			s.entries = append(s.entries, e)
		}
		out = append(out, s)
	})
	return out
}

func sameEntry(a, b memtable.Entry) bool {
	return bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value) && a.Kind == b.Kind && a.Seq == b.Seq
}

// TestInPlaceReadsMatchFlatRuns: a Dev-LSM whose runs hold folded values
// answers the bulk scan, Get and the iterator exactly as the same
// Dev-LSM over flat copies of its runs, in the same virtual time: the
// same chunk boundaries and Bytes, keys, kinds, seqs and landed values;
// the same Get results for every key of the pool and one past it; the
// same records from SeekToFirst and from a Seek to every key. One key is
// in several runs and in both write buffers, with tombstones and
// supersede markers among its versions.
func TestInPlaceReadsMatchFlatRuns(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runSim(t, func(r *vclock.Runner) {
			d := foldedDev(t, r, seed)
			folded := d.runs
			flats := flatRuns(d)
			type read struct {
				chunks []scanned
				gets   []memtable.Entry
				iter   []memtable.Entry
				took   []time.Duration
			}
			var reads [2]read
			for i, runs := range [][]*run{folded, flats} {
				d.runs = runs
				rd := &reads[i]
				start := r.Now()
				rd.chunks = bulkScan(r, d, 16<<10)
				rd.took = append(rd.took, r.Now().Sub(start))
				for k := 0; k <= 40; k++ {
					start = r.Now()
					v, kind, ok, err := d.Get(r, key(k))
					if err != nil {
						t.Fatal(err)
					}
					rd.took = append(rd.took, r.Now().Sub(start))
					e := memtable.Entry{Key: key(k), Value: bytes.Clone(v), Kind: kind}
					if !ok {
						e.Key = nil
					}
					rd.gets = append(rd.gets, e)
				}
				start = r.Now()
				it := d.NewIterator(r)
				for it.SeekToFirst(); it.Valid(); it.Next() {
					if e := it.Entry(); !sameEntry(e, it.Entry()) {
						t.Fatalf("seed %d: Entry changed between two calls at %q", seed, e.Key)
					}
					rd.iter = append(rd.iter, it.Entry())
				}
				for k := 0; k <= 40; k++ {
					if it.Seek(key(k)); it.Valid() {
						rd.iter = append(rd.iter, it.Entry())
					}
				}
				rd.took = append(rd.took, r.Now().Sub(start))
			}
			got, want := reads[0], reads[1]
			if len(got.chunks) != len(want.chunks) {
				t.Fatalf("seed %d: %d chunks, want %d", seed, len(got.chunks), len(want.chunks))
			}
			for i, c := range got.chunks {
				w := want.chunks[i]
				if c.bytes != w.bytes || len(c.entries) != len(w.entries) {
					t.Fatalf("seed %d chunk %d: %d records of %d bytes, want %d of %d", seed, i, len(c.entries), c.bytes, len(w.entries), w.bytes)
				}
				for j, e := range c.entries {
					if !sameEntry(e, w.entries[j]) {
						t.Fatalf("seed %d chunk %d record %d: %q kind %v seq %d %d bytes, want %q kind %v seq %d %d bytes", seed, i, j,
							e.Key, e.Kind, e.Seq, len(e.Value), w.entries[j].Key, w.entries[j].Kind, w.entries[j].Seq, len(w.entries[j].Value))
					}
				}
			}
			for i, e := range got.gets {
				w := want.gets[i]
				if !bytes.Equal(e.Key, w.Key) || !bytes.Equal(e.Value, w.Value) || e.Kind != w.Kind {
					t.Fatalf("seed %d: Get(%s) = %v %d bytes, want %v %d bytes", seed, key(i), e.Kind, len(e.Value), w.Kind, len(w.Value))
				}
			}
			if len(got.iter) != len(want.iter) {
				t.Fatalf("seed %d: the iterator gave %d records, want %d", seed, len(got.iter), len(want.iter))
			}
			for i, e := range got.iter {
				if !sameEntry(e, want.iter[i]) {
					t.Fatalf("seed %d: iterator record %d is %q %d bytes, want %q %d bytes", seed, i, e.Key, len(e.Value), want.iter[i].Key, len(want.iter[i].Value))
				}
			}
			if fmt.Sprint(got.took) != fmt.Sprint(want.took) {
				t.Errorf("seed %d: virtual times %v, want %v", seed, got.took, want.took)
			}
		})
	}
}

// periodicValue is pair i's 4 KiB value: a 12-byte period of its own,
// whose first byte is nowhere else in it.
func periodicValue(i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("k%010d|", i)), 4096/12+1)[:4096]
}

// TestAllocsBulkScanLandsOneChunkAtATime: over 8 MiB of 4 KiB values
// that fold, the device side of the scan — bulk read, merge, chunking —
// materialises none of them: it allocates less than a sixteenth of the
// pairs' bytes. Each chunk then lands in at most two allocations of at
// most its Bytes, and every value comes back whole.
func TestAllocsBulkScanLandsOneChunkAtATime(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const pairs, chunkSize = 2048, 512 << 10
	d := newDev(DefaultConfig())
	var chunks []ScanChunk
	var scan runtime.MemStats
	runSim(t, func(r *vclock.Runner) {
		for i := 0; i < pairs; i++ {
			if err := d.Put(r, memtable.KindPut, key(i), periodicValue(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(r); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d.BulkScan(r, chunkSize, func(c ScanChunk) { chunks = append(chunks, c) })
		runtime.ReadMemStats(&after)
		scan.Mallocs, scan.TotalAlloc = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	})
	pairBytes := uint64(pairs * (len(key(0)) + 4096))
	t.Logf("%d bytes in %d allocations to scan %d bytes of pairs into %d chunks", scan.TotalAlloc, scan.Mallocs, pairBytes, len(chunks))
	if scan.TotalAlloc >= pairBytes/16 {
		t.Errorf("%d bytes allocated to scan %d bytes of pairs, want less than a sixteenth", scan.TotalAlloc, pairBytes)
	}
	got := 0
	for i := range chunks {
		c := &chunks[i]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		entries := c.Entries()
		runtime.ReadMemStats(&after)
		if n, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n > 2 || b > uint64(c.Bytes) {
			t.Errorf("chunk %d landed in %d allocations of %d bytes, want at most 2 of its %d", i, n, b, c.Bytes)
		}
		for _, e := range entries {
			if !bytes.Equal(e.Key, key(got)) || !bytes.Equal(e.Value, periodicValue(got)) {
				t.Fatalf("pair %d came back as %q = %d bytes", got, e.Key, len(e.Value))
			}
			got++
		}
		if again := c.Entries(); &again[0] != &entries[0] || !bytes.Equal(again[0].Value, entries[0].Value) {
			t.Errorf("chunk %d landed twice", i)
		}
	}
	if got != pairs {
		t.Fatalf("the scan returned %d pairs, want %d", got, pairs)
	}
}

// TestAllocsGetFoldedValue: a Get that finds a folded value in a run
// allocates that value once, not the page around it.
func TestAllocsGetFoldedValue(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const n = 1500 // two records a 4 KiB page
	keys, values := make([][]byte, 100), make([][]byte, 100)
	for i := range keys {
		keys[i], values[i] = key(i), bytes.Repeat([]byte{byte('a' + i%26), byte(i)}, n/2)
	}
	d := newDev(DefaultConfig())
	runSim(t, func(r *vclock.Runner) {
		for i := range keys {
			if err := d.Put(r, memtable.KindPut, keys[i], values[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(r); err != nil {
			t.Fatal(err)
		}
		if !d.runs[0].data.Folded() {
			t.Fatal("no value folded")
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keys {
			if v, _, ok, err := d.Get(r, keys[i]); err != nil || !ok || !bytes.Equal(v, values[i]) {
				t.Fatalf("Get(%s): ok=%v err=%v, %d bytes", keys[i], ok, err, len(v))
			}
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / 100
		per := float64(after.TotalAlloc-before.TotalAlloc) / 100
		t.Logf("%.2f allocations and %.0f bytes per Get of a %d-byte folded value", allocs, per, n)
		if allocs > 1 || per > 1.1*n {
			t.Errorf("%.2f allocations and %.0f bytes per Get of a %d-byte folded value, want 1 and the value's", allocs, per, n)
		}
	})
}

// TestCompactionKeepsFoldedValues: merging runs whose values are folded
// reads each value the merge keeps through the iterator, which
// materialises it, and folds it again as the merged run is built: a bulk
// scan returns the same chunks before and after, and the merged run
// folds.
func TestCompactionKeepsFoldedValues(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		runSim(t, func(r *vclock.Runner) {
			d := foldedDev(t, r, seed)
			before := bulkScan(r, d, 16<<10)
			d.compact(r)
			if len(d.runs) != 1 || !d.runs[0].data.Folded() {
				t.Fatalf("seed %d: %d runs after the merge, folded %v", seed, len(d.runs), len(d.runs) == 1 && d.runs[0].data.Folded())
			}
			after := bulkScan(r, d, 16<<10)
			if fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("seed %d: the merge changed the scan", seed)
			}
		})
	}
}
