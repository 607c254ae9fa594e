package lsm

import (
	"bytes"
	"math/rand"
	"testing"

	"kvaccel/internal/sstable"
	"kvaccel/internal/vclock"
)

// foldingValue returns a value for TestFoldedTablesReadBack: mostly long
// values that repeat a short period (their tables fold them), some long
// ones that break the repeat at their last byte or never repeat, and
// some short ones.
func foldingValue(rng *rand.Rand) []byte {
	switch n := rng.Intn(20); {
	case n < 2: // short
		v := make([]byte, 10+rng.Intn(300))
		rng.Read(v)
		return v
	case n < 4: // long, random
		v := make([]byte, 1024+rng.Intn(5000))
		rng.Read(v)
		return v
	default: // long, periodic, its last byte changed one time in eight
		d := 1 + rng.Intn(64)
		v := make([]byte, 4096+rng.Intn(6000))
		rng.Read(v[:d])
		for f := d; f < len(v); f *= 2 {
			copy(v[f:], v[:f])
		}
		if n%8 == 0 {
			v[len(v)-1]++
		}
		return v
	}
}

// TestFoldedTablesReadBack drives flushes and compactions over tables
// whose long values fold, at a file size past the compaction readahead
// window, so compaction reads blocks that are views of a table's payload,
// blocks materialised into its reused buffer and blocks that straddle
// windows. Get reads a sample of keys while compactions run, and after
// the tree settles every key is read back with Get and an iterator, and
// every table reads the same through the compaction source as through
// the foreground one.
func TestFoldedTablesReadBack(t *testing.T) {
	opt := smallOpts()
	opt.MemtableSize = 512 << 10
	opt.MaxFileSize = compactionReadahead * 3 / 2
	opt.BaseLevelBytes = 2 * compactionReadahead
	opt.WALChunkSize = 256 << 10
	clk, db := newTestDB(0, opt)
	m := flushModel{value: map[string][]byte{}}
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		rng := rand.New(rand.NewSource(11))
		for op := 1; op <= 5000; op++ {
			k := key(rng.Intn(1200))
			if rng.Intn(20) == 0 {
				if err := db.Delete(r, k); err != nil {
					t.Fatal(err)
				}
				m.value[string(k)] = nil
				continue
			}
			v := foldingValue(rng)
			if err := db.Put(r, k, v); err != nil {
				t.Fatal(err)
			}
			m.value[string(k)] = v
			if op%250 != 0 {
				continue
			}
			for i := 0; i < 40; i++ { // while compactions run
				k := key(rng.Intn(1200))
				want, present := m.value[string(k)]
				got, ok, err := db.Get(r, k)
				if err != nil || ok != (want != nil) || !bytes.Equal(got, want) {
					t.Fatalf("op %d: Get(%s) = %d bytes, ok=%v, err=%v; want %d bytes (written %v)", op, k, len(got), ok, err, len(want), present)
				}
			}
		}
		if err := db.Flush(r); err != nil {
			t.Fatal(err)
		}
		db.WaitIdle(r)
		if s := db.Stats(); s.Compactions < 4 {
			t.Errorf("%d compactions ran, want several", s.Compactions)
		}
		readsModel(t, r, db, m, "after compactions")

		long, folded := 0, 0
		for level, files := range db.vers.levels {
			for _, f := range files {
				p, _, err := db.fsys.ReadExtentBackground(r, f.Name(), 0, int(f.Size))
				if err != nil {
					t.Fatal(err)
				}
				if p.Folded() {
					folded++
				}
				src := fileSource{db: db, name: f.Name(), size: int(f.Size)}
				n, windows := sameTable(t, r, &readaheadSource{inner: src}, &src)
				if n != f.Entries {
					t.Errorf("L%d %s: %d records, want %d", level, f.Name(), n, f.Entries)
				}
				if level > 0 && f.Size > compactionReadahead {
					if windows < 2 {
						t.Errorf("L%d %s of %d bytes was scanned in %d windows", level, f.Name(), f.Size, windows)
					}
					long++
				}
			}
		}
		if long == 0 || folded == 0 {
			t.Errorf("%d tables past the readahead window, %d folded: the input tests little", long, folded)
		}
	})
	clk.Wait()
}

// sameTable reads one table through a compaction source and another and
// fails unless they yield the same records and the table checksums
// through the first. It returns the number of records and the number of
// readahead windows the scan read.
func sameTable(t *testing.T, r *vclock.Runner, a *readaheadSource, b sstable.Source) (n, windows int) {
	t.Helper()
	ra, err := sstable.Open(r, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sstable.Open(r, b)
	if err != nil {
		t.Fatal(err)
	}
	ia, ib := ra.NewIterator(r), rb.NewIterator(r)
	win := -1
	ia.SeekToFirst()
	ib.SeekToFirst()
	for ; ia.Valid() && ib.Valid(); ia.Next() {
		if a.off != win {
			win = a.off
			windows++
		}
		ea, eb := ia.Entry(), ib.Entry()
		if !bytes.Equal(ea.Key, eb.Key) || ea.Seq != eb.Seq || ea.Kind != eb.Kind || !bytes.Equal(ea.Value, eb.Value) {
			t.Fatalf("record %d: %s/%d from the compaction source, %s/%d from the foreground one", n, ea.Key, ea.Seq, eb.Key, eb.Seq)
		}
		ib.Next()
		n++
	}
	if ia.Valid() || ib.Valid() || ia.Err() != nil || ib.Err() != nil {
		t.Fatalf("after %d records: valid %v/%v, errors %v/%v", n, ia.Valid(), ib.Valid(), ia.Err(), ib.Err())
	}
	if err := ra.VerifyChecksum(r); err != nil {
		t.Fatal(err)
	}
	return n, windows
}
