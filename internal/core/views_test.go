package core

import (
	"bytes"
	"fmt"
	"testing"

	"kvaccel/internal/lsm"
	"kvaccel/internal/ssd"
	"kvaccel/internal/vclock"
)

// viewValue is version ver of key i's 100-byte value: every key's bytes
// differ from its neighbours', and every version's from the last.
func viewValue(i, ver int) []byte {
	v := []byte(fmt.Sprintf("%07d/%d:", i, ver))
	return append(v, bytes.Repeat([]byte{byte('a' + (i+ver)%26)}, 100-len(v))...)
}

// TestGetViewsAreClippedAndStable: Get hands out read-only views of
// engine memory, from whichever layer answers. For each source, the test
// appends to the view it got, which must not reach the engine: the key
// and its neighbours read back unchanged. It then holds the view through
// flushes, compactions, writes through the front cache, InvalidateAll and
// eviction, and a Dev-LSM rollback, and the view's bytes must never
// change.
func TestGetViewsAreClippedAndStable(t *testing.T) {
	const n, target = 60, 10
	mainDB := func(db *DB) *lsm.DB { return db.Main().(*lsm.DB) }
	put := func(t *testing.T, r *vclock.Runner, db *DB, lo, hi, ver int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := db.Put(r, key(i), viewValue(i, ver)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
	}
	flush := func(t *testing.T, r *vclock.Runner, db *DB) {
		t.Helper()
		if err := db.Flush(r); err != nil {
			t.Fatal(err)
		}
	}
	// separate sends every value to the value log, in segments of seg bytes
	// (0: the default, larger than everything a row writes before its Get).
	separate := func(seg int64) func(*lsm.Options) {
		return func(o *lsm.Options) { o.ValueThreshold, o.VLogSegmentSize = 64, seg }
	}
	rows := []struct {
		name string
		opt  func(*Options)
		tune func(*lsm.Options)
		// place writes keys [0, n) at version 0 and leaves target where
		// the row reads it from.
		place func(t *testing.T, r *vclock.Runner, db *DB)
		// served counts reads the row's source answered.
		served func(db *DB) int64
	}{
		{"active-memtable", nil, nil,
			func(t *testing.T, r *vclock.Runner, db *DB) { put(t, r, db, 0, n, 0) },
			func(db *DB) int64 { return mainDB(db).Stats().ReadsMemtable }},
		{"immutable-memtable", nil, nil,
			func(t *testing.T, r *vclock.Runner, db *DB) {
				put(t, r, db, 0, n, 0)
				// Other keys until the table rotates; its flush has not run
				// yet at this instant.
				for i := 1000; mainDB(db).Health().ImmutableMemtables == 0; i++ {
					put(t, r, db, i, i+1, 0)
				}
			},
			func(db *DB) int64 { return mainDB(db).Stats().ReadsImmutable }},
		// A repeat read of a block, the read a block cache once served: the
		// SST reader has none, so it is again a view of the table's extent.
		{"sst-block-cache", nil, nil,
			func(t *testing.T, r *vclock.Runner, db *DB) {
				put(t, r, db, 0, n, 0)
				flush(t, r, db)
				if _, ok, err := db.Get(r, key(target)); !ok || err != nil {
					t.Fatalf("first get: ok=%v err=%v", ok, err)
				}
			},
			func(db *DB) int64 { return mainDB(db).Stats().ReadsSST() }},
		// A first read of the block, a view of the table's one extent.
		{"sst-no-block-cache", nil, nil,
			func(t *testing.T, r *vclock.Runner, db *DB) { put(t, r, db, 0, n, 0); flush(t, r, db) },
			func(db *DB) int64 { return mainDB(db).Stats().ReadsSST() }},
		// The head segment stays open, so its buffer serves the read.
		{"vlog-head-buffer", nil, separate(0),
			func(t *testing.T, r *vclock.Runner, db *DB) { put(t, r, db, 0, n, 0); flush(t, r, db) },
			func(db *DB) int64 { return mainDB(db).Stats().VLogDerefs }},
		// Target's 4 KiB segment is sealed and written back by the flush's
		// sync, so the file system serves the read.
		{"vlog-durable-file", nil, separate(4 << 10),
			func(t *testing.T, r *vclock.Runner, db *DB) { put(t, r, db, 0, n, 0); flush(t, r, db) },
			func(db *DB) int64 { return mainDB(db).Stats().VLogDerefs }},
		{"front-cache-hit", func(o *Options) { o.FrontCacheBytes = 16 << 10 }, nil,
			func(t *testing.T, r *vclock.Runner, db *DB) {
				put(t, r, db, 0, n, 0)
				if _, ok, err := db.Get(r, key(target)); !ok || err != nil {
					t.Fatalf("filling get: ok=%v err=%v", ok, err)
				}
			},
			func(db *DB) int64 { return db.Stats().FrontCacheHits }},
		// Redirected, then flushed from device DRAM into a run.
		{"dev-lsm", nil, nil,
			func(t *testing.T, r *vclock.Runner, db *DB) {
				db.det.SetOverride(true)
				put(t, r, db, 0, n, 0)
				db.det.SetOverride(false)
				if err := db.Device().(*ssd.KVRegion).DevLSM().Flush(r); err != nil {
					t.Fatal(err)
				}
			},
			func(db *DB) int64 { return db.Stats().DevServed }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.Rollback = RollbackDisabled
			if row.opt != nil {
				row.opt(&opt)
			}
			clk, db := newStack(opt, row.tune)
			clk.Go("test", func(r *vclock.Runner) {
				defer db.Close()
				row.place(t, r, db)
				before := row.served(db)
				v, ok, err := db.Get(r, key(target))
				if err != nil || !ok || !bytes.Equal(v, viewValue(target, 0)) {
					t.Fatalf("get: %q ok=%v err=%v", v, ok, err)
				}
				if got := row.served(db) - before; got != 1 {
					t.Fatalf("the row's source answered %d reads, want 1", got)
				}
				_ = append(v, bytes.Repeat([]byte{'X'}, 64)...)
				for i := target - 1; i <= target+1; i++ {
					if got, ok, err := db.Get(r, key(i)); err != nil || !ok || !bytes.Equal(got, viewValue(i, 0)) {
						t.Fatalf("after appending to the view, key %d reads %q ok=%v err=%v", i, got, ok, err)
					}
				}
				churnUnderView(t, r, db, mainDB(db))
				if !bytes.Equal(v, viewValue(target, 0)) {
					t.Errorf("the view now reads %q", v)
				}
			})
			clk.Wait()
		})
	}
}

// churnUnderView runs everything that replaces or frees engine memory:
// three overwrites of every key (flushes and compactions), reads that
// fill the front cache past capacity, InvalidateAll, and a rollback that
// merges and resets the Dev-LSM. It checks each of them happened where the stack has the part.
func churnUnderView(t *testing.T, r *vclock.Runner, db *DB, main *lsm.DB) {
	t.Helper()
	const keys = 400
	for ver := 1; ver <= 3; ver++ {
		for i := 0; i < keys; i++ {
			if err := db.Put(r, key(i), viewValue(i, ver)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
	}
	if err := db.Flush(r); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle(r)
	// Each key is read twice: the front cache admits a key into a full
	// shard only on a repeat read.
	for i := 0; i < keys; i++ {
		for range 2 {
			if _, _, err := db.Get(r, key(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.FrontCache().InvalidateAll()
	if err := db.RollbackNow(r); err != nil {
		t.Fatal(err)
	}
	st, kv := main.Stats(), db.Stats()
	if st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("churn ran %d flushes and %d compactions", st.Flushes, st.Compactions)
	}
	if db.FrontCache() != nil && kv.FrontCacheEvictions == 0 {
		t.Fatal("churn evicted nothing from the front cache")
	}
	if kv.RedirectedPuts > 0 && kv.Rollbacks == 0 {
		t.Fatal("churn never rolled the Dev-LSM back")
	}
}
