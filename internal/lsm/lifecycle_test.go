package lsm

import (
	"bytes"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
)

// lifeDev is a testDev that can hold one named runner inside a page read
// (a Get parked in flight) and fail writes on demand (a manifest that
// does not reach the media).
type lifeDev struct {
	testDev
	holdName string        // runner whose reads park on release
	reached  *vclock.Event // raised when that runner parks
	release  *vclock.Event
	failNow  func() bool // non-nil: a write fails while it reports true
}

func (d *lifeDev) ReadPages(r *vclock.Runner, lpns []int) error {
	if d.holdName != "" && r.Name() == d.holdName {
		d.reached.Set()
		d.release.WaitFor(r, time.Hour)
	}
	return nil
}

func (d *lifeDev) WritePages(r *vclock.Runner, lpns []int) error {
	if d.failNow != nil && d.failNow() {
		return errors.New("lifeDev: write refused")
	}
	return nil
}

// sstOnDisk lists the table files the file system holds.
func sstOnDisk(fsys *fs.FileSystem) []string {
	var out []string
	for _, name := range fsys.List() {
		if strings.HasSuffix(name, ".sst") {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// liveSSTs lists the table files of the current version.
func liveSSTs(db *DB) []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []string
	for _, files := range db.vers.levels {
		for _, f := range files {
			out = append(out, f.Name())
		}
	}
	sort.Strings(out)
	return out
}

func union(sets ...[]string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range sets {
		for _, name := range s {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestFileLifeCycleAcrossInstalls pins what a reader's hold on the file
// set means, as a table over the ways a file stops being live: a table a
// compaction consumed stays on disk exactly as long as a Get or an
// iterator that started before the install still runs, or — when nothing
// holds it — until the manifest naming its replacement is durable; the
// last holder to let go deletes exactly those files and evicts their
// cached blocks; a manifest write that fails keeps the inputs for the
// restart; and Reopen finds every key after each case. At every step the
// tables on disk must be the current version's plus those of the
// versions still held.
func TestFileLifeCycleAcrossInstalls(t *testing.T) {
	const perFlush = 150
	// Steps: "iter" opens an iterator, "get" starts a Get that parks inside
	// its first table read, "install" flushes two overlapping L0 tables and
	// lets one compaction run, "install-fail" does the same with the
	// manifest write refused, "finish-get" lets the parked Get return,
	// "close-iter" closes the iterator.
	cases := []struct {
		name  string
		steps []string
	}{
		{"nothing holds the inputs", []string{"install", "install"}},
		{"get in flight across a compaction install", []string{"install", "get", "install", "finish-get"}},
		{"iterator open across two installs", []string{"install", "iter", "install", "install", "close-iter"}},
		{"get and iterator hold different versions", []string{"install", "iter", "install", "get", "install", "close-iter", "finish-get"}},
		{"install whose manifest write fails keeps the inputs", []string{"install", "install-fail"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.New()
			dev := &lifeDev{testDev: testDev{pageSize: 4096, pages: 1 << 20}}
			fsys := fs.New(dev)
			fsys.SetPageCacheBytes(4096) // table reads must reach the device, where a Get can be held
			opt := smallOpts()
			opt.BlockCacheBytes = 8 << 20 // nothing leaves the block cache for lack of room
			db := Open(clk, fsys, opt)

			written := 0 // keys [0, written) hold value(i)
			checkAll := func(r *vclock.Runner, d *DB, when string) {
				for i := 0; i < written; i++ {
					v, ok, err := d.Get(r, key(i))
					if err != nil || !ok || !bytes.Equal(v, value(i)) {
						t.Errorf("%s: key %d: ok=%v err=%v", when, i, ok, err)
						return
					}
				}
			}
			holdCompactions := func(hold bool) {
				db.mu.Lock()
				db.compactionThreads = 1
				if hold {
					db.compactionThreads = 0
				}
				db.mu.Unlock()
				db.bgCond.Broadcast()
			}

			clk.Go("test", func(r *vclock.Runner) {
				holdCompactions(true)
				var (
					it       *Iterator
					itFiles  []string // tables of the version the iterator holds
					itKeys   int      // keys written before it opened
					getFiles []string // tables of the version the parked Get holds
					getDone  *vclock.Event
					failed   bool
					kept     []string // inputs a failed manifest write must keep
				)
				defer func() {
					// Also the way out of a failed step: nothing stays parked.
					if getDone != nil {
						dev.release.Set()
						getDone.WaitFor(r, time.Second)
					}
					if it != nil {
						it.Close()
					}
					holdCompactions(false)
					db.Close()
				}()
				expectDisk := func(when string) {
					want := union(liveSSTs(db), itFiles, getFiles, kept)
					if got := sstOnDisk(fsys); strings.Join(got, " ") != strings.Join(want, " ") {
						t.Errorf("%s: tables on disk\n got %v\nwant %v", when, got, want)
					}
				}
				for n, do := range tc.steps {
					when := do + "#" + string(rune('0'+n))
					switch do {
					case "install", "install-fail":
						// Two flushes over the same key range: the second
						// L0 table reaches the compaction trigger, and from
						// the second install on the L1 outputs of the one
						// before overlap and are consumed too.
						for f := 0; f < 2; f++ {
							for i := 0; i < perFlush; i++ {
								if err := db.Put(r, key(i), value(i)); err != nil {
									t.Errorf("%s: put: %v", when, err)
									return
								}
							}
							written = max(written, perFlush)
							if err := db.Flush(r); err != nil {
								t.Errorf("%s: flush: %v", when, err)
								return
							}
						}
						before := liveSSTs(db)
						if do == "install-fail" {
							// The merge writes its outputs while L0 still
							// lists the inputs; the manifest is written once
							// the install has emptied L0.
							dev.failNow = func() bool { return db.LevelFileCounts()[0] == 0 }
							kept, failed = before, true
						}
						evictions := db.cache.Stats().Evictions
						holdCompactions(false)
						db.WaitIdle(r)
						holdCompactions(true)
						dev.failNow = nil
						if got := db.Stats().Compactions; got == 0 {
							t.Errorf("%s: no compaction ran", when)
						}
						if after := liveSSTs(db); strings.Join(after, " ") == strings.Join(before, " ") {
							t.Errorf("%s: the install changed no file", when)
						}
						if (db.BackgroundError() != nil) != failed {
							t.Errorf("%s: background error = %v, want failure %v", when, db.BackgroundError(), failed)
						}
						if it == nil && getDone == nil && !failed && db.cache.Stats().Evictions != evictions {
							// Nothing read the inputs through the cache, so an
							// unheld install evicts nothing — and must not
							// count evictions it did not make.
							t.Errorf("%s: %d blocks evicted with none cached", when, db.cache.Stats().Evictions-evictions)
						}
					case "iter":
						it, itFiles, itKeys = db.NewIterator(r), liveSSTs(db), written
					case "get":
						dev.holdName = "held-get"
						dev.reached, dev.release = vclock.NewEvent("held-get.reached"), vclock.NewEvent("held-get.release")
						getDone, getFiles = vclock.NewEvent("held-get.done"), liveSSTs(db)
						done := getDone
						clk.Go("held-get", func(gr *vclock.Runner) {
							defer done.Set()
							v, ok, err := db.Get(gr, key(7))
							if err != nil || !ok || !bytes.Equal(v, value(7)) {
								t.Errorf("held get: ok=%v err=%v", ok, err)
							}
						})
						if !dev.reached.WaitFor(r, time.Second) {
							t.Errorf("%s: the Get never reached a table read", when)
							return
						}
					case "finish-get":
						evictions := db.cache.Stats().Evictions
						dev.release.Set()
						getDone.WaitFor(r, time.Second)
						dev.holdName, getDone, getFiles = "", nil, nil
						if it == nil && db.cache.Stats().Evictions == evictions {
							t.Errorf("%s: the block the Get cached from a dead table was not evicted", when)
						}
					case "close-iter":
						// The cursor still reads the version it opened on,
						// now from tables no longer live.
						seen := 0
						for it.SeekToFirst(); it.Valid(); it.Next() {
							if !bytes.Equal(it.Key(), key(seen)) || !bytes.Equal(it.Value(), value(seen)) {
								t.Errorf("%s: iterator entry %d is %q", when, seen, it.Key())
								break
							}
							seen++
						}
						if it.Err() != nil || seen < itKeys {
							t.Errorf("%s: iterator saw %d of %d keys, err=%v", when, seen, itKeys, it.Err())
						}
						evictions := db.cache.Stats().Evictions
						it.Close()
						it, itFiles = nil, nil
						if getDone == nil && db.cache.Stats().Evictions == evictions {
							t.Errorf("%s: closing the iterator evicted no block of the dead tables it read", when)
						}
					}
					expectDisk(when)
					if t.Failed() {
						return
					}
				}
				checkAll(r, db, "before close")
				if !failed {
					if err := db.CheckInvariants(); err != nil {
						t.Errorf("invariants: %v", err)
					}
				}
			})
			clk.Wait()
			if t.Failed() {
				return
			}

			clk2 := vclock.New()
			clk2.Go("reopen", func(r *vclock.Runner) {
				db2, err := Reopen(r, clk2, fsys, opt)
				if err != nil {
					t.Errorf("reopen: %v", err)
					return
				}
				defer db2.Close()
				checkAll(r, db2, "after reopen")
				if err := db2.CheckInvariants(); err != nil {
					t.Errorf("invariants after reopen: %v", err)
				}
				// Orphans of an install that never reached the manifest
				// are swept; nothing else is.
				if got, want := sstOnDisk(fsys), liveSSTs(db2); strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("after reopen: tables on disk %v, live %v", got, want)
				}
			})
			clk2.Wait()
		})
	}
}
