package lsm

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"kvaccel/internal/encoding"
	"kvaccel/internal/faults"
	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
	"kvaccel/internal/vlog"
)

// cutDev is a testDev whose writes start failing once cut, so vlog and
// WAL bytes queued after the cut never reach the device.
type cutDev struct {
	testDev
	cut bool
}

func (d *cutDev) WritePages(r *vclock.Runner, lpns []int) error {
	if d.cut {
		return fmt.Errorf("cutDev: device gone")
	}
	return d.testDev.WritePages(r, lpns)
}

// vlogOpts enables value separation at a threshold small test values
// exceed, with segments small enough that rotation happens inside a
// single test.
func vlogOpts() Options {
	opt := smallOpts()
	opt.ValueThreshold = 128
	opt.VLogSegmentSize = 16 << 10
	return opt
}

func bigValue(i int) []byte {
	return bytes.Repeat([]byte{byte('A' + i%26)}, 512+i%64)
}

func TestVLogSeparationRoundTrip(t *testing.T) {
	clk := vclock.New()
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
	db := Open(clk, fsys, vlogOpts())
	clk.Go("phase1", func(r *vclock.Runner) {
		for i := 0; i < 300; i++ {
			var err error
			if i%3 == 0 {
				err = db.Put(r, key(i), []byte("inline")) // below threshold
			} else {
				err = db.Put(r, key(i), bigValue(i))
			}
			if err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}
		check := func(stage string) {
			for i := 0; i < 300; i++ {
				want := bigValue(i)
				if i%3 == 0 {
					want = []byte("inline")
				}
				v, ok, err := db.Get(r, key(i))
				if err != nil || !ok || !bytes.Equal(v, want) {
					t.Errorf("%s: get %d: ok=%v err=%v", stage, i, ok, err)
					return
				}
			}
		}
		check("memtable")
		db.Flush(r)
		db.WaitIdle(r)
		check("sst") // pointers now live in SSTs and must deref

		st := db.Stats()
		if st.VLogBytes == 0 || st.VLogSegments == 0 {
			t.Errorf("no value bytes separated: %+v", st)
		}
		if st.UserBytes == 0 {
			t.Error("UserBytes not accounted")
		}

		// Iterators must deref transparently too.
		it := db.NewIterator(r)
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if len(it.Value()) == 0 {
				t.Errorf("iterator surfaced empty value at %q", it.Key())
			}
			n++
		}
		if err := it.Err(); err != nil {
			t.Errorf("iterator error: %v", err)
		}
		it.Close()
		if n != 300 {
			t.Errorf("iterator saw %d keys, want 300", n)
		}
		db.Close()
	})
	clk.Wait()

	// Everything flushed must survive a reopen, pointers intact.
	clk2 := vclock.New()
	clk2.Go("phase2", func(r *vclock.Runner) {
		db2, err := Reopen(r, clk2, fsys, vlogOpts())
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		defer db2.Close()
		for i := 0; i < 300; i += 7 {
			want := bigValue(i)
			if i%3 == 0 {
				want = []byte("inline")
			}
			v, ok, err := db2.Get(r, key(i))
			if err != nil || !ok || !bytes.Equal(v, want) {
				t.Errorf("reopen get %d: ok=%v err=%v", i, ok, err)
			}
		}
	})
	clk2.Wait()
}

// A WAL record whose pointer dereferences into a torn-away vlog tail must
// be dropped whole during replay — recovery succeeds and the key simply
// reverts to its pre-crash durable state.
func TestVLogWALReplayDropsDanglingPointers(t *testing.T) {
	opt := vlogOpts()
	plan := faults.NewPlan(0xDEAD)
	clk := vclock.New()
	dev := &cutDev{testDev: testDev{pageSize: 4096, pages: 1 << 20}}
	fsys := fs.New(dev)
	db := Open(clk, fsys, opt)
	clk.Go("phase1", func(r *vclock.Runner) {
		// A durable baseline, fully flushed (vlog synced under the flush).
		for i := 0; i < 50; i++ {
			_ = db.Put(r, key(i), bigValue(i))
		}
		db.Flush(r)
		db.WaitIdle(r)
		// Unflushed tail: an inline record and a separated one. Sync only
		// the WAL, so the pointer record is durable but its value bytes
		// are still buffered in the vlog head when the device dies.
		_ = db.Put(r, []byte("inline-key"), []byte("small"))
		_ = db.Put(r, []byte("vlog-key"), bytes.Repeat([]byte{'Z'}, 600))
		lg := db.log
		if err := lg.Sync(r); err != nil {
			t.Errorf("wal sync: %v", err)
		}
		dev.cut = true
		db.Close()
	})
	clk.Wait()
	if t.Failed() {
		return
	}

	fsys.Crash(plan)
	dev.cut = false

	clk2 := vclock.New()
	clk2.Go("phase2", func(r *vclock.Runner) {
		db2, err := Reopen(r, clk2, fsys, opt)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		defer db2.Close()
		// The baseline and the inline WAL record survive.
		for i := 0; i < 50; i += 9 {
			v, ok, gerr := db2.Get(r, key(i))
			if gerr != nil || !ok || !bytes.Equal(v, bigValue(i)) {
				t.Errorf("baseline key %d lost: ok=%v err=%v", i, ok, gerr)
			}
		}
		if v, ok, _ := db2.Get(r, []byte("inline-key")); !ok || string(v) != "small" {
			t.Error("inline WAL record did not replay")
		}
		// The dangling-pointer record was dropped, not surfaced broken.
		if v, ok, gerr := db2.Get(r, []byte("vlog-key")); gerr != nil {
			t.Errorf("get of dropped key errored: %v", gerr)
		} else if ok {
			if len(v) != 600 || v[0] != 'Z' {
				t.Errorf("dangling pointer surfaced corrupt value (len=%d)", len(v))
			}
			// Surviving with the right bytes is fine too (tail happened to
			// cover it); only corruption is a failure.
		}
	})
	clk2.Wait()
}

// Batched writes separate per-op without mutating the caller's Batch, and
// read back correctly through both memtable and SSTs.
func TestVLogBatchSeparation(t *testing.T) {
	clk := vclock.New()
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
	db := Open(clk, fsys, vlogOpts())
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		var b Batch
		for i := 0; i < 60; i++ {
			if i%2 == 0 {
				b.Put(key(i), bigValue(i))
			} else {
				b.Put(key(i), []byte("tiny"))
			}
		}
		before := len(b.ops)
		if err := db.Write(r, &b); err != nil {
			t.Fatalf("batch write: %v", err)
		}
		if len(b.ops) != before {
			t.Fatal("batch write mutated the caller's Batch")
		}
		for _, op := range b.ops {
			if len(op.value) > 0 && op.value[0] == 0xF7 {
				t.Fatal("caller's Batch op rewritten to a pointer")
			}
		}
		db.Flush(r)
		db.WaitIdle(r)
		for i := 0; i < 60; i++ {
			want := bigValue(i)
			if i%2 != 0 {
				want = []byte("tiny")
			}
			v, ok, err := db.Get(r, key(i))
			if err != nil || !ok || !bytes.Equal(v, want) {
				t.Errorf("get %d: ok=%v err=%v", i, ok, err)
			}
		}
		if db.Stats().VLogBytes == 0 {
			t.Error("batch writes never reached the vlog")
		}
	})
	clk.Wait()
}

// TestVLogManifestRoundTrip: the manifest carries the value log's next
// segment id across a restart, so a new append never reuses an id that
// existed before the crash — not even one whose file the crash tore away
// whole, which leaves no file for Recover to number past.
func TestVLogManifestRoundTrip(t *testing.T) {
	opt := vlogOpts()
	clk := vclock.New()
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
	db := Open(clk, fsys, opt)
	var newest uint32
	clk.Go("phase1", func(r *vclock.Runner) {
		for i := 0; i < 100; i++ {
			_ = db.Put(r, key(i), bigValue(i))
		}
		if err := db.Flush(r); err != nil {
			t.Errorf("flush: %v", err)
		}
		db.WaitIdle(r)
		newest = db.vlog.ManifestSnapshot().NextSeg - 1
		db.Close()
	})
	clk.Wait()
	if t.Failed() {
		return
	}
	if newest < 2 {
		t.Fatalf("newest segment %d: the test wants several", newest)
	}

	clk2 := vclock.New()
	clk2.Go("phase2", func(r *vclock.Runner) {
		// Tear the newest segment away whole: Recover drops a file
		// without a single checked frame.
		if err := fsys.WriteFile(r, vlog.SegmentName(newest), []byte{0xff}); err != nil {
			t.Error(err)
			return
		}
		db2, err := Reopen(r, clk2, fsys, opt)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		defer db2.Close()
		if fsys.Exists(vlog.SegmentName(newest)) {
			t.Errorf("recovery kept segment %d, whose file held no frame", newest)
			return
		}
		if err := db2.Put(r, []byte("after"), bigValue(7)); err != nil {
			t.Error(err)
			return
		}
		if err := db2.Flush(r); err != nil {
			t.Error(err)
			return
		}
		if fsys.Exists(vlog.SegmentName(newest)) {
			t.Errorf("a post-restart append reused segment id %d", newest)
		}
		if !fsys.Exists(vlog.SegmentName(newest + 1)) {
			t.Errorf("the post-restart append did not open segment %d", newest+1)
		}
	})
	clk2.Wait()
}

// TestVLogDiscardBytesSumsDroppedPointers: a compaction that drops a
// superseded pointer adds the length of the record it pointed at to
// Stats.VLogDiscardBytes, once the compaction installs.
func TestVLogDiscardBytesSumsDroppedPointers(t *testing.T) {
	const n = 120
	clk, db := newTestDB(0, vlogOpts())
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		var superseded int64
		for round := 0; round < 2; round++ {
			for i := 0; i < n; i++ {
				v := append(bigValue(i), byte('0'+round))
				if err := db.Put(r, key(i), v); err != nil {
					t.Errorf("round %d put %d: %v", round, i, err)
					return
				}
				if round == 0 {
					superseded += int64(encoding.FrameHeader + encoding.UvarintLen(uint64(len(key(i)))) + len(key(i)) + len(v))
				}
			}
			if err := db.Flush(r); err != nil {
				t.Error(err)
				return
			}
			db.WaitIdle(r)
			if got := db.Stats().VLogDiscardBytes; round == 0 && got != 0 {
				t.Errorf("discard %d before any overwrite", got)
				return
			}
		}
		// The second flush brings L0 to its trigger; the compaction merges
		// both rounds and drops every round-0 version.
		st := db.Stats()
		if st.Compactions == 0 || db.LevelFileCounts()[0] != 0 {
			t.Errorf("rounds were not merged: %d compactions, levels %v", st.Compactions, db.LevelFileCounts())
			return
		}
		if st.VLogDiscardBytes != superseded {
			t.Errorf("VLogDiscardBytes = %d, want %d, the round-0 records' lengths", st.VLogDiscardBytes, superseded)
		}
		for i := 0; i < n; i += 11 {
			v, ok, err := db.Get(r, key(i))
			if err != nil || !ok || !bytes.Equal(v, append(bigValue(i), '1')) {
				t.Errorf("get %d: ok=%v err=%v", i, ok, err)
			}
		}
	})
	clk.Wait()
}

// Write-amp accounting: with separation on, large values are written once
// to the vlog and never rewritten by compaction, so write-amp must come
// out strictly below an equivalent no-vlog run.
func TestVLogWriteAmpBelowBaseline(t *testing.T) {
	run := func(opt Options) Stats {
		clk := vclock.New()
		fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
		db := Open(clk, fsys, opt)
		var st Stats
		clk.Go("bench", func(r *vclock.Runner) {
			defer db.Close()
			for round := 0; round < 5; round++ {
				for i := 0; i < 200; i++ {
					_ = db.Put(r, key(i), bigValue(i))
				}
			}
			db.Flush(r)
			db.WaitIdle(r)
			st = db.Stats()
		})
		clk.Wait()
		return st
	}
	base := run(smallOpts())
	sep := run(vlogOpts())
	if base.UserBytes != sep.UserBytes {
		t.Errorf("UserBytes differ: baseline %d vs vlog %d", base.UserBytes, sep.UserBytes)
	}
	ba, va := base.WriteAmplification(), sep.WriteAmplification()
	if va >= ba {
		t.Errorf("vlog write-amp %.2f not below baseline %.2f", va, ba)
	}
}

// TestVLogConcurrentWritersReadOwnValues is the regression for chunks
// reaching the write-back queue out of offset order: 8 writers appending
// 4 KiB values to the same segments, with chunks cut on nearly every
// append and a queue shallow enough that pushes park. Every key must read
// back its own value while the bytes are still in memory, once they are
// durable, and after a Reopen.
func TestVLogConcurrentWritersReadOwnValues(t *testing.T) {
	const writers, perWriter = 8, 60
	opt := smallOpts()
	opt.ValueThreshold = 1024
	opt.VLogSegmentSize = 64 << 10 // ~30 segments over the run
	opt.WALChunkSize = 4 << 10
	opt.WALQueueDepth = 2
	wkey := func(w, i int) []byte { return key(w*100000 + i) }
	wval := func(w, i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("w%d#%04d|", w, i)), 512) // 4 KiB, unique per key
	}
	checkAll := func(r *vclock.Runner, db *DB, stage string) {
		for w := 0; w < writers; w++ {
			for i := 0; i < perWriter; i++ {
				v, ok, err := db.Get(r, wkey(w, i))
				if err != nil || !ok || !bytes.Equal(v, wval(w, i)) {
					t.Errorf("%s: writer %d key %d: ok=%v err=%v own-value=%v", stage, w, i, ok, err, bytes.Equal(v, wval(w, i)))
					return
				}
			}
		}
	}

	clk := vclock.New()
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20, perPage: 20 * time.Microsecond})
	db := Open(clk, fsys, opt)
	var wg vclock.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		w := w
		clk.Go(fmt.Sprintf("writer%d", w), func(r *vclock.Runner) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := db.Put(r, wkey(w, i), wval(w, i)); err != nil {
					t.Errorf("writer %d put %d: %v", w, i, err)
					return
				}
			}
		})
	}
	clk.Go("checker", func(r *vclock.Runner) {
		wg.Wait(r)
		checkAll(r, db, "before flush")
		if err := db.Flush(r); err != nil {
			t.Errorf("flush: %v", err)
		}
		db.WaitIdle(r)
		checkAll(r, db, "durable")
		if n := db.Stats().VLogSegments; n < 4 {
			t.Errorf("only %d vlog segments; the test wants several", n)
		}
		db.Close()
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
	})
	clk2.Wait()
}
