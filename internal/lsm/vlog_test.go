package lsm

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"kvaccel/internal/faults"
	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
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
// exceed, with segments small enough that rotation and GC happen inside
// a single test.
func vlogOpts() Options {
	opt := smallOpts()
	opt.ValueThreshold = 128
	opt.VLogSegmentSize = 16 << 10
	opt.VLogGCDiscardRatio = 0.3
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

// Overwrites flow through compaction into per-segment discard stats, and
// a manual GC pass must rewrite the survivors and punch the segment
// without disturbing any live value.
func TestVLogGCRewritesLiveAndPunchesDead(t *testing.T) {
	opt := vlogOpts()
	opt.DisableVLogGC = true // drive GC by hand
	clk := vclock.New()
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
	db := Open(clk, fsys, opt)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		// Several overwrite rounds so compaction sees superseded pointers.
		for round := 0; round < 4; round++ {
			for i := 0; i < 120; i++ {
				v := append(bigValue(i), byte('0'+round))
				if err := db.Put(r, key(i), v); err != nil {
					t.Fatalf("round %d put %d: %v", round, i, err)
				}
			}
			db.Flush(r)
			db.WaitIdle(r)
		}
		if db.Stats().VLogDiscardBytes == 0 {
			t.Fatal("compaction reported no discard bytes to the vlog")
		}

		collected := false
		for i := 0; i < 32; i++ {
			did, err := db.CollectVLogGarbage(r, 0.01)
			if err != nil {
				t.Fatalf("gc pass %d: %v", i, err)
			}
			if !did {
				break
			}
			collected = true
		}
		if !collected {
			t.Fatal("GC never found a candidate despite discard stats")
		}
		st := db.Stats()
		if st.VLogPunchedBytes == 0 {
			t.Errorf("GC collected but punched nothing: %+v", st)
		}
		if st.VLogGCRewrites == 0 {
			t.Error("GC punched segments without rewriting any live value")
		}
		// Every live value must still read back exactly.
		for i := 0; i < 120; i++ {
			want := append(bigValue(i), '3')
			v, ok, err := db.Get(r, key(i))
			if err != nil || !ok || !bytes.Equal(v, want) {
				t.Errorf("post-GC get %d: ok=%v err=%v", i, ok, err)
			}
		}
	})
	clk.Wait()
}

// A power cut during GC — after live values were rewritten but before the
// dead segment was punched, and also before the rewrites were synced —
// must never lose a live value across recovery. The before-punch case
// relies on syncForVLogGC having made the rewrites durable; the
// after-rewrite case relies on the punch being skipped once the device
// dies.
func TestVLogGCSurvivesPowerCut(t *testing.T) {
	for _, cutAt := range []string{"after-rewrite", "before-punch"} {
		t.Run(cutAt, func(t *testing.T) {
			opt := vlogOpts()
			opt.DisableVLogGC = true
			plan := faults.NewPlan(0xC0FFEE)
			clk := vclock.New()
			dev := &cutDev{testDev: testDev{pageSize: 4096, pages: 1 << 20}}
			fsys := fs.New(dev)
			db := Open(clk, fsys, opt)
			clk.Go("phase1", func(r *vclock.Runner) {
				// Round 0 writes every key; later rounds overwrite only the
				// even ones, so early segments keep live odd-key records
				// (forcing rewrites) next to dead even-key ones (earning
				// the discard ratio that makes them GC candidates).
				for round := 0; round < 3; round++ {
					for i := 0; i < 80; i++ {
						if round > 0 && i%2 != 0 {
							continue
						}
						v := append(bigValue(i), byte('0'+round))
						_ = db.Put(r, key(i), v)
					}
					db.Flush(r)
					db.WaitIdle(r)
				}
				db.testHookGC = func(point string) {
					if point == cutAt {
						dev.cut = true
					}
				}
				// Drive GC until the cut fires or candidates run out.
				for i := 0; i < 32 && !dev.cut; i++ {
					if did, err := db.CollectVLogGarbage(r, 0.01); err != nil || !did {
						break
					}
				}
				if !dev.cut {
					t.Errorf("%s hook never fired; GC path not exercised", cutAt)
				}
				db.Close() // post-cut queue flushes fail; that's the crash
			})
			clk.Wait()
			if t.Failed() {
				return
			}

			fsys.Crash(plan)
			dev.cut = false // power restored

			clk2 := vclock.New()
			clk2.Go("phase2", func(r *vclock.Runner) {
				db2, err := Reopen(r, clk2, fsys, opt)
				if err != nil {
					t.Errorf("reopen after mid-GC cut: %v", err)
					return
				}
				defer db2.Close()
				for i := 0; i < 80; i++ {
					want := append(bigValue(i), '2')
					if i%2 != 0 {
						want = append(bigValue(i), '0')
					}
					v, ok, gerr := db2.Get(r, key(i))
					if gerr != nil || !ok || !bytes.Equal(v, want) {
						t.Errorf("live key %d lost across mid-GC crash: ok=%v err=%v", i, ok, gerr)
						return
					}
				}
			})
			clk2.Wait()
		})
	}
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

// The manifest round-trips vlog segment state, so discard stats survive a
// clean restart and GC can resume where it left off.
func TestVLogManifestRoundTrip(t *testing.T) {
	opt := vlogOpts()
	opt.DisableVLogGC = true
	clk := vclock.New()
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
	db := Open(clk, fsys, opt)
	var wantDiscard int64
	clk.Go("phase1", func(r *vclock.Runner) {
		for round := 0; round < 3; round++ {
			for i := 0; i < 100; i++ {
				_ = db.Put(r, key(i), bigValue(i))
			}
			db.Flush(r)
			db.WaitIdle(r)
		}
		wantDiscard = db.Stats().VLogDiscardBytes
		if wantDiscard == 0 {
			t.Error("no discard stats before restart")
		}
		db.Close()
	})
	clk.Wait()
	if t.Failed() {
		return
	}

	clk2 := vclock.New()
	clk2.Go("phase2", func(r *vclock.Runner) {
		db2, err := Reopen(r, clk2, fsys, opt)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		defer db2.Close()
		if got := db2.Stats().VLogDiscardBytes; got < wantDiscard {
			t.Errorf("discard stats lost across restart: got %d, had %d", got, wantDiscard)
		}
		// GC must be able to act on the recovered stats immediately.
		did, gerr := db2.CollectVLogGarbage(r, 0.01)
		if gerr != nil {
			t.Errorf("post-restart GC: %v", gerr)
		}
		if !did {
			t.Error("post-restart GC found no candidate despite recovered discard stats")
		}
		for i := 0; i < 100; i += 13 {
			v, ok, gerr := db2.Get(r, key(i))
			if gerr != nil || !ok || !bytes.Equal(v, bigValue(i)) {
				t.Errorf("post-restart get %d: ok=%v err=%v", i, ok, gerr)
			}
		}
	})
	clk2.Wait()
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

// GC rewrites each batch in user-key order regardless of the order the
// values were originally appended. Values are written in descending key
// order, so every segment holds its records in the exact reverse of key
// order — an unsorted rewrite pass would re-append descending, which is
// what this test would catch.
func TestVLogGCRewriteBatchSortedByKey(t *testing.T) {
	opt := vlogOpts()
	opt.DisableVLogGC = true // drive GC by hand
	clk := vclock.New()
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
	db := Open(clk, fsys, opt)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		// Descending writes; 16 KiB segments over ~540 B values hold
		// under 32 records each, so one segment's survivors always fit a
		// single rewrite batch and each GC pass must observe one fully
		// ascending key sequence.
		for round := 0; round < 2; round++ {
			for i := 119; i >= 0; i-- {
				if round > 0 && i%2 == 0 {
					continue // even keys stay live in their old segments
				}
				v := append(bigValue(i), byte('0'+round))
				if err := db.Put(r, key(i), v); err != nil {
					t.Fatalf("round %d put %d: %v", round, i, err)
				}
			}
			db.Flush(r)
			db.WaitIdle(r)
		}

		var rewritten [][]byte
		db.testHookGCRewrite = func(k []byte) {
			rewritten = append(rewritten, append([]byte(nil), k...))
		}
		sortedPasses := 0
		for pass := 0; pass < 32; pass++ {
			rewritten = rewritten[:0]
			did, err := db.CollectVLogGarbage(r, 0.01)
			if err != nil {
				t.Fatalf("gc pass %d: %v", pass, err)
			}
			if !did {
				break
			}
			for i := 1; i < len(rewritten); i++ {
				if bytes.Compare(rewritten[i-1], rewritten[i]) > 0 {
					t.Fatalf("pass %d: rewrites out of key order: %q after %q",
						pass, rewritten[i], rewritten[i-1])
				}
			}
			if len(rewritten) >= 2 {
				sortedPasses++
			}
		}
		if sortedPasses == 0 {
			t.Fatal("no GC pass rewrote enough records to exercise batch ordering")
		}
	})
	clk.Wait()
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

// TestVLogGCReadyKeepsPickGCAnswer drives the value log by hand through
// every kind of change that can move PickGC's answer — a segment sealed
// by an append, write-back reaching its end, discard reported, the
// segment marked dead, punched — and checks after each that vlogGCReady,
// which keeps PickGC's last answer until the log's mutation count moves,
// gives what a fresh PickGC gives. Each step starts from a kept answer,
// and most of them flip it: a change that did not count would show.
func TestVLogGCReadyKeepsPickGCAnswer(t *testing.T) {
	opt := vlogOpts()
	opt.DisableVLogGC = true // nothing but the test touches the log
	clk := vclock.New()
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
	db := Open(clk, fsys, opt)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		vl := db.vlog
		n := 0
		sealOne := func() uint32 { // append until a segment seals
			for {
				ptr, err := vl.Append(r, key(n), bigValue(n))
				n++
				if err != nil {
					t.Fatalf("append: %v", err)
				}
				if int64(ptr.Off)+int64(ptr.Len) >= opt.VLogSegmentSize {
					return ptr.Seg
				}
			}
		}
		sync := func() {
			if err := vl.Sync(r); err != nil {
				t.Fatalf("sync: %v", err)
			}
		}
		var a, b uint32
		steps := []struct {
			name   string
			mutate func()
			want   bool
		}{
			{"append seals a", func() { a = sealOne() }, false}, // not written back
			{"write-back of a", sync, false},                    // no discard
			{"discard on a", func() { vl.MarkDiscard(a, opt.VLogSegmentSize) }, true},
			{"a dead", func() { vl.MarkDead(a) }, false},
			{"a punched", func() { vl.Punch(r, a) }, false},
			{"append seals b", func() { b = sealOne() }, false},
			{"discard on b", func() { vl.MarkDiscard(b, opt.VLogSegmentSize) }, false}, // not written back
			{"write-back of b", sync, true},
			{"b punched", func() { vl.Punch(r, b) }, false},
		}
		for _, s := range steps {
			db.vlogGCReady() // keep the answer before the change
			s.mutate()
			_, picked := vl.PickGC(opt.VLogGCDiscardRatio)
			if got := db.vlogGCReady(); got != picked || got != s.want {
				t.Fatalf("after %s: vlogGCReady=%v PickGC=%v, want %v", s.name, got, picked, s.want)
			}
		}
	})
	clk.Wait()
}
