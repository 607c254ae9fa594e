package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
)

// TestGroupCommitConcurrentWriters is the pipeline's property test: N
// concurrent writers, each doing M puts with interleaved read-your-writes
// checks, must commit every record through the group path with a gap-free
// monotone sequence range and fewer WAL appends than records.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 400
	clk, fsys, db := crashableEnv()
	done := make(chan struct{}, writers)
	for w := 0; w < writers; w++ {
		w := w
		clk.Go(fmt.Sprintf("writer%d", w), func(r *vclock.Runner) {
			for i := 0; i < perWriter; i++ {
				k := key(w*100000 + i)
				if err := db.Put(r, k, value(i)); err != nil {
					t.Errorf("writer %d put %d: %v", w, i, err)
					break
				}
				if i%50 == 0 {
					// Read-your-writes: a returned Put is immediately visible.
					v, ok, err := db.Get(r, k)
					if err != nil || !ok || !bytes.Equal(v, value(i)) {
						t.Errorf("writer %d read-your-write %d: ok=%v err=%v", w, i, ok, err)
					}
				}
			}
			done <- struct{}{}
		})
	}
	clk.Go("closer", func(r *vclock.Runner) {
		for i := 0; i < writers; i++ {
			for len(done) <= i {
				r.Sleep(10 * time.Millisecond)
			}
		}
		seq := db.seq
		queued := db.groupQueue.Len()
		if want := uint64(writers * perWriter); seq != want {
			t.Errorf("sequence not gap-free: seq=%d want %d", seq, want)
		}
		if queued != 0 {
			t.Errorf("%d writers still queued after drain", queued)
		}
		db.Flush(r) // durability barrier before the restart
		db.WaitIdle(r)
		db.Close()
	})
	clk.Wait()

	s := db.Stats()
	if s.Puts != writers*perWriter {
		t.Fatalf("puts = %d, want %d", s.Puts, writers*perWriter)
	}
	if s.GroupCommits == 0 || s.GroupedRecords != s.Puts {
		t.Fatalf("group accounting: commits=%d grouped=%d puts=%d", s.GroupCommits, s.GroupedRecords, s.Puts)
	}
	if s.WALAppends != s.GroupCommits {
		t.Fatalf("WAL appends = %d, want one per group (%d)", s.WALAppends, s.GroupCommits)
	}
	if s.GroupCommits >= s.Puts {
		t.Fatalf("no grouping happened: %d commits for %d puts", s.GroupCommits, s.Puts)
	}
	if apr := s.WALAppendsPerRecord(); apr >= 1 {
		t.Fatalf("WAL appends per record = %.3f, want < 1", apr)
	}

	clk2 := vclock.New()
	clk2.Go("verify", func(r *vclock.Runner) {
		db2, err := Reopen(r, clk2, fsys, smallOpts())
		if err != nil {
			t.Errorf("reopen after grouped commits: %v", err)
			return
		}
		defer db2.Close()
		for w := 0; w < writers; w++ {
			for i := 0; i < perWriter; i += 97 {
				v, ok, err := db2.Get(r, key(w*100000+i))
				if err != nil || !ok || !bytes.Equal(v, value(i)) {
					t.Errorf("writer %d key %d lost across restart: ok=%v err=%v", w, i, ok, err)
				}
			}
		}
	})
	clk2.Wait()
}

// TestGroupWALErrorReleasesSeq: a WAL append failure on an open DB must
// release the claimed sequence range, leave the memtable untouched, and
// not perturb recovery of the writes around it — also when writers are
// queued behind the failing group, who must then commit on a gap-free
// sequence and recover.
func TestGroupWALErrorReleasesSeq(t *testing.T) {
	opt := smallOpts()
	// Every group is one writer, so a group's successors stay queued.
	opt.MaxWriteGroupBytes = 1
	clk := vclock.New()
	fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
	db := Open(clk, fsys, opt)
	boom := errors.New("injected append failure")
	const queued = 5
	failedKey := -1
	clk.Go("writer", func(r *vclock.Runner) {
		for i := 0; i < 100; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		// Persist a manifest so the post-crash Reopen has a CURRENT file;
		// the writes after this barrier live only in the WAL.
		db.Flush(r)
		db.WaitIdle(r)
		seqBefore := db.seq
		db.failNextAppend = boom

		if err := db.Put(r, key(5000), value(0)); !errors.Is(err, boom) {
			t.Errorf("failed append returned %v, want %v", err, boom)
		}
		seqAfter := db.seq
		if seqAfter != seqBefore {
			t.Errorf("seq leaked across failed append: %d -> %d", seqBefore, seqAfter)
		}
		if _, ok, _ := db.Get(r, key(5000)); ok {
			t.Error("failed write is visible in the memtable")
		}
		if s := db.Stats(); s.WALErrors != 1 {
			t.Errorf("WALErrors = %d, want 1", s.WALErrors)
		}

		// The DB keeps accepting writes after the failure...
		for i := 100; i < 160; i++ {
			if err := db.Put(r, key(i), value(i)); err != nil {
				t.Errorf("put %d after failed append: %v", i, err)
			}
		}

		// ...and so do the writers queued behind a failing group. While
		// the first group appends, the rest queue; its hook arms the
		// failure of the second group, which leaves writers behind it.
		seqBefore = db.seq
		hooks, behind := 0, 0
		db.opt.TestHook = func(string) {
			switch hooks++; hooks {
			case 1:
				db.failNextAppend = boom
			case 2:
				behind = db.groupQueue.Len()
			}
		}
		done := make(chan struct{}, queued)
		for i := 0; i < queued; i++ {
			i := i
			clk.Go(fmt.Sprintf("queued%d", i), func(r *vclock.Runner) {
				err := db.Put(r, key(6000+i), value(i))
				switch {
				case errors.Is(err, boom) && failedKey < 0:
					failedKey = i
				case err != nil:
					t.Errorf("queued writer %d: %v", i, err)
				}
				done <- struct{}{}
			})
		}
		for len(done) < queued {
			r.Sleep(10 * time.Microsecond)
		}
		db.opt.TestHook = nil
		if failedKey < 0 || behind == 0 {
			t.Errorf("failed writer %d with %d writers queued behind its group, want one with some", failedKey, behind)
		}
		if want := seqBefore + queued - 1; db.seq != want {
			t.Errorf("sequence not gap-free after a failed group: seq=%d want %d", db.seq, want)
		}
		if s := db.Stats(); s.WALErrors != 2 {
			t.Errorf("WALErrors = %d, want 2", s.WALErrors)
		}
		lg := db.log
		lg.Sync(r)
		db.Close()
	})
	clk.Wait()

	// ...and recovery replays the surrounding writes with no gap effects.
	clk2 := vclock.New()
	clk2.Go("recover", func(r *vclock.Runner) {
		db2, err := Reopen(r, clk2, fsys, opt)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		defer db2.Close()
		for i := 0; i < 160; i += 13 {
			v, ok, err := db2.Get(r, key(i))
			if err != nil || !ok || !bytes.Equal(v, value(i)) {
				t.Errorf("key %d lost after failed-append recovery: ok=%v err=%v", i, ok, err)
			}
		}
		if _, ok, _ := db2.Get(r, key(5000)); ok {
			t.Error("failed write resurrected by recovery")
		}
		for i := 0; i < queued; i++ {
			v, ok, err := db2.Get(r, key(6000+i))
			if i == failedKey {
				if ok {
					t.Errorf("queued writer %d's failed write resurrected by recovery", i)
				}
			} else if err != nil || !ok || !bytes.Equal(v, value(i)) {
				t.Errorf("queued writer %d's write lost: ok=%v err=%v", i, ok, err)
			}
		}
	})
	clk2.Wait()
}

// TestPutRacingCloseFails: a Close that lands while a group leader is in
// its WAL append fails the group. The Put returns an error rather than
// being acknowledged with no record logged, nothing panics, and recovery
// does not find the key.
func TestPutRacingCloseFails(t *testing.T) {
	clk, fsys, db := crashableEnv()
	clk.Go("writer", func(r *vclock.Runner) {
		for i := 0; i < 10; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.Flush(r)
		db.WaitIdle(r)
		clk.Go("closer", func(r *vclock.Runner) {
			r.Sleep(time.Nanosecond)
			db.Close()
		})
		if err := db.Put(r, key(5000), value(0)); err == nil {
			t.Error("a Put whose append met Close was acknowledged")
		}
	})
	clk.Wait()

	clk2 := vclock.New()
	clk2.Go("recover", func(r *vclock.Runner) {
		db2, err := Reopen(r, clk2, fsys, smallOpts())
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		defer db2.Close()
		if _, ok, _ := db2.Get(r, key(5000)); ok {
			t.Error("the Put that raced Close recovered")
		}
		for i := 0; i < 10; i++ {
			if _, ok, err := db2.Get(r, key(i)); err != nil || !ok {
				t.Errorf("flushed key %d lost: ok=%v err=%v", i, ok, err)
			}
		}
	})
	clk2.Wait()
}

// TestNoStallWaitFailsFast drives the engine into a hard memtable stall
// (slow device, tiny flush backlog) and checks that NoStallWait writes
// come back with ErrWouldStall instead of parking.
func TestNoStallWaitFailsFast(t *testing.T) {
	opt := smallOpts()
	opt.MaxImmutableMemtables = 1
	opt.L0StopTrigger = 1000 // let the memtable stop condition fire first
	clk, db := newTestDB(5*time.Millisecond, opt)
	clk.Go("writer", func(r *vclock.Runner) {
		defer db.Close()
		var wouldStall bool
		for i := 0; i < 2000; i++ {
			err := db.PutWith(r, WriteOptions{NoStallWait: true}, key(i), value(i))
			if errors.Is(err, ErrWouldStall) {
				wouldStall = true
				break
			}
			if err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		if !wouldStall {
			t.Error("2000 non-blocking puts never hit ErrWouldStall on a stalling device")
		}
	})
	clk.Wait()
	if s := db.Stats(); s.WouldStalls == 0 {
		t.Fatalf("WouldStalls = 0 after ErrWouldStall was returned")
	}
}

// TestPointWriteIsOneOpBatch pins the single write path: a writer doing
// Put/Delete and a twin doing the same ops as one-op Write batches leave
// byte-identical WAL files and equal counters, with values inline and
// with values separated into the value log.
func TestPointWriteIsOneOpBatch(t *testing.T) {
	run := func(threshold int, batched bool) (map[string][]byte, Stats) {
		opt := smallOpts()
		opt.ValueThreshold = threshold
		opt.MemtableSize = 1 << 20 // no rotation: one WAL holds every record
		clk := vclock.New()
		fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
		db := Open(clk, fsys, opt)
		clk.Go("writer", func(r *vclock.Runner) {
			defer db.Close()
			put := func(k, v []byte) error { return db.Put(r, k, v) }
			del := func(k []byte) error { return db.Delete(r, k) }
			if batched {
				put = func(k, v []byte) error {
					var b Batch
					b.Put(k, v)
					return db.Write(r, &b)
				}
				del = func(k []byte) error {
					var b Batch
					b.Delete(k)
					return db.Write(r, &b)
				}
			}
			for i := 0; i < 300; i++ {
				v := value(i)
				if i%3 == 0 {
					v = v[:16] // below any threshold: stays inline
				}
				if err := put(key(i), v); err != nil {
					t.Errorf("put %d: %v", i, err)
				}
				if i%7 == 0 {
					if err := del(key(i / 2)); err != nil {
						t.Errorf("delete %d: %v", i/2, err)
					}
				}
			}
			lg := db.log
			lg.Sync(r)
		})
		clk.Wait()
		return walFiles(fsys), db.Stats()
	}
	for _, threshold := range []int{0, 128} {
		pointWAL, point := run(threshold, false)
		batchWAL, batch := run(threshold, true)
		if len(pointWAL) == 0 || len(pointWAL) != len(batchWAL) {
			t.Fatalf("threshold %d: WAL file count: point %d, batch %d", threshold, len(pointWAL), len(batchWAL))
		}
		for name, data := range pointWAL {
			if !bytes.Equal(data, batchWAL[name]) {
				t.Errorf("threshold %d: WAL %s differs: point %d bytes, batch %d bytes", threshold, name, len(data), len(batchWAL[name]))
			}
		}
		if point.Puts != batch.Puts || point.Deletes != batch.Deletes ||
			point.UserBytes != batch.UserBytes || point.WALAppends != batch.WALAppends {
			t.Errorf("threshold %d: counters differ: point puts=%d deletes=%d user=%d wal=%d, batch puts=%d deletes=%d user=%d wal=%d",
				threshold, point.Puts, point.Deletes, point.UserBytes, point.WALAppends,
				batch.Puts, batch.Deletes, batch.UserBytes, batch.WALAppends)
		}
		if point.Puts != 300 || point.WALAppends != point.Puts+point.Deletes {
			t.Errorf("threshold %d: puts=%d deletes=%d WALAppends=%d", threshold, point.Puts, point.Deletes, point.WALAppends)
		}
	}
}

// TestBatchCommitsThroughGroup routes a WriteBatch through the group
// pipeline and checks it is accounted as one group of b.Len() records.
func TestBatchCommitsThroughGroup(t *testing.T) {
	clk, db := newTestDB(0, smallOpts())
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		b := &Batch{}
		for i := 0; i < 10; i++ {
			b.Put(key(i), value(i))
		}
		b.Delete(key(3))
		if err := db.Write(r, b); err != nil {
			t.Errorf("batch: %v", err)
		}
		for i := 0; i < 10; i++ {
			v, ok, err := db.Get(r, key(i))
			if i == 3 {
				if ok {
					t.Error("deleted key visible")
				}
				continue
			}
			if err != nil || !ok || !bytes.Equal(v, value(i)) {
				t.Errorf("get %d: ok=%v err=%v", i, ok, err)
			}
		}
	})
	clk.Wait()
	s := db.Stats()
	if s.GroupCommits != 1 || s.GroupedRecords != 11 {
		t.Fatalf("batch group accounting: commits=%d grouped=%d", s.GroupCommits, s.GroupedRecords)
	}
	if s.Puts != 10 || s.Deletes != 1 {
		t.Fatalf("op counts: puts=%d deletes=%d", s.Puts, s.Deletes)
	}
}

// walFiles returns name -> content for every WAL file on fsys.
func walFiles(fsys *fs.FileSystem) map[string][]byte {
	out := map[string][]byte{}
	clk := vclock.New()
	clk.Go("read", func(r *vclock.Runner) {
		for _, name := range fsys.List() {
			if strings.HasSuffix(name, ".log") {
				data, err := fsys.ReadFile(r, name)
				if err == nil {
					out[name] = data
				}
			}
		}
	})
	clk.Wait()
	return out
}
