package lsm

// Equivalence tests for the pipelined WAL: overlapping group N+1's
// append with group N's apply is a scheduling change, not a format
// change. A single-writer run must produce byte-identical WAL streams
// with pipelining on and off, and a multi-writer run must recover to
// the same logical state either way.

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
)

// pipelineOpts returns smallOpts with the pipelined WAL toggled.
func pipelineOpts(disable bool) Options {
	opt := smallOpts()
	opt.DisablePipelinedWAL = disable
	return opt
}

// runSingleWriterWorkload applies a fixed op sequence on a fresh DB
// over fsys and closes it, leaving the WAL on the file system.
func runSingleWriterWorkload(fsys *fs.FileSystem, opt Options) {
	clk := vclock.New()
	db := Open(clk, fsys, opt)
	clk.Go("writer", func(r *vclock.Runner) {
		// Persist a manifest first so Reopen has a CURRENT to start
		// from; everything after this flush lives only in the WAL.
		_ = db.Put(r, key(9000), []byte("base"))
		db.Flush(r)
		db.WaitIdle(r)
		for i := 0; i < 120; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		for i := 0; i < 120; i += 10 {
			_ = db.Delete(r, key(i))
		}
		var b Batch
		b.Put(key(500), []byte("batched"))
		b.Delete(key(1))
		b.Put(key(501), value(501))
		_ = db.Write(r, &b)
		// Push the WAL's buffered tail to the file system so the
		// on-device stream holds the whole op sequence.
		lg := db.log
		if lg != nil {
			lg.Sync(r)
		}
		db.Close()
	})
	clk.Wait()
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

// dumpState reopens the DB over fsys and returns the full key -> value
// mapping a scan observes.
func dumpState(t *testing.T, fsys *fs.FileSystem, opt Options) map[string]string {
	t.Helper()
	out := map[string]string{}
	clk := vclock.New()
	clk.Go("dump", func(r *vclock.Runner) {
		db, err := Reopen(r, clk, fsys, opt)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		defer db.Close()
		it := db.NewIterator(r)
		defer it.Close()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			out[string(it.Key())] = string(it.Value())
		}
	})
	clk.Wait()
	return out
}

func TestPipelinedWALByteIdenticalStreams(t *testing.T) {
	fsOn := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
	fsOff := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
	runSingleWriterWorkload(fsOn, pipelineOpts(false))
	runSingleWriterWorkload(fsOff, pipelineOpts(true))

	on, off := walFiles(fsOn), walFiles(fsOff)
	if len(on) == 0 {
		t.Fatal("no WAL files survived the workload")
	}
	if len(on) != len(off) {
		t.Fatalf("WAL file count differs: pipelined %d, serial %d", len(on), len(off))
	}
	for name, data := range on {
		other, ok := off[name]
		if !ok {
			t.Fatalf("WAL %s exists only in the pipelined run", name)
		}
		if !bytes.Equal(data, other) {
			t.Errorf("WAL %s differs: pipelined %d bytes, serial %d bytes", name, len(data), len(other))
		}
	}

	// Both streams must also recover to the same state.
	stOn := dumpState(t, fsOn, pipelineOpts(false))
	stOff := dumpState(t, fsOff, pipelineOpts(true))
	if len(stOn) != len(stOff) {
		t.Fatalf("recovered state differs: %d keys vs %d", len(stOn), len(stOff))
	}
	for k, v := range stOn {
		if stOff[k] != v {
			t.Errorf("key %s: pipelined %q, serial %q", k, v, stOff[k])
		}
	}
}

func TestPipelinedWALMultiWriterStateEquivalence(t *testing.T) {
	// Concurrent writers own disjoint key prefixes, so the final
	// logical state is schedule-independent: pipelining may change
	// group composition but never what recovers.
	const writers, perWriter = 4, 150
	run := func(disable bool) (*fs.FileSystem, int64) {
		fsys := fs.New(&testDev{pageSize: 4096, pages: 1 << 20})
		clk := vclock.New()
		db := Open(clk, fsys, pipelineOpts(disable))
		done := make(chan struct{}, writers)
		for w := 0; w < writers; w++ {
			w := w
			clk.Go(fmt.Sprintf("writer%d", w), func(r *vclock.Runner) {
				for i := 0; i < perWriter; i++ {
					k := []byte(fmt.Sprintf("w%d-%05d", w, i))
					if err := db.Put(r, k, value(w*1000+i)); err != nil {
						t.Errorf("writer %d put %d: %v", w, i, err)
						break
					}
					if i%13 == 0 {
						_ = db.Delete(r, []byte(fmt.Sprintf("w%d-%05d", w, i/2)))
					}
				}
				done <- struct{}{}
			})
		}
		clk.Go("closer", func(r *vclock.Runner) {
			for len(done) < writers {
				r.Sleep(10 * time.Millisecond)
			}
			db.WaitIdle(r)
			// Durability barrier: Close has no runner and cannot write the
			// WAL's buffered tail, so sync it first — otherwise each run
			// loses a schedule-dependent suffix and the states diverge.
			lg := db.log
			if lg != nil {
				lg.Sync(r)
			}
			db.Close()
		})
		clk.Wait()
		return fsys, db.Stats().PipelinedAppends
	}

	fsOn, appendsOn := run(false)
	fsOff, appendsOff := run(true)
	if appendsOn == 0 {
		t.Error("pipelined run recorded no PipelinedAppends")
	}
	if appendsOff != 0 {
		t.Errorf("serial run recorded %d PipelinedAppends", appendsOff)
	}

	stOn := dumpState(t, fsOn, pipelineOpts(false))
	stOff := dumpState(t, fsOff, pipelineOpts(true))
	if len(stOn) == 0 {
		t.Fatal("no state recovered")
	}
	keys := make([]string, 0, len(stOn))
	for k := range stOn {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, ok := stOff[k]
		if !ok {
			t.Errorf("key %s recovered only from the pipelined run", k)
			continue
		}
		if v != stOn[k] {
			t.Errorf("key %s: pipelined %q, serial %q", k, stOn[k], v)
		}
	}
	for k := range stOff {
		if _, ok := stOn[k]; !ok {
			t.Errorf("key %s recovered only from the serial run", k)
		}
	}
}
