package devlsm

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// The double-buffered write buffer: the put that fills the active buffer
// seals it and returns, and a background runner flushes the sealed one.
// These tests run with a 64 KiB buffer, so a flush is ~16 pages on the
// test array's 4 dies: ~2 ms of programs against a put's 4 µs of ARM time.

func smallBufferDev() *DevLSM {
	cfg := DefaultConfig()
	cfg.MemtableBytes = 64 << 10
	return newDev(cfg)
}

// fillUntilSealed puts key(from), key(from+1), ... until a put seals the
// active buffer, and returns the next unused index.
func fillUntilSealed(t *testing.T, r *vclock.Runner, d *DevLSM, from int, model map[string]string) int {
	t.Helper()
	i := from
	for ; d.sealed == nil; i++ {
		if err := d.Put(r, memtable.KindPut, key(i), value(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		model[string(key(i))] = string(value(i))
	}
	return i
}

// TestSealingPutTakesPutTime: the put that fills the buffer costs its own
// ARM time and no more; the flush it starts takes hundreds of times that,
// and only a Flush waits for it.
func TestSealingPutTakesPutTime(t *testing.T) {
	d := smallBufferDev()
	runSim(t, func(r *vclock.Runner) {
		var took time.Duration
		for i := 0; d.sealed == nil && d.Stats().Flushes == 0; i++ {
			start := r.Now()
			if err := d.Put(r, memtable.KindPut, key(i), value(i)); err != nil {
				t.Fatal(err)
			}
			took = r.Now().Sub(start)
		}
		if took != d.cfg.PutCPU {
			t.Errorf("the sealing put took %v, want its ARM time %v", took, d.cfg.PutCPU)
		}
		start := r.Now()
		if err := d.Flush(r); err != nil {
			t.Fatal(err)
		}
		if flushed := r.Now().Sub(start); flushed < 100*took {
			t.Errorf("the flush ended %v after the sealing put, want at least 100x its %v", flushed, took)
		}
		if s := d.Stats(); s.Flushes != 1 || s.BufferWaits != 0 {
			t.Errorf("%d flushes and %d buffer waits, want 1 and 0", s.Flushes, s.BufferWaits)
		}
	})
}

// TestGetReadsTheSealedBuffer: while the flush runs, a key held only in
// the sealed buffer is found there, and a newer record in the active
// buffer shadows it.
func TestGetReadsTheSealedBuffer(t *testing.T) {
	d := smallBufferDev()
	runSim(t, func(r *vclock.Runner) {
		n := fillUntilSealed(t, r, d, 0, map[string]string{})
		if err := d.Put(r, memtable.KindDelete, key(1), nil); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, n - 1} {
			v, kind, ok, err := d.Get(r, key(i))
			if err != nil || !ok || kind != memtable.KindPut || !bytes.Equal(v, value(i)) {
				t.Errorf("key %d from the sealed buffer: ok=%v kind=%v err=%v", i, ok, kind, err)
			}
		}
		if _, kind, ok, _ := d.Get(r, key(1)); !ok || kind != memtable.KindDelete {
			t.Errorf("key 1, deleted in the active buffer: ok=%v kind=%v, want the tombstone", ok, kind)
		}
		if d.sealed == nil || len(d.runs) != 0 {
			t.Fatal("the flush ended before the reads: they did not read the sealed buffer")
		}
	})
}

// midFlush leaves d with a run, a sealed buffer in flight and an active
// buffer, where the sealed buffer deletes some of the run's keys and the
// active one overwrites and deletes others, and returns every key's
// newest record: its value, or "" for a tombstone. The run folds the
// 2 KiB values of ten keys, one of which the active buffer overwrites.
func midFlush(t *testing.T, r *vclock.Runner, d *DevLSM) map[string]string {
	t.Helper()
	model := map[string]string{}
	for i := 0; i < 110; i++ {
		v := []byte("run")
		if i >= 100 {
			v = bytes.Repeat([]byte(fmt.Sprintf("<%d>", i)), 2048/5)
		}
		if err := d.Put(r, memtable.KindPut, key(i), v); err != nil {
			t.Fatal(err)
		}
		model[string(key(i))] = string(v)
	}
	if err := d.Flush(r); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := d.Put(r, memtable.KindDelete, key(i), nil); err != nil {
			t.Fatal(err)
		}
		model[string(key(i))] = ""
	}
	next := fillUntilSealed(t, r, d, 1000, model)
	for _, i := range []int{30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 104} {
		kind, v := memtable.KindPut, []byte("active")
		if i%2 == 1 {
			kind, v = memtable.KindDelete, nil
		}
		if err := d.Put(r, kind, key(i), v); err != nil {
			t.Fatal(err)
		}
		model[string(key(i))] = string(v)
	}
	if err := d.Put(r, memtable.KindPut, key(next), value(next)); err != nil {
		t.Fatal(err)
	}
	model[string(key(next))] = string(value(next))
	if d.sealed == nil || !d.runs[0].data.Folded() {
		t.Fatal("the flush ended before the command under test was issued, or the run folded nothing")
	}
	return model
}

// checkRecords compares the records a scan returned, in order, with the
// model: every key once, ascending, with its newest value or tombstone.
func checkRecords(t *testing.T, what string, got []memtable.Entry, model map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(got) != len(keys) {
		t.Fatalf("%s returned %d records, want %d", what, len(got), len(keys))
	}
	for i, e := range got {
		want := model[keys[i]]
		if string(e.Key) != keys[i] {
			t.Fatalf("%s record %d is %q, want %q", what, i, e.Key, keys[i])
		}
		if (want == "") != (e.Kind == memtable.KindDelete) || string(e.Value) != want {
			t.Fatalf("%s: %q is kind %v value %.8q, want %.8q", what, e.Key, e.Kind, e.Value, want)
		}
	}
}

// TestScansIssuedMidFlushMissNothing: a bulk scan and an iterator opened
// while a flush is in flight see every record once, with its newest
// version: none lost between the buffers and the new run, and no deleted
// key back with an older value.
func TestScansIssuedMidFlushMissNothing(t *testing.T) {
	t.Run("BulkScan", func(t *testing.T) {
		d := smallBufferDev()
		runSim(t, func(r *vclock.Runner) {
			model := midFlush(t, r, d)
			var got []memtable.Entry
			d.BulkScan(r, 8<<10, func(c ScanChunk) { got = append(got, c.Entries()...) })
			checkRecords(t, "BulkScan", got, model)
		})
	})
	t.Run("NewIterator", func(t *testing.T) {
		d := smallBufferDev()
		runSim(t, func(r *vclock.Runner) {
			model := midFlush(t, r, d)
			it := d.NewIterator(r)
			var got []memtable.Entry
			for it.SeekToFirst(); it.Valid(); it.Next() {
				got = append(got, it.Entry())
			}
			checkRecords(t, "NewIterator", got, model)
		})
	})
}

// TestResetMidFlushInstallsNoStaleRun: a Reset issued while a flush is in
// flight waits for it, so the flushed run cannot land after the wipe and
// bring wiped keys back; records put after the Reset are all kept.
func TestResetMidFlushInstallsNoStaleRun(t *testing.T) {
	d := smallBufferDev()
	runSim(t, func(r *vclock.Runner) {
		old := midFlush(t, r, d)
		d.Reset(r)
		if d.sealed != nil || len(d.runs) != 0 || !d.Empty() {
			t.Fatalf("after Reset: sealed=%v runs=%d entries=%d", d.sealed != nil, len(d.runs), d.Count())
		}
		fresh := map[string]string{}
		for i := 20; i < 40; i++ { // some deleted before the Reset, some not
			v := fmt.Sprintf("fresh%d", i)
			if err := d.Put(r, memtable.KindPut, key(i), []byte(v)); err != nil {
				t.Fatal(err)
			}
			fresh[string(key(i))] = v
		}
		r.Sleep(time.Second) // any flush that could still land has landed
		if err := d.Flush(r); err != nil {
			t.Fatal(err)
		}
		for k := range old {
			v, _, ok, _ := d.Get(r, []byte(k))
			if want, kept := fresh[k]; kept != ok || string(v) != want {
				t.Errorf("%q after the Reset: ok=%v value %.8q, want ok=%v %q", k, ok, v, kept, want)
			}
		}
		if s := d.Stats(); s.Resets != 1 || len(d.runs) != 1 {
			t.Errorf("%d resets and %d runs, want 1 and 1", s.Resets, len(d.runs))
		}
	})
}

// TestBulkScanViewsOutliveResetAndPuts: a scan's entries are views of the
// Dev-LSM's buffers and runs, not copies, and they stay equal after the
// Dev-LSM is reset and refilled with other values for the same keys.
func TestBulkScanViewsOutliveResetAndPuts(t *testing.T) {
	d := smallBufferDev()
	runSim(t, func(r *vclock.Runner) {
		model := midFlush(t, r, d)
		var got []memtable.Entry
		d.BulkScan(r, 8<<10, func(c ScanChunk) { got = append(got, c.Entries()...) })
		saved := make([]memtable.Entry, len(got))
		for i, e := range got {
			saved[i] = memtable.Entry{Key: bytes.Clone(e.Key), Value: bytes.Clone(e.Value), Seq: e.Seq, Kind: e.Kind}
		}
		d.Reset(r)
		for i := 0; i < 1200; i++ { // several buffers' worth, flushed into runs
			if err := d.Put(r, memtable.KindPut, key(i), bytes.Repeat([]byte{'z'}, 100)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(r); err != nil {
			t.Fatal(err)
		}
		for i, e := range got {
			s := saved[i]
			if !bytes.Equal(e.Key, s.Key) || !bytes.Equal(e.Value, s.Value) || e.Seq != s.Seq || e.Kind != s.Kind {
				t.Fatalf("entry %d changed after Reset and puts: %q=%.8q, scanned as %q=%.8q", i, e.Key, e.Value, s.Key, s.Value)
			}
		}
		checkRecords(t, "the scan, after Reset and puts", got, model)
	})
}
