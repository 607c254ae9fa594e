package vlog

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"kvaccel/internal/encoding"
	"kvaccel/internal/faults"
	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
)

type slowDev struct {
	pageSize int
	pages    int
	perPage  time.Duration
}

func (d *slowDev) WritePages(r *vclock.Runner, lpns []int) error {
	if d.perPage > 0 {
		r.Sleep(time.Duration(len(lpns)) * d.perPage)
	}
	return nil
}
func (d *slowDev) ReadPages(r *vclock.Runner, lpns []int) error {
	if d.perPage > 0 {
		r.Sleep(time.Duration(len(lpns)) * d.perPage)
	}
	return nil
}
func (d *slowDev) TrimPages(r *vclock.Runner, lpns []int) error { return nil }
func (d *slowDev) PageSize() int                                { return d.pageSize }
func (d *slowDev) Pages() int                                   { return d.pages }

// cuttableDev starts failing writes once cut, leaving a torn tail.
type cuttableDev struct {
	slowDev
	cut bool
}

func (d *cuttableDev) WritePages(r *vclock.Runner, lpns []int) error {
	if d.cut {
		return fmt.Errorf("cuttableDev: device gone")
	}
	return d.slowDev.WritePages(r, lpns)
}

func TestVLogAppendReadRoundTrip(t *testing.T) {
	clk := vclock.New()
	fsys := fs.New(&slowDev{pageSize: 4096, pages: 1 << 18})
	m := Open(clk, fsys, Options{SegmentSize: 1 << 20, ChunkSize: 4 << 10, QueueDepth: 8})
	clk.Go("test", func(r *vclock.Runner) {
		defer m.Close()
		var ptrs []encoding.ValuePointer
		for i := 0; i < 100; i++ {
			k := []byte(fmt.Sprintf("key%04d", i))
			v := bytes.Repeat([]byte{byte('a' + i%26)}, 200+i)
			ptr, err := m.Append(r, k, v)
			if err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			ptrs = append(ptrs, ptr)
		}
		// Reads before write-back are served from memory.
		for i, ptr := range ptrs {
			v, err := m.ReadValue(r, ptr, []byte(fmt.Sprintf("key%04d", i)))
			if err != nil || len(v) != 200+i || v[0] != byte('a'+i%26) {
				t.Fatalf("mem read %d: len=%d err=%v", i, len(v), err)
			}
		}
		if err := m.Sync(r); err != nil {
			t.Fatalf("sync: %v", err)
		}
		// ... and after from the file system.
		for i, ptr := range ptrs {
			v, err := m.ReadValue(r, ptr, []byte(fmt.Sprintf("key%04d", i)))
			if err != nil || len(v) != 200+i {
				t.Fatalf("fs read %d: len=%d err=%v", i, len(v), err)
			}
		}
	})
	clk.Wait()
}

func TestVLogRotationDiscardPickPunch(t *testing.T) {
	clk := vclock.New()
	fsys := fs.New(&slowDev{pageSize: 4096, pages: 1 << 18})
	m := Open(clk, fsys, Options{SegmentSize: 8 << 10, ChunkSize: 2 << 10, QueueDepth: 8})
	clk.Go("test", func(r *vclock.Runner) {
		defer m.Close()
		var ptrs []encoding.ValuePointer
		for i := 0; i < 200; i++ {
			ptr, err := m.Append(r, []byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte{'v'}, 256))
			if err != nil {
				t.Fatalf("append: %v", err)
			}
			ptrs = append(ptrs, ptr)
		}
		if err := m.Sync(r); err != nil {
			t.Fatalf("sync: %v", err)
		}
		st := m.Stats()
		if st.Segments < 3 {
			t.Fatalf("expected rotation into >=3 segments, got %d", st.Segments)
		}
		if _, ok := m.PickGC(0.5); ok {
			t.Fatal("PickGC found a candidate with no discard reported")
		}
		// Kill every record of the tail segment.
		tail := st.TailSeg
		for _, ptr := range ptrs {
			if ptr.Seg == tail {
				m.MarkDiscard(tail, int64(ptr.Len))
			}
		}
		seg, ok := m.PickGC(0.5)
		if !ok || seg != tail {
			t.Fatalf("PickGC = %d,%v; want %d,true", seg, ok, tail)
		}
		// Entries decode in append order with self-consistent pointers.
		entries, err := m.SegmentEntries(r, tail)
		if err != nil || len(entries) == 0 {
			t.Fatalf("SegmentEntries: n=%d err=%v", len(entries), err)
		}
		for _, e := range entries {
			v, rerr := m.ReadValue(r, e.Ptr, e.Key)
			if rerr != nil || !bytes.Equal(v, e.Value) {
				t.Fatalf("entry re-read mismatch: %v", rerr)
			}
		}
		m.MarkDead(tail)
		if seg, ok := m.PickGC(0.5); ok && seg == tail {
			t.Fatal("dead segment still a GC candidate")
		}
		if n := m.Punch(r, tail); n == 0 {
			t.Fatal("punch reclaimed nothing")
		}
		if _, err := m.ReadValue(r, entries[0].Ptr, entries[0].Key); err != ErrSegmentGone {
			t.Fatalf("read after punch = %v; want ErrSegmentGone", err)
		}
		if fsys.Exists(SegmentName(tail)) {
			t.Fatal("punched segment file still exists")
		}
	})
	clk.Wait()
}

// TestVLogTornTailRecoversLongestCheckedPrefix is the value log's
// torn-tail property test, the mirror of the WAL's: across seeds, append
// records of seeded sizes, Sync, keep appending, cut the device
// mid-stream, apply crash semantics (torn fragment + corrupted byte),
// and Recover. Every Sync-covered record must read back intact; no
// recovered segment may surface bytes that were never appended; and
// across all seeds at least one tail must actually tear.
func TestVLogTornTailRecoversLongestCheckedPrefix(t *testing.T) {
	totalLost := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plan := faults.NewPlan(seed)
		clk := vclock.New()
		dev := &cuttableDev{slowDev: slowDev{pageSize: 4096, pages: 1 << 16, perPage: time.Microsecond}}
		fsys := fs.New(dev)
		m := Open(clk, fsys, Options{
			SegmentSize: int64(2<<10 + rng.Intn(8<<10)),
			ChunkSize:   64 + rng.Intn(400),
			QueueDepth:  4,
		})

		type rec struct {
			key string
			val string
			ptr encoding.ValuePointer
		}
		var appended []rec
		synced := 0
		clk.Go("writer", func(r *vclock.Runner) {
			n := 40 + rng.Intn(160)
			cutAt := rng.Intn(n)
			for i := 0; i < n; i++ {
				if i == cutAt {
					if err := m.Sync(r); err != nil {
						t.Errorf("seed %d: pre-cut Sync: %v", seed, err)
						break
					}
					synced = len(appended)
					dev.cut = true
				}
				k := fmt.Sprintf("key#%03d", i)
				v := fmt.Sprintf("val#%03d#%s", i, strings.Repeat("p", rng.Intn(300)))
				ptr, err := m.Append(r, []byte(k), []byte(v))
				if err != nil {
					break // sticky writeback failure after the cut
				}
				appended = append(appended, rec{key: k, val: v, ptr: ptr})
			}
			m.Close()
		})
		clk.Wait()

		fsys.Crash(plan)
		dev.cut = false // power restored; Recover may truncate torn tails

		rclk := vclock.New()
		rclk.Go("recoverer", func(r *vclock.Runner) {
			m2, err := Recover(r, rclk, fsys, Options{SegmentSize: 8 << 20, ChunkSize: 64 << 10, QueueDepth: 4}, ManifestState{})
			if err != nil {
				t.Errorf("seed %d: Recover: %v", seed, err)
				return
			}
			defer m2.Close()
			// Every Sync-covered record must read back exactly.
			for i := 0; i < synced; i++ {
				v, rerr := m2.ReadValue(r, appended[i].ptr, []byte(appended[i].key))
				if rerr != nil || string(v) != appended[i].val {
					t.Errorf("seed %d: synced record %d lost or corrupt: %v", seed, i, rerr)
					return
				}
			}
			// Whatever survives must be exactly what was appended there.
			survived := 0
			for _, a := range appended {
				v, rerr := m2.ReadValue(r, a.ptr, []byte(a.key))
				if rerr == nil {
					if string(v) != a.val {
						t.Errorf("seed %d: record at %v surfaced wrong bytes", seed, a.ptr)
						return
					}
					survived++
				}
			}
			totalLost += len(appended) - survived
		})
		rclk.Wait()
	}
	if totalLost == 0 {
		t.Error("no seed ever lost an unsynced tail record; the torn-tail path was never exercised")
	}
}

// Recovery must honor the manifest's NextSeg allocator even when the
// newest segments' files were entirely lost, so a restart never reuses a
// punched or torn-away segment id for new data.
func TestVLogRecoverHonorsNextSeg(t *testing.T) {
	clk := vclock.New()
	fsys := fs.New(&slowDev{pageSize: 4096, pages: 1 << 16})
	clk.Go("test", func(r *vclock.Runner) {
		m, err := Recover(r, clk, fsys, Options{SegmentSize: 4 << 10, ChunkSize: 64 << 10, QueueDepth: 32}, ManifestState{NextSeg: 7})
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		defer m.Close()
		ptr, err := m.Append(r, []byte("k"), []byte("v"))
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if ptr.Seg != 7 {
			t.Fatalf("first post-recovery segment = %d; want 7", ptr.Seg)
		}
	})
	clk.Wait()
}

// TestOpenRejectsZeroSizes: Open and Recover use exactly the sizes and
// depth they are given, so a zero one panics with the field's name.
func TestOpenRejectsZeroSizes(t *testing.T) {
	for _, c := range []struct {
		field string
		opt   Options
	}{
		{"SegmentSize", Options{ChunkSize: 4 << 10, QueueDepth: 8}},
		{"ChunkSize", Options{SegmentSize: 1 << 20, QueueDepth: 8}},
		{"QueueDepth", Options{SegmentSize: 1 << 20, ChunkSize: 4 << 10}},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.field) {
					t.Errorf("Open with zero %s panicked with %q, want the field's name", c.field, msg)
				}
			}()
			Open(vclock.New(), fs.New(&slowDev{pageSize: 4096, pages: 1 << 10}), c.opt)
		}()
	}
}
