package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unsafe"

	"kvaccel/internal/encoding"
	"kvaccel/internal/faults"
	"kvaccel/internal/fold"
	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
)

// slowDev spends fixed time per page to exercise backpressure.
type slowDev struct {
	pageSize int
	pages    int
	perPage  time.Duration
}

func (d *slowDev) WritePages(r *vclock.Runner, lpns []int) error {
	r.Sleep(time.Duration(len(lpns)) * d.perPage)
	return nil
}
func (d *slowDev) ReadPages(r *vclock.Runner, lpns []int) error {
	r.Sleep(time.Duration(len(lpns)) * d.perPage)
	return nil
}
func (d *slowDev) TrimPages(r *vclock.Runner, lpns []int) error { return nil }
func (d *slowDev) PageSize() int                                { return d.pageSize }
func (d *slowDev) Pages() int                                   { return d.pages }

// appendBytes appends p as one record, the way a caller with a finished
// payload would.
func appendBytes(l *Log, r *vclock.Runner, p []byte) error {
	_, err := l.Append(r, len(p), func(dst []byte) []byte { return append(dst, p...) })
	return err
}

func newEnv(perPage time.Duration) (*vclock.Clock, *fs.FileSystem) {
	clk := vclock.New()
	fsys := fs.New(&slowDev{pageSize: 4096, pages: 10000, perPage: perPage})
	return clk, fsys
}

func TestAppendSyncReplay(t *testing.T) {
	clk, fsys := newEnv(0)
	log := Open(clk, fsys, "wal-1", Options{ChunkSize: 128, QueueDepth: 4})
	want := make(map[string]bool)
	clk.Go("writer", func(r *vclock.Runner) {
		for i := 0; i < 100; i++ {
			p := fmt.Sprintf("record-%03d", i)
			if err := appendBytes(log, r, []byte(p)); err != nil {
				t.Errorf("append: %v", err)
			}
			want[p] = true
		}
		log.Sync(r)
		log.Close()

		var got []string
		if err := Replay(r, fsys, "wal-1", func(p []byte) error {
			got = append(got, string(p))
			return nil
		}); err != nil {
			t.Errorf("replay: %v", err)
		}
		if len(got) != 100 {
			t.Errorf("replayed %d records, want 100", len(got))
		}
		for i, p := range got {
			if p != fmt.Sprintf("record-%03d", i) {
				t.Errorf("record %d = %q out of order", i, p)
			}
		}
	})
	clk.Wait()
}

// TestAppendPayloadStaysPut: the payload Append returns is a view of the
// log whose bytes are never written again, whatever the log does next —
// more appends, chunk hand-offs, a record that outgrows the buffer (whose
// records so far are copied to a new one), Sync, Close, Delete — and its
// capacity ends with it, so an append to it cannot reach the next record.
func TestAppendPayloadStaysPut(t *testing.T) {
	clk, fsys := newEnv(0)
	log := Open(clk, fsys, "wal-views", Options{ChunkSize: 4096, QueueDepth: 4})
	var views, want [][]byte
	check := func(after string) {
		for i, v := range views {
			if !bytes.Equal(v, want[i]) {
				t.Errorf("after %s: payload %d changed", after, i)
				return
			}
		}
	}
	clk.Go("writer", func(r *vclock.Runner) {
		appendRec := func(n int) {
			rec := bytes.Repeat([]byte{byte(len(views))}, n)
			p, err := log.Append(r, n, func(dst []byte) []byte { return append(dst, rec...) })
			if err != nil {
				t.Error(err)
				return
			}
			if cap(p) != len(p) {
				t.Errorf("payload %d: %d bytes with capacity %d", len(views), len(p), cap(p))
			}
			views, want = append(views, p), append(want, rec)
		}
		for i := 0; i < 40; i++ {
			appendRec(64 + 37*i%500) // several chunk hand-offs
		}
		check("later appends and chunk hand-offs")
		if err := log.Sync(r); err != nil {
			t.Error(err)
		}
		check("Sync")
		appendRec(64) // opens a buffer sized for a 64-byte record and a chunk
		appendRec(64)
		appendRec(4050) // outgrows it
		if n := len(views); !adjacent(views[n-3], views[n-2]) || adjacent(views[n-2], views[n-1]) {
			t.Error("the 4050-byte record fit the buffer; the regrow path was not taken")
		}
		appendRec(9000) // a chunk by itself
		check("a record outgrowing the buffer")
		appendRec(100)
		appendRec(200)
		log.Close()
		check("Close")
		log.Delete(r)
		check("Delete")
		_ = append(views[0], 0xff) // capacity clipped: lands in a new array
		check("an append to a payload")
	})
	clk.Wait()
}

// adjacent reports whether b's record follows a's in the same buffer,
// behind its 8-byte header.
func adjacent(a, b []byte) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(a)))+uintptr(len(a))+encoding.FrameHeader ==
		uintptr(unsafe.Pointer(unsafe.SliceData(b)))
}

func TestUnsyncedTailNotReplayed(t *testing.T) {
	clk, fsys := newEnv(0)
	log := Open(clk, fsys, "wal-2", Options{ChunkSize: 1 << 20, QueueDepth: 4})
	clk.Go("writer", func(r *vclock.Runner) {
		// Records smaller than the chunk never reach the device.
		_ = appendBytes(log, r, []byte("lost-on-crash"))
		log.Close() // crash: no Sync
		n := 0
		_ = Replay(r, fsys, "wal-2", func(p []byte) error { n++; return nil })
		if n != 0 {
			t.Errorf("replayed %d unsynced records, want 0", n)
		}
	})
	clk.Wait()
}

func TestReplayStopsAtCorruption(t *testing.T) {
	clk, fsys := newEnv(0)
	log := Open(clk, fsys, "wal-3", Options{ChunkSize: 16, QueueDepth: 4})
	clk.Go("writer", func(r *vclock.Runner) {
		_ = appendBytes(log, r, []byte("first-record-payload"))
		_ = appendBytes(log, r, []byte("second-record-payload"))
		log.Sync(r)
		log.Close()
		// Corrupt the second record's payload on "disk".
		data, _ := fsys.ReadFile(r, "wal-3")
		data[8+len("first-record-payload")+8+2] ^= 0xff
		_ = fsys.WriteFile(r, "wal-3", fold.Literal(data))
		var got []string
		_ = Replay(r, fsys, "wal-3", func(p []byte) error {
			got = append(got, string(p))
			return nil
		})
		if len(got) != 1 || got[0] != "first-record-payload" {
			t.Errorf("replay after corruption = %v, want only the first record", got)
		}
	})
	clk.Wait()
}

func TestBackpressureBoundsBuffering(t *testing.T) {
	// A slow device plus a tiny queue must slow the writer down to
	// device speed instead of buffering unboundedly.
	clk, fsys := newEnv(10 * time.Millisecond)
	log := Open(clk, fsys, "wal-4", Options{ChunkSize: 4096, QueueDepth: 2})
	var elapsed vclock.Time
	clk.Go("writer", func(r *vclock.Runner) {
		payload := make([]byte, 4096-8) // exactly one chunk per append
		for i := 0; i < 20; i++ {
			_ = appendBytes(log, r, payload)
		}
		log.Sync(r)
		elapsed = r.Now()
		log.Close()
	})
	clk.Wait()
	// 20 chunks x 1 page x 10ms, minus pipeline overlap: at least 150ms.
	if elapsed < vclock.Time(150*time.Millisecond) {
		t.Fatalf("writer finished in %v; backpressure absent", elapsed)
	}
	if log.BytesWritten() < 20*4000 {
		t.Fatalf("bytes written = %d, want >= 80000", log.BytesWritten())
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	clk, fsys := newEnv(0)
	log := Open(clk, fsys, "wal-5", Options{ChunkSize: 64 << 10, QueueDepth: 32})
	clk.Go("writer", func(r *vclock.Runner) {
		log.Close()
		if err := appendBytes(log, r, []byte("x")); err == nil {
			t.Error("append after close succeeded")
		}
	})
	clk.Wait()
}

func TestDeleteRemovesFile(t *testing.T) {
	clk, fsys := newEnv(0)
	log := Open(clk, fsys, "wal-6", Options{ChunkSize: 8, QueueDepth: 4})
	clk.Go("writer", func(r *vclock.Runner) {
		_ = appendBytes(log, r, []byte("payload"))
		log.Sync(r)
		log.Close()
		log.Delete(r)
		if fsys.Exists("wal-6") {
			t.Error("file still exists after Delete")
		}
		log.Delete(r) // idempotent
	})
	clk.Wait()
}

func TestReplayMissingFileIsNoop(t *testing.T) {
	clk, fsys := newEnv(0)
	clk.Go("r", func(r *vclock.Runner) {
		if err := Replay(r, fsys, "nope", func([]byte) error { return nil }); err != nil {
			t.Errorf("replay of missing file: %v", err)
		}
	})
	clk.Wait()
}

// cuttableDev is a slowDev whose writes start failing once cut, like a
// power-cut device: the in-flight append errors, leaving a torn tail.
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

// tornLog appends records of seeded sizes to "torn.log" in small chunks
// (so records straddle chunk boundaries), Syncs at a seeded point, cuts
// the device there and keeps appending, then applies crash semantics
// with a seeded torn fragment and bit flip. It returns the file system,
// every record appended, and how many of them the nil Sync covered.
func tornLog(tb testing.TB, seed int64) (fsys *fs.FileSystem, appended []string, synced int) {
	rng := rand.New(rand.NewSource(seed))
	plan := faults.NewPlan(seed)
	clk := vclock.New()
	dev := &cuttableDev{slowDev: slowDev{pageSize: 4096, pages: 10000, perPage: time.Microsecond}}
	fsys = fs.New(dev)
	log := Open(clk, fsys, "torn.log", Options{ChunkSize: 64 + rng.Intn(200), QueueDepth: 4})
	clk.Go("writer", func(r *vclock.Runner) {
		n := 40 + rng.Intn(160)
		cutAt := rng.Intn(n)
		for i := 0; i < n; i++ {
			if i == cutAt {
				if err := log.Sync(r); err != nil {
					tb.Errorf("seed %d: pre-cut Sync: %v", seed, err)
					break
				}
				synced = len(appended)
				dev.cut = true
			}
			rec := fmt.Sprintf("rec#%03d#%s", i, strings.Repeat("p", rng.Intn(300)))
			if err := appendBytes(log, r, []byte(rec)); err != nil {
				break // sticky writeback failure after the cut
			}
			appended = append(appended, rec)
		}
		log.Close()
	})
	clk.Wait()
	fsys.Crash(plan)
	return fsys, appended, synced
}

// TestTornTailRecoversLongestCheckedPrefix is the torn-tail property
// test: across seeds, cut a log mid-stream (tornLog). Checked replay
// must return a prefix of the appended records that includes everything
// the nil Sync covered — the longest prefix the checksums admit — and
// must never surface a record that was not appended. Aggregated across
// seeds, at least one torn tail must actually truncate records, or the
// test proves nothing.
func TestTornTailRecoversLongestCheckedPrefix(t *testing.T) {
	totalLost := 0
	for seed := int64(1); seed <= 20; seed++ {
		fsys, appended, synced := tornLog(t, seed)
		rclk := vclock.New()
		rclk.Go("replayer", func(r *vclock.Runner) {
			var got []string
			if err := Replay(r, fsys, "torn.log", func(p []byte) error {
				got = append(got, string(p))
				return nil
			}); err != nil {
				t.Errorf("seed %d: replay: %v", seed, err)
				return
			}
			if len(got) < synced {
				t.Errorf("seed %d: replay returned %d records, but %d were Sync-covered", seed, len(got), synced)
			}
			if len(got) > len(appended) {
				t.Errorf("seed %d: replay returned %d records, only %d appended", seed, len(got), len(appended))
				return
			}
			for i, g := range got {
				if g != appended[i] {
					t.Errorf("seed %d: record %d = %q, want %q (not a prefix)", seed, i, g, appended[i])
					return
				}
			}
			totalLost += len(appended) - len(got)
		})
		rclk.Wait()
	}
	if totalLost == 0 {
		t.Error("no seed ever lost an unsynced tail record; the torn-tail path was never exercised")
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checkedPrefix is the reference framing: the payloads of the longest
// prefix of data whose records' lengths fit and whose CRC32Cs match.
func checkedPrefix(data []byte) [][]byte {
	var out [][]byte
	for off := 0; len(data)-off >= 8; {
		n := uint64(binary.LittleEndian.Uint32(data[off:]))
		if n > uint64(len(data)-off-8) {
			break
		}
		p := data[off+8 : off+8+int(n)]
		if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		out = append(out, p)
		off += 8 + int(n)
	}
	return out
}

// FuzzReplay writes the fuzzed bytes as a log file and replays it: the
// payloads must be exactly those of the longest prefix whose lengths and
// checksums check, each a view whose capacity ends with it (an append to
// one must not reach the next record), and nothing may panic. The corpus
// is TestTornTailRecoversLongestCheckedPrefix's crashed logs.
func FuzzReplay(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		fsys, _, _ := tornLog(f, seed)
		if data, err := fsys.MediaRead("torn.log"); err == nil {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := checkedPrefix(data)
		clk, fsys := newEnv(0)
		clk.Go("replayer", func(r *vclock.Runner) {
			if err := fsys.WriteFile(r, "fuzz.log", fold.Literal(data)); err != nil {
				t.Error(err)
				return
			}
			var got [][]byte
			err := Replay(r, fsys, "fuzz.log", func(p []byte) error {
				if cap(p) != len(p) {
					t.Errorf("payload %d: %d bytes with capacity %d", len(got), len(p), cap(p))
				}
				got = append(got, p)
				return nil
			})
			if err != nil {
				t.Errorf("replay: %v", err)
			}
			if len(got) != len(want) {
				t.Errorf("replayed %d records, the checked prefix holds %d", len(got), len(want))
				return
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("record %d = %x, want %x", i, got[i], want[i])
					return
				}
			}
		})
		clk.Wait()
	})
}

// TestOpenRejectsZeroSizes: Open uses exactly the chunk size and queue
// depth it is given, so a zero one panics with the field's name.
func TestOpenRejectsZeroSizes(t *testing.T) {
	for _, c := range []struct {
		field string
		opt   Options
	}{
		{"ChunkSize", Options{QueueDepth: 4}},
		{"QueueDepth", Options{ChunkSize: 4096}},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.field) {
					t.Errorf("Open with zero %s panicked with %q, want the field's name", c.field, msg)
				}
			}()
			clk, fsys := newEnv(0)
			Open(clk, fsys, "wal-zero", c.opt)
		}()
	}
}
