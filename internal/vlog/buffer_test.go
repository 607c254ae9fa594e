package vlog

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"kvaccel/internal/encoding"
	"kvaccel/internal/faults"
	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
)

// raceEnabled is set by race_test.go when the race detector is on: its
// instrumentation allocates, so allocation counts mean nothing.
var raceEnabled bool

// benchOptions is the benchmark testbed's value log: 6.4 MB segments
// written back in 256 KiB chunks.
var benchOptions = Options{SegmentSize: 6400 << 10, ChunkSize: 256 << 10, QueueDepth: 512}

// TestAllocsAppendVolume: a segment is encoded into one buffer that then
// becomes its file, so 64 MiB of 4 KiB values through Append and Sync
// allocates little more than those bytes once. Growing the buffer from
// nothing, joining the chunks for write-back and copying them into the
// file allocated twelve times that.
func TestAllocsAppendVolume(t *testing.T) {
	clk := vclock.New()
	fsys := fs.New(&slowDev{pageSize: 4096, pages: 1 << 16})
	m := Open(clk, fsys, benchOptions)
	value := make([]byte, 4096)
	clk.Go("writer", func(r *vclock.Runner) {
		defer m.Close()
		key := []byte("key-000000000000")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 64<<20/len(value); i++ {
			if _, err := m.Append(r, key, value); err != nil {
				t.Error(err)
				return
			}
		}
		if err := m.Sync(r); err != nil {
			t.Error(err)
		}
		runtime.ReadMemStats(&after)
		got, appended := after.TotalAlloc-before.TotalAlloc, m.Stats().BytesAppended
		t.Logf("%d bytes allocated appending %d (%.3fx)", got, appended, float64(got)/float64(appended))
		if float64(got) > 1.25*float64(appended) {
			t.Errorf("appending %d bytes allocated %d, want at most 1.25x", appended, got)
		}
	})
	clk.Wait()
}

// BenchmarkAppend appends 4 KiB values with the benchmark testbed's
// segment and chunk sizes over a zero-latency device, write-back running
// beside it; sealed segments are punched once there are eight, as GC
// would, so the file system stays small.
func BenchmarkAppend(b *testing.B) {
	clk := vclock.New()
	fsys := fs.New(&slowDev{pageSize: 4096, pages: 1 << 16})
	m := Open(clk, fsys, benchOptions)
	key, value := []byte("key-000000000000"), make([]byte, 4096)
	b.ReportAllocs()
	b.SetBytes(int64(encoding.FrameHeader + encRecordSize(key, value)))
	clk.Go("writer", func(r *vclock.Runner) {
		defer m.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ptr, err := m.Append(r, key, value)
			if err != nil {
				b.Error(err)
				return
			}
			if ptr.Off == 0 && ptr.Seg > 8 {
				if err := m.Sync(r); err != nil {
					b.Error(err)
					return
				}
				m.Punch(r, ptr.Seg-8)
			}
		}
	})
	clk.Wait()
}

// TestAllocsReadValue: a frame is parsed where it lies — in the head
// segment's buffer, or in the file system's view of a durable segment —
// and the value handed out is a view of it, so a dereference allocates
// nothing on either path.
func TestAllocsReadValue(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	clk := vclock.New()
	fsys := fs.New(&slowDev{pageSize: 4096, pages: 1 << 16})
	m := Open(clk, fsys, benchOptions)
	clk.Go("reader", func(r *vclock.Runner) {
		defer m.Close()
		key, value := []byte("key-000000000000"), make([]byte, 4096)
		// Two segments and a bit: the first two are sealed and written back,
		// the third is the head.
		var durable, head encoding.ValuePointer
		for i := 0; i < 2*int(benchOptions.SegmentSize)/len(value)+8; i++ {
			ptr, err := m.Append(r, key, value)
			if err != nil {
				t.Error(err)
				return
			}
			if i == 0 {
				durable = ptr
			}
			head = ptr
		}
		if err := m.Sync(r); err != nil {
			t.Error(err)
			return
		}
		paths := m.segs[durable.Seg].mem == nil && m.segs[head.Seg].mem != nil
		if !paths {
			t.Fatal("the pointers no longer cover both the file and the head buffer")
		}
		for _, tc := range []struct {
			name string
			ptr  encoding.ValuePointer
		}{{"durable", durable}, {"head", head}} {
			read := func() {
				if v, err := m.ReadValue(r, tc.ptr, key); err != nil || len(v) != len(value) {
					t.Fatalf("%s read: %d bytes, %v", tc.name, len(v), err)
				}
			}
			read() // the first read of a durable page pays the device
			if n := testing.AllocsPerRun(100, read); n != 0 {
				t.Errorf("%v allocations per ReadValue from the %s segment, want 0", n, tc.name)
			}
		}
	})
	clk.Wait()
}

// frame is one record as Append lays it out.
func frame(key, value string) []byte {
	payload := appendRecord(nil, []byte(key), []byte(value))
	b := encoding.PutU32(nil, uint32(len(payload)))
	b = encoding.PutU32(b, encoding.Checksum(payload))
	return append(b, payload...)
}

// FuzzScanValidSize: recovery scans whatever a power cut left of a
// segment. Any input yields a prefix no longer than the input, made of
// whole checksummed frames — scanning it again keeps all of it — and
// nothing panics. The seeds are the torn-tail test's records, whole and
// torn the way fs.Crash tears them: cut short, one bit flipped.
func FuzzScanValidSize(f *testing.F) {
	var img []byte
	for i := 0; i < 6; i++ {
		img = append(img, frame(fmt.Sprintf("key#%03d", i), fmt.Sprintf("val#%03d#%s", i, strings.Repeat("p", 37*i)))...)
	}
	f.Add(img)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1}) // a length no file backs
	for seed := int64(1); seed <= 6; seed++ {
		plan := faults.NewPlan(seed)
		torn := append([]byte(nil), img[:plan.TornLength(len(img))]...)
		plan.CorruptByte(torn[len(torn)/2:])
		f.Add(torn)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		valid := scanValidSize(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d of %d bytes", valid, len(data))
		}
		if again := scanValidSize(data[:valid]); again != valid {
			t.Fatalf("the %d-byte valid prefix scans as %d", valid, again)
		}
		for off := int64(0); off < valid; {
			length, rest, _ := encoding.U32(data[off:])
			crc, rest, _ := encoding.U32(rest)
			end := off + encoding.FrameHeader + int64(length)
			if end > valid || encoding.Checksum(rest[:length]) != crc {
				t.Fatalf("frame at %d of the valid prefix %d is cut short or fails its checksum", off, valid)
			}
			off = end
		}
	})
}
