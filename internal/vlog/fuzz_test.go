package vlog

import (
	"bytes"
	"strings"
	"testing"

	"kvaccel/internal/encoding"
	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
)

// FuzzParseFrame: ReadValue parses whatever bytes a pointer reaches in a
// segment buffer or file, and a bad pointer or a torn write can make those
// anything. Any input parses to an error or to a key and value that are
// capacity-clipped views of the input, and framing that pair again parses
// back to it. Nothing panics. The seeds are frames Append wrote.
func FuzzParseFrame(f *testing.F) {
	clk := vclock.New()
	m := Open(clk, fs.New(&slowDev{pageSize: 4096, pages: 1 << 10}), Options{SegmentSize: 1 << 20, ChunkSize: 4 << 10, QueueDepth: 8})
	clk.Go("seed", func(r *vclock.Runner) {
		defer m.Close()
		for _, kv := range [][2]string{{"k", ""}, {"key-0001", "value"}, {"key#2", strings.Repeat("x", 300)}} {
			ptr, err := m.Append(r, []byte(kv[0]), []byte(kv[1]))
			if err != nil {
				f.Error(err)
				return
			}
			f.Add(append([]byte(nil), m.segs[ptr.Seg].mem[ptr.Off:ptr.Off+ptr.Len]...))
		}
	})
	clk.Wait()
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // a length no frame backs
	f.Fuzz(func(t *testing.T, data []byte) {
		key, value, err := parseFrame(data)
		if err != nil {
			return
		}
		if cap(key) != len(key) || cap(value) != len(value) {
			t.Fatalf("views not clipped: key %d/%d, value %d/%d (len/cap)", len(key), cap(key), len(value), cap(value))
		}
		if encoding.FrameHeader+len(key)+len(value) > len(data) {
			t.Fatalf("a %d-byte key and %d-byte value parsed from %d bytes", len(key), len(value), len(data))
		}
		k, v, err := parseFrame(frame(string(key), string(value)))
		if err != nil || !bytes.Equal(k, key) || !bytes.Equal(v, value) {
			t.Fatalf("(%q, %q) framed again parses as (%q, %q, %v)", key, value, k, v, err)
		}
	})
}
