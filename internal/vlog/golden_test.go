package vlog

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"kvaccel/internal/fs"
	"kvaccel/internal/vclock"
)

// goldenSegmentSHA256 is the digest of the segment files a fixed run of
// appends writes (goldenSegments). The frame format is on-media: a change
// here means recovery would misread segments an older build wrote.
const goldenSegmentSHA256 = "9fc1a4b47d086280028a3ca3cbc8d6b011c237772235e67eb641fcd5ac76ab37"

// goldenSegments appends a fixed run of records — short and long keys,
// empty and multi-chunk values — to a log small enough to rotate, syncs
// it, and returns each segment file's name and bytes in id order.
func goldenSegments(t *testing.T) (names []string, files [][]byte) {
	t.Helper()
	clk := vclock.New()
	fsys := fs.New(&slowDev{pageSize: 4096, pages: 1 << 14})
	m := Open(clk, fsys, Options{SegmentSize: 8 << 10, ChunkSize: 1 << 10, QueueDepth: 4})
	clk.Go("golden", func(r *vclock.Runner) {
		defer m.Close()
		for i := 0; i < 40; i++ {
			key := []byte(fmt.Sprintf("golden-key-%0*d", 1+i%9, i))
			value := make([]byte, (i*97)%700)
			for j := range value {
				value[j] = byte(i*31 + j*7)
			}
			if _, err := m.Append(r, key, value); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
		if err := m.Sync(r); err != nil {
			t.Error(err)
			return
		}
		for id := uint32(1); ; id++ {
			name := SegmentName(id)
			if !fsys.Exists(name) {
				break
			}
			data, err := fsys.ReadFile(r, name)
			if err != nil {
				t.Error(err)
				return
			}
			names = append(names, name)
			files = append(files, data)
		}
	})
	clk.Wait()
	return names, files
}

// TestGoldenSegmentBytes pins the value-log frame (u32 length, u32
// CRC32C, uvarint key length, key, value) and head rotation to a digest
// of the segments a fixed run writes.
func TestGoldenSegmentBytes(t *testing.T) {
	names, files := goldenSegments(t)
	if len(files) < 2 {
		t.Fatalf("the run wrote %d segments; it must rotate at least once", len(files))
	}
	h := sha256.New()
	for i, data := range files {
		fmt.Fprintf(h, "%s %d\n", names[i], len(data))
		h.Write(data)
		if valid := scanValidSize(data); valid != int64(len(data)) {
			t.Errorf("%s: %d of %d bytes scan as checked frames", names[i], valid, len(data))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSegmentSHA256 {
		t.Errorf("segment digest %s, want %s", got, goldenSegmentSHA256)
	}
}
