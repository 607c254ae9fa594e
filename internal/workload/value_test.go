package workload

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// TestMakeValueMatchesSprintf pins MakeValue byte for byte to the
// fmt.Sprintf("%016x") pattern it was built from, which is also what the
// benchmark's value check compares against: every length around the
// 16-byte pattern and its doublings, and key numbers whose hash has
// leading zero digits or is negative as an int.
func TestMakeValueMatchesSprintf(t *testing.T) {
	for _, n := range []int{0, 1, 2, 299_999, 5, math.MaxInt32, math.MaxInt64, -1} {
		pattern := fmt.Sprintf("%016x", uint64(n)*0x9e3779b97f4a7c15)
		for _, size := range []int{0, 1, 15, 16, 17, 31, 32, 33, 100, 128, 1000, 4096, 4097} {
			want := make([]byte, size)
			for i := range want {
				want[i] = pattern[i%16]
			}
			if got := MakeValue(n, size); !bytes.Equal(got, want) {
				t.Fatalf("MakeValue(%d, %d) = %q, want %q", n, size, got, want)
			}
		}
	}
}

// TestScratchMatchesKeyAndMakeValue: the generators' reused buffers carry
// exactly what Key and MakeValue would have allocated, whatever the
// buffer held before (a longer value, another key).
func TestScratchMatchesKeyAndMakeValue(t *testing.T) {
	var buf scratch
	for _, c := range []struct{ n, size int }{{7, 4096}, {123456, 128}, {0, 16}, {299_999, 4096}, {3, 0}, {9, 5000}} {
		if got, want := buf.key(c.n), Key(c.n); !bytes.Equal(got, want) {
			t.Errorf("scratch key %d = %q, want %q", c.n, got, want)
		}
		if got, want := buf.value(c.n, c.size), MakeValue(c.n, c.size); !bytes.Equal(got, want) {
			t.Errorf("scratch value (%d, %d) differs from MakeValue", c.n, c.size)
		}
	}
	n := testing.AllocsPerRun(100, func() {
		buf.key(42)
		buf.value(42, 4096)
	})
	if n != 0 {
		t.Errorf("a warm scratch buffer made %v allocations per request, want 0", n)
	}
}
