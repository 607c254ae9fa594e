package harness

import (
	"runtime"
	"testing"
)

// Building the default machine costs what a run touches, not what the
// device could hold: no table grows with the device's 16 384 blocks or
// its page counts until a write reaches it (DESIGN.md, "What a machine
// costs before it runs"). Materialised up front, the same machine took
// 16 558 allocations and 24.3 MB.
const (
	newTestbedAllocs = 200
	newTestbedBytes  = 4 << 20
)

// TestAllocsNewTestbed holds DefaultParams().NewTestbed() to
// newTestbedAllocs allocations and newTestbedBytes bytes.
func TestAllocsNewTestbed(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	p := DefaultParams()
	p.NewTestbed() // package-level state, once
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		p.NewTestbed()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("NewTestbed: %d allocations, %.2f MB", allocs, float64(bytes)/1e6)
	if allocs > newTestbedAllocs || bytes > newTestbedBytes {
		t.Errorf("NewTestbed: %d allocations and %d bytes, want at most %d and %d", allocs, bytes, newTestbedAllocs, newTestbedBytes)
	}
}

// BenchmarkNewTestbed builds the default machine: the fixed cost of every
// run before its first operation.
func BenchmarkNewTestbed(b *testing.B) {
	p := DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.NewTestbed()
	}
}
