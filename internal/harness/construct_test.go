package harness

import (
	"runtime"
	"testing"
)

// Building the default machine costs what a run touches, not what the
// device could hold (DESIGN.md, "What a machine costs before it runs"):
// of the tables that grow with the device, only the FTL's L2P tables
// (2.0 MB) and block records (0.9 MB) are built before a write reaches
// them. Materialised up front, the same machine took 16 558 allocations
// and 24.3 MB. The bytes bound is the 3.18 MB measured, plus 10 %.
const (
	newTestbedAllocs = 200
	newTestbedBytes  = 3_500_000
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
