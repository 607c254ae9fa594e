package harness

import (
	"testing"

	"kvaccel/internal/workload"
)

// TestZeroWriteBuckets counts the buckets of a synthetic write series
// that completed no write, wherever they fall.
func TestZeroWriteBuckets(t *testing.T) {
	res := &RunResult{Rec: workload.NewRecorder("synthetic")}
	if n := res.ZeroWriteBuckets(); n != 0 {
		t.Fatalf("an empty series has %d zero-write buckets", n)
	}
	for i, kops := range []float64{0, 3.2, 0, 0, 0.001, 7, 0} {
		res.Rec.WriteSeries.Append(float64(i), kops)
	}
	if n := res.ZeroWriteBuckets(); n != 4 {
		t.Errorf("%d zero-write buckets, want 4 (the first, two in the middle, the last)", n)
	}
}
