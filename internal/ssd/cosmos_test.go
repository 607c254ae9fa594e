package ssd_test

import (
	"testing"

	"kvaccel/internal/machine"
	"kvaccel/internal/ssd"
	"kvaccel/internal/vclock"
)

// TestCosmosConfigScaling: CosmosConfig is the real board's ~630 MB/s,
// and the scale-10 machine programs a tenth of it.
func TestCosmosConfigScaling(t *testing.T) {
	b1 := ssd.New(vclock.New(), ssd.CosmosConfig()).Array.SustainedProgramMBps()
	b10 := ssd.New(vclock.New(), machine.DeviceConfig(10)).Array.SustainedProgramMBps()
	if b1 < 600 || b1 > 700 {
		t.Fatalf("scale 1 bandwidth = %.0f, want ~630", b1)
	}
	if ratio := b1 / b10; ratio < 9 || ratio > 11 {
		t.Fatalf("scale 10 bandwidth ratio = %.1f, want ~10", ratio)
	}
}
