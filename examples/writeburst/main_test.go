package main

import (
	"io"
	"testing"
	"time"
)

// TestBurstRedirectsInsteadOfStalling runs the burst for one virtual
// second each way: with redirection the Main-LSM's stalls turn into
// redirected puts, and without it the same burst stalls.
func TestBurstRedirectsInsteadOfStalling(t *testing.T) {
	if s := burst(io.Discard, true, time.Second); s.KVAccel.RedirectedPuts == 0 {
		t.Errorf("no put was redirected with redirection on: %+v", s.KVAccel)
	}
	if s := burst(io.Discard, false, time.Second); s.Main.TotalStalls() == 0 {
		t.Errorf("no write stalled with redirection off: %v", s.Main)
	}
}
