package main

import (
	"io"
	"testing"
	"time"

	"kvaccel"
)

// TestBothRollbackSchemesFinish runs workload C for one virtual second
// under each rollback scheme: both finish, and both serve reads and
// writes.
func TestBothRollbackSchemesFinish(t *testing.T) {
	for _, scheme := range []kvaccel.RollbackScheme{kvaccel.RollbackLazy, kvaccel.RollbackEager} {
		s := run(io.Discard, scheme, 0.2, time.Second)
		if s.KVAccel.NormalPuts+s.KVAccel.RedirectedPuts == 0 || s.KVAccel.Gets == 0 {
			t.Errorf("%s: puts %d+%d, gets %d", scheme, s.KVAccel.NormalPuts, s.KVAccel.RedirectedPuts, s.KVAccel.Gets)
		}
	}
}
