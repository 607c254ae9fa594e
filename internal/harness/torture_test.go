package harness

import "testing"

// TestTortureCrashRecovery is the acceptance run: 10 seeds × 5 power
// cuts = 50 seeded cut/recover cycles, each phase verified against the
// durability oracle. -short trims the seed count for the CI smoke job.
func TestTortureCrashRecovery(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() {
		seeds = seeds[:3]
	}
	var acked, redirected, barriers, injected, retries int64
	for _, seed := range seeds {
		p := DefaultTortureParams(seed)
		p.Logf = t.Logf
		rep := RunTorture(p)
		for _, v := range rep.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
		if rep.Phases != p.Cuts+1 {
			t.Errorf("seed %d: ran %d phases, want %d", seed, rep.Phases, p.Cuts+1)
		}
		if rep.Acked == 0 {
			t.Errorf("seed %d: workload acknowledged nothing", seed)
		}
		acked += rep.Acked
		redirected += rep.Redirected
		barriers += rep.Barriers
		injected += rep.Injected
		retries += rep.KVStats.DevRetries
	}
	// The suite must actually exercise both write paths, the barrier
	// machinery, and the injector — a pass with zero redirects or zero
	// injected faults would be vacuous.
	if redirected == 0 {
		t.Error("no write was ever redirected to the Dev-LSM")
	}
	if barriers == 0 {
		t.Error("no Flush barrier ever succeeded")
	}
	if injected == 0 {
		t.Error("the fault plan never injected anything")
	}
	if retries == 0 {
		t.Error("the controller never retried a faulted device command")
	}
	t.Logf("total: acked=%d redirected=%d barriers=%d injected=%d retries=%d",
		acked, redirected, barriers, injected, retries)
}

// TestTortureBrokenRecoveryCaught proves the oracle has teeth: replaying
// WALs without checksum verification (admitting torn, bit-flipped tails)
// must surface a violation. A seed decides where its cuts land, so one
// seed whose cut tears a record that replay then admits is enough. If
// this test fails, the torture suite is not actually checking anything.
func TestTortureBrokenRecoveryCaught(t *testing.T) {
	p := DefaultTortureParams(2)
	p.BrokenRecovery = true
	p.FaultRules = false // isolate the torn-tail handling
	rep := RunTorture(p)
	if len(rep.Violations) == 0 {
		t.Fatal("unchecked WAL replay produced no oracle violation; the oracle is blind")
	}
	t.Logf("broken recovery caught: %s", rep.Violations[0])
}
