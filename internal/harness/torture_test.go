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
// must surface at least one violation across a handful of seeds. If this
// test fails, the torture suite is not actually checking anything.
func TestTortureBrokenRecoveryCaught(t *testing.T) {
	// Whether a seed's cut tears a record that replay then admits depends
	// on where its cuts land. A seed decides that on every run: 9 of these
	// 24 catch it (2, 4, 5, 7, 13, 17, 21, 22 and 23), 4 of the 12 -short
	// keeps.
	seeds := make([]int64, 24)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if testing.Short() {
		seeds = seeds[:12]
	}
	var caught int
	for _, seed := range seeds {
		p := DefaultTortureParams(seed)
		p.BrokenRecovery = true
		p.FaultRules = false // isolate the torn-tail handling
		rep := RunTorture(p)
		if len(rep.Violations) > 0 {
			caught++
			t.Logf("seed %d: broken recovery caught: %s", seed, rep.Violations[0])
		}
	}
	if caught == 0 {
		t.Fatal("unchecked WAL replay produced no oracle violations across all seeds; the oracle is blind")
	}
}

// TestOffloadTortureCrashRecovery is the offload acceptance run: the
// same 10 seeds × 5 cuts with every eligible L0→L1 merge forced onto
// the device, and the seeded cut-stage pool extended with the offload
// protocol's two crash windows — after the device merge completes but
// before any output is adopted, and after adoption + validation but
// before the manifest install. The oracle must stay silent: an
// uninstalled device merge is invisible (reservations die with the
// crash, orphan outputs are swept by reopen), so no cut placement may
// lose an acknowledged write or surface a phantom.
func TestOffloadTortureCrashRecovery(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() {
		seeds = seeds[:3]
	}
	var acked, offloaded, fallbacks int64
	for _, seed := range seeds {
		p := DefaultTortureParams(seed)
		p.Offload = true
		// Value separation makes compactions ineligible for offload; keep
		// values inline so the device merges (and their cut stages) fire.
		p.ValueThreshold = 0
		p.Logf = t.Logf
		rep := RunTorture(p)
		for _, v := range rep.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
		if rep.Phases != p.Cuts+1 {
			t.Errorf("seed %d: ran %d phases, want %d", seed, rep.Phases, p.Cuts+1)
		}
		acked += rep.Acked
		offloaded += rep.Offloaded
		fallbacks += rep.OffloadFallbacks
	}
	// A pass without device merges would be vacuous; fallbacks are
	// expected (severed-device validation failures) but not required.
	if offloaded == 0 {
		t.Error("no compaction was ever offloaded to the device")
	}
	t.Logf("total: acked=%d offloaded=%d fallbacks=%d", acked, offloaded, fallbacks)
}
