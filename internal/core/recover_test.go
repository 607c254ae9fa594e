package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"kvaccel/internal/faults"
	"kvaccel/internal/fs"
	"kvaccel/internal/lsm"
	"kvaccel/internal/ssd"
	"kvaccel/internal/vclock"
)

// These tests pin down Recover's edge cases (§VI-D): a crash landing in
// the middle of a rollback drain, recovery with nothing buffered, and
// running Recover twice. The common thread is idempotence — the merge
// applies newest-version-wins semantics, so replaying pairs that were
// already drained (or draining them a second time) must never regress
// the store.

func rkey(i int) []byte { return []byte(fmt.Sprintf("rk%04d", i)) }
func rval(i int) []byte { return []byte(fmt.Sprintf("rv%04d-payload", i)) }

// TestRecoverAfterFaultedRollbackDrain injects a media error into the
// bulk-scan transfer so RollbackNow dies mid-drain: some pairs are
// already merged into the Main-LSM, the Reset never ran, and the device
// still holds everything. A crash at that instant (metadata lost) must
// recover completely: Recover replays all pairs — including the ones
// the dead rollback already merged — and converges to a clean state.
func TestRecoverAfterFaultedRollbackDrain(t *testing.T) {
	plan := faults.NewPlan(7)
	// The scan command itself succeeds; the second DMA transfer fails on
	// every attempt, killing the drain partway through.
	plan.AddRule(faults.Rule{Op: "KV_SCAN_XFER", Class: faults.MediaError, Every: 2})
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	clk, db, dev := newFaultStack(opt, plan)
	// ~4 KiB values so the drain spans several 128 KiB DMA chunks — the
	// faulted second transfer then lands mid-drain, after real merges.
	const n = 100
	bigval := func(i int) []byte {
		return append(bytes.Repeat([]byte{'v'}, 4096), rval(i)...)
	}
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		db.Detector().SetOverride(true)
		for i := 0; i < n; i++ {
			if red, err := db.PutEx(r, rkey(i), bigval(i)); err != nil || !red {
				t.Fatalf("redirected put %d: red=%v err=%v", i, red, err)
			}
		}
		db.Detector().SetOverride(false)

		if err := db.RollbackNow(r); err == nil {
			t.Fatal("RollbackNow succeeded despite the failing transfer")
		}
		if dev.KVRegionFull().KVEmpty() {
			t.Fatal("aborted rollback reset the device")
		}

		// Crash: the volatile metadata hash table is gone; the Dev-LSM
		// pairs survive. Clear the injected fault so recovery can run.
		db.SimulateCrash()
		plan2 := faults.NewPlan(8)
		dev.SetFaultPlan(plan2)

		if err := db.Recover(r); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if !dev.KVRegionFull().KVEmpty() {
			t.Error("Recover left pairs buffered on the device")
		}
		if c := db.Metadata().Count(); c != 0 {
			t.Errorf("metadata count = %d after Recover, want 0", c)
		}
		for i := 0; i < n; i++ {
			v, ok, err := db.Get(r, rkey(i))
			if err != nil || !ok || !bytes.Equal(v, bigval(i)) {
				t.Fatalf("key %d after Recover: ok=%v err=%v", i, ok, err)
			}
		}
	})
	clk.Wait()
	if s := db.Stats(); s.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", s.Recoveries)
	}
}

// TestRecoverEmptyDevLSM: recovery with nothing buffered must succeed
// as a no-op — the common case after a clean shutdown.
func TestRecoverEmptyDevLSM(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	clk, db, dev := newFaultStack(opt, nil)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		if err := db.Put(r, rkey(1), rval(1)); err != nil {
			t.Fatalf("put: %v", err)
		}
		if !dev.KVRegionFull().KVEmpty() {
			t.Fatal("normal-path put landed on the device")
		}
		if err := db.Recover(r); err != nil {
			t.Fatalf("Recover on empty Dev-LSM: %v", err)
		}
		v, ok, err := db.Get(r, rkey(1))
		if err != nil || !ok || !bytes.Equal(v, rval(1)) {
			t.Errorf("get after no-op Recover: ok=%v err=%v", ok, err)
		}
	})
	clk.Wait()
}

// TestDoubleRecoverIdempotent: a second Recover (e.g. a recovery retried
// by an unsure operator, or re-run after a crash mid-first-recovery)
// must be a harmless no-op: same values, still-empty device.
func TestDoubleRecoverIdempotent(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	clk, db, dev := newFaultStack(opt, nil)
	const n = 50
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		db.Detector().SetOverride(true)
		for i := 0; i < n; i++ {
			if red, err := db.PutEx(r, rkey(i), rval(i)); err != nil || !red {
				t.Fatalf("redirected put %d: red=%v err=%v", i, red, err)
			}
		}
		db.Detector().SetOverride(false)
		db.SimulateCrash()
		for pass := 1; pass <= 2; pass++ {
			if err := db.Recover(r); err != nil {
				t.Fatalf("Recover pass %d: %v", pass, err)
			}
			if !dev.KVRegionFull().KVEmpty() {
				t.Errorf("pass %d left pairs on the device", pass)
			}
			for i := 0; i < n; i++ {
				v, ok, err := db.Get(r, rkey(i))
				if err != nil || !ok || !bytes.Equal(v, rval(i)) {
					t.Fatalf("pass %d key %d: ok=%v err=%v val=%q", pass, i, ok, err, v)
				}
			}
		}
	})
	clk.Wait()
	if s := db.Stats(); s.Recoveries != 2 {
		t.Errorf("recoveries = %d, want 2", s.Recoveries)
	}
}

// failFirstWrite is a Main-LSM whose first batch commit fails, as a WAL
// append error fails one group commit and leaves the engine writable.
type failFirstWrite struct {
	MainEngine
	failed bool
}

func (m *failFirstWrite) WriteWith(r *vclock.Runner, wo lsm.WriteOptions, b *lsm.Batch) error {
	if !m.failed {
		m.failed = true
		return errors.New("injected merge failure")
	}
	return m.MainEngine.WriteWith(r, wo, b)
}

// TestFailedMergeKeepsRedirectedPairs: a rollback or recovery whose merge
// into the Main-LSM fails must report it and leave the device and the
// metadata alone, or the pairs of the failed batch are lost. Every value
// stays readable after the failure, and the next RollbackNow drains
// everything.
func TestFailedMergeKeepsRedirectedPairs(t *testing.T) {
	const n = 500 // two merge batches: the first fails
	for _, tc := range []struct {
		name  string
		drain func(db *DB, r *vclock.Runner) error
	}{
		{"rollback", (*DB).RollbackNow},
		{"recover", (*DB).Recover},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.Rollback = RollbackDisabled
			clk := vclock.New()
			dev := ssd.New(clk, testSSDConfig(4, 256<<20, 64<<20))
			main := &failFirstWrite{MainEngine: lsm.Open(clk, fs.New(dev.BlockNamespace(0, 0)), testLSMOptions())}
			db := Open(clk, main, dev.KVRegionFull(), opt)
			clk.Go("test", func(r *vclock.Runner) {
				defer db.Close()
				db.Detector().SetOverride(true)
				for i := 0; i < n; i++ {
					if red, err := db.PutEx(r, key(i), value(i)); err != nil || !red {
						t.Fatalf("redirected put %d: red=%v err=%v", i, red, err)
					}
				}
				db.Detector().SetOverride(false)
				readAll := func(when string) {
					for i := 0; i < n; i++ {
						v, ok, err := db.Get(r, key(i))
						if err != nil || !ok || !bytes.Equal(v, value(i)) {
							t.Fatalf("key %d %s: ok=%v err=%v", i, when, ok, err)
						}
					}
				}
				if err := tc.drain(db, r); err == nil {
					t.Fatalf("%s returned nil after its first merge failed", tc.name)
				}
				if dev.KVRegionFull().KVEmpty() {
					t.Fatalf("failed %s reset the device", tc.name)
				}
				readAll("after the failed " + tc.name)
				if err := db.RollbackNow(r); err != nil {
					t.Fatalf("RollbackNow after the failure: %v", err)
				}
				if !dev.KVRegionFull().KVEmpty() {
					t.Error("RollbackNow left pairs on the device")
				}
				if c := db.Metadata().Count(); c != 0 {
					t.Errorf("metadata count = %d after RollbackNow, want 0", c)
				}
				readAll("after RollbackNow")
			})
			clk.Wait()
			if s := db.Stats(); s.RollbackPairs != n {
				t.Errorf("rolled back %d pairs, want %d", s.RollbackPairs, n)
			}
		})
	}
}
