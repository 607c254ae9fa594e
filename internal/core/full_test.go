package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"kvaccel/internal/faults"
	"kvaccel/internal/fs"
	"kvaccel/internal/lsm"
	"kvaccel/internal/memtable"
	"kvaccel/internal/ssd"
	"kvaccel/internal/vclock"
)

// A full key-value region is a status, not a panic: with a 2 MiB region
// and 256 KiB Dev-LSM buffers, a redirected fill overruns the region. The
// device refuses the put its full buffer cannot flush, the controller
// takes the Main-LSM path from then on and asks for a drain, and every
// acknowledged write reads back: after the drain, and after a power cut
// at that boundary and a recovery.

func fullRegionStack(opt Options) (*vclock.Clock, *DB, *ssd.Device, *fs.FileSystem, lsm.Options) {
	clk := vclock.New()
	cfg := testSSDConfig(4, 256<<20, 2<<20)
	cfg.DevLSM.MemtableBytes = 256 << 10
	dev := ssd.New(clk, cfg)
	fsys := fs.New(dev.BlockNamespace(0, 0))
	lopt := testLSMOptions()
	return clk, Open(clk, lsm.Open(clk, fsys, lopt), dev.KVRegionFull(), opt), dev, fsys, lopt
}

// fillPastFull redirects puts of key(0), key(1), ... until the device
// refuses one, then puts 50 more, and returns how many it put. Every put
// must be acknowledged; the refused one and those after it take the
// Main-LSM path.
func fillPastFull(t *testing.T, r *vclock.Runner, db *DB, dev *ssd.Device) int {
	t.Helper()
	db.Detector().SetOverride(true)
	defer db.Detector().SetOverride(false)
	n, refusedAt := 0, -1
	for ; refusedAt < 0 || n < refusedAt+50; n++ {
		if n > 100000 {
			t.Fatal("the KV region never filled")
		}
		red, err := db.PutEx(r, key(n), value(n))
		if err != nil {
			t.Fatalf("put %d: %v", n, err)
		}
		if !red && refusedAt < 0 {
			refusedAt = n
		}
		if refusedAt >= 0 && red {
			t.Fatalf("put %d was redirected after the device refused put %d", n, refusedAt)
		}
	}
	if !dev.Dev.Full() {
		t.Fatal("the device refused a put but is not full")
	}
	if s := db.Stats(); s.DevFailed != 1 || s.RedirectedPuts != int64(refusedAt) {
		t.Errorf("dev-failed=%d redirected=%d, want 1 refused put after %d redirected", s.DevFailed, s.RedirectedPuts, refusedAt)
	}
	return n
}

func checkAll(t *testing.T, r *vclock.Runner, db *DB, n int, val func(i int) []byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		v, ok, err := db.Get(r, key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestFullRegionDrains: a lazy controller whose device filled drains it
// without waiting for the lazy scheme's quiet period, and the device
// redirects again afterwards.
func TestFullRegionDrains(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackLazy
	opt.DetectorPeriod = 2 * time.Millisecond
	clk, db, dev, _, _ := fullRegionStack(opt)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		n := fillPastFull(t, r, db, dev)
		checkAll(t, r, db, n, value)
		for i := 0; i < 1000 && db.Stats().Rollbacks == 0; i++ {
			r.Sleep(opt.DetectorPeriod)
		}
		if db.Stats().Rollbacks == 0 || dev.Dev.Full() || !dev.Dev.Empty() {
			t.Fatalf("rollbacks=%d full=%v empty=%v: the full device was not drained",
				db.Stats().Rollbacks, dev.Dev.Full(), dev.Dev.Empty())
		}
		checkAll(t, r, db, n, value)
		db.Detector().SetOverride(true)
		if red, err := db.PutEx(r, key(n), value(n)); err != nil || !red {
			t.Errorf("put after the drain: redirected=%v err=%v, want a redirect", red, err)
		}
		db.Detector().SetOverride(false)
	})
	clk.Wait()
}

// TestFullRegionSurvivesPowerCut: the device fills, redirected keys are
// overwritten on the Main-LSM path while it is full (their supersede
// markers must still land), a barrier makes those overwrites durable, and
// the power fails. Recovery replays the device, including the buffer the
// full region left unflushed, and every key reads back at its newest
// value.
func TestFullRegionSurvivesPowerCut(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	clk, db, dev, fsys, lopt := fullRegionStack(opt)
	newer := func(i int) []byte { return append([]byte("newer-"), value(i)...) }
	latest := func(i int) []byte {
		if i%7 == 0 {
			return newer(i)
		}
		return value(i)
	}
	var n int
	clk.Go("phase1", func(r *vclock.Runner) {
		n = fillPastFull(t, r, db, dev)
		for i := 0; i < n; i += 7 {
			if red, err := db.PutEx(r, key(i), newer(i)); err != nil || red {
				t.Fatalf("overwrite %d on a full device: redirected=%v err=%v", i, red, err)
			}
		}
		if err := db.Flush(r); err != nil {
			t.Fatalf("barrier: %v", err)
		}
		dev.Sever()
		db.Close()
	})
	clk.Wait()
	fsys.Crash(faults.NewPlan(1))

	clk2 := vclock.New()
	dev.Attach(clk2)
	clk2.Go("phase2", func(r *vclock.Runner) {
		main, err := lsm.Reopen(r, clk2, fsys, lopt)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		db2 := Open(clk2, main, dev.KVRegionFull(), opt)
		defer db2.Close()
		if !dev.Dev.Full() {
			t.Error("the device came back from the power cut not full")
		}
		if err := db2.Recover(r); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if dev.Dev.Full() || !dev.Dev.Empty() {
			t.Errorf("after Recover: full=%v empty=%v, want an empty device", dev.Dev.Full(), dev.Dev.Empty())
		}
		checkAll(t, r, db2, n, latest)
	})
	clk2.Wait()
}

// TestFullRegionRefusesCompoundWhole: a compound command sent to a full
// device is refused as one command, so none of it lands there, and the
// controller, which stopped redirecting at the first refusal, commits a
// batch on the Main-LSM path.
func TestFullRegionRefusesCompoundWhole(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	clk, db, dev, _, _ := fullRegionStack(opt)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		n := fillPastFull(t, r, db, dev)
		count := dev.Dev.Count()
		var b lsm.Batch
		for i := n; i < n+10; i++ {
			b.Put(key(i), value(i))
		}
		err := dev.KVRegionFull().KVPutCompound(r, []memtable.Entry{{Key: key(n), Value: value(n), Kind: memtable.KindPut}})
		if !errors.Is(err, faults.ErrCapacityExceeded) {
			t.Errorf("compound put on a full device: %v, want capacity exceeded", err)
		}
		db.Detector().SetOverride(true)
		if err := db.WriteBatch(r, &b); err != nil {
			t.Fatal(err)
		}
		db.Detector().SetOverride(false)
		if dev.Dev.Count() != count {
			t.Errorf("the device took %d records of a refused batch", dev.Dev.Count()-count)
		}
		checkAll(t, r, db, n+10, value)
	})
	clk.Wait()
}
