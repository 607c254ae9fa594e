package core

import (
	"bytes"
	"math/rand"
	"testing"

	"kvaccel/internal/fs"
	"kvaccel/internal/lsm"
	"kvaccel/internal/ssd"
	"kvaccel/internal/vclock"
)

// TestRandomizedConsistency drives the full stack through random puts,
// deletes, forced stall flips, rollbacks, and a crash+recover, checking
// every observation against a model map. This is the system-level
// consistency property of §V-G: one database, regardless of which LSM
// currently holds a pair.
func TestRandomizedConsistency(t *testing.T) {
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	clk, db := newStack(opt, nil)
	rng := rand.New(rand.NewSource(99))
	model := map[string][]byte{}

	clk.Go("fuzzer", func(r *vclock.Runner) {
		defer db.Close()
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(100); {
			case op < 55: // put
				k := key(rng.Intn(400))
				v := value(step)
				if err := db.Put(r, k, v); err != nil {
					t.Fatalf("put: %v", err)
				}
				model[string(k)] = v
			case op < 65: // delete
				k := key(rng.Intn(400))
				if err := db.Delete(r, k); err != nil {
					t.Fatalf("delete: %v", err)
				}
				delete(model, string(k))
			case op < 90: // read and verify
				k := key(rng.Intn(400))
				v, ok, err := db.Get(r, k)
				if err != nil {
					t.Fatalf("get: %v", err)
				}
				want, exists := model[string(k)]
				if ok != exists || (ok && !bytes.Equal(v, want)) {
					gotB, wantB := byte('?'), byte('?')
					if len(v) > 0 {
						gotB = v[0]
					}
					if len(want) > 0 {
						wantB = want[0]
					}
					t.Fatalf("step %d: Get(%q) ok=%v want-exists=%v got[0]=%c want[0]=%c meta=%v",
						step, k, ok, exists, gotB, wantB, db.meta.Contains(k))
				}
			case op < 94: // flip the stall signal
				db.det.SetOverride(rng.Intn(2) == 0)
			case op < 97: // rollback
				db.det.SetOverride(false)
				db.RollbackNow(r)
			default: // crash + recover
				db.det.SetOverride(false)
				db.SimulateCrash()
				db.Recover(r)
			}
		}
		// Final: clear overrides, roll everything back, full verify.
		db.det.SetOverride(false)
		db.RollbackNow(r)
		db.main.Flush(r)
		for k, want := range model {
			v, ok, err := db.Get(r, []byte(k))
			if err != nil || !ok || !bytes.Equal(v, want) {
				t.Fatalf("final verify %q: ok=%v err=%v", k, ok, err)
			}
		}
		// Scan must agree with the model too.
		it := db.NewIterator(r)
		defer it.Close()
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			want, exists := model[string(it.Key())]
			if !exists || !bytes.Equal(it.Value(), want) {
				t.Fatalf("scan surfaced %q inconsistently", it.Key())
			}
			n++
		}
		if n != len(model) {
			t.Fatalf("scan saw %d keys, model has %d", n, len(model))
		}
	})
	clk.Wait()
}

// TestMultiDeviceSetup exercises §V-D's multi-device mode: the Main-LSM
// lives on the block region of one SSD while the KV interface of a
// second SSD serves as the write buffer.
func TestMultiDeviceSetup(t *testing.T) {
	clk := vclock.New()
	blockDev := ssd.New(clk, testSSDConfig(2, 64<<20, 32<<20)) // hosts the file system / Main-LSM
	kvDev := ssd.New(clk, testSSDConfig(2, 64<<20, 32<<20))    // hosts the Dev-LSM write buffer

	fsys := fs.New(blockDev.BlockNamespace(0, 0))
	main := lsm.Open(clk, fsys, testLSMOptions())
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	db := Open(clk, main, kvDev.KVRegionFull(), opt)

	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		_ = db.Put(r, key(1), []byte("block-dev"))
		db.det.SetOverride(true)
		_ = db.Put(r, key(2), []byte("kv-dev"))
		db.det.SetOverride(false)

		if v, ok, _ := db.Get(r, key(1)); !ok || string(v) != "block-dev" {
			t.Error("main path broken in multi-device mode")
		}
		if v, ok, _ := db.Get(r, key(2)); !ok || string(v) != "kv-dev" {
			t.Error("kv path broken in multi-device mode")
		}
		// Redirected traffic must have hit only the second device.
		if kvDev.Dev.Count() != 1 {
			t.Errorf("kv device holds %d pairs, want 1", kvDev.Dev.Count())
		}
		db.RollbackNow(r)
		if v, ok, _ := db.Get(r, key(2)); !ok || string(v) != "kv-dev" {
			t.Error("pair lost rolling back across devices")
		}
	})
	clk.Wait()
}

// TestHostRestartEndToEnd is the full §VI-D story including a host
// process restart: the Main-LSM reopens from its MANIFEST + WAL on the
// block interface, the Dev-LSM's buffered pairs survive in NAND, the
// volatile metadata is gone, and Recover() reunifies the database.
func TestHostRestartEndToEnd(t *testing.T) {
	clk := vclock.New()
	dev := ssd.New(clk, testSSDConfig(4, 256<<20, 64<<20))
	fsys := fs.New(dev.BlockNamespace(0, 0))
	lopt := testLSMOptions()
	lopt.BaseLevelBytes = 256 << 10
	lopt.MaxFileSize = 128 << 10

	// Phase 1: run, redirect some keys, crash.
	main := lsm.Open(clk, fsys, lopt)
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	db := Open(clk, main, dev.KVRegionFull(), opt)
	clk.Go("phase1", func(r *vclock.Runner) {
		for i := 0; i < 300; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.Flush(r)
		main.WaitIdle(r)
		db.det.SetOverride(true)
		for i := 300; i < 400; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.det.SetOverride(false)
		db.Close() // host process dies; metadata hash table evaporates
	})
	clk.Wait()

	// Phase 2: host restarts on a fresh clock over the SAME device. The
	// surviving hardware must be re-attached to the new phase's clock.
	clk2 := vclock.New()
	dev.Attach(clk2)
	clk2.Go("phase2", func(r *vclock.Runner) {
		main2, err := lsm.Reopen(r, clk2, fsys, lopt)
		if err != nil {
			t.Errorf("host LSM reopen: %v", err)
			return
		}
		db2 := Open(clk2, main2, dev.KVRegionFull(), opt)
		defer db2.Close()

		if dev.Dev.Count() == 0 {
			t.Error("Dev-LSM lost its buffered pairs across the restart")
		}
		// Metadata is volatile: the redirected keys are unreachable until
		// recovery runs.
		db2.Recover(r)
		for i := 0; i < 400; i += 13 {
			v, ok, err := db2.Get(r, key(i))
			if err != nil || !ok || !bytes.Equal(v, value(i)) {
				t.Errorf("key %d lost across host restart: ok=%v err=%v", i, ok, err)
			}
		}
		if !dev.Dev.Empty() {
			t.Error("Dev-LSM not reset after recovery")
		}
	})
	clk2.Wait()
}
