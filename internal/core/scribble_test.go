package core

import (
	"bytes"
	"fmt"
	"testing"

	"kvaccel/internal/fs"
	"kvaccel/internal/lsm"
	"kvaccel/internal/memtable"
	"kvaccel/internal/ssd"
	"kvaccel/internal/vclock"
)

// scribblingDevice overwrites every value of a bulk scan's chunk as soon
// as the drain's emit for it returns: the landed chunk's own buffer and
// the views of the device's buffers and runs alike.
type scribblingDevice struct {
	KVDevice
	scribbled int
}

func (s *scribblingDevice) KVBulkScan(r *vclock.Runner, emit func(entries []memtable.Entry)) error {
	return s.KVDevice.KVBulkScan(r, func(entries []memtable.Entry) {
		emit(entries)
		for _, e := range entries {
			for i := range e.Value {
				e.Value[i] ^= 0xA5
			}
			s.scribbled += len(e.Value)
		}
	})
}

// scribbleValue is key i's redirected value: 2 KiB repeating a 6-byte
// period of its own (the Dev-LSM's runs fold it) for most keys, 100
// bytes for every fifth.
func scribbleValue(i int) []byte {
	if i%5 == 0 {
		return bytes.Repeat([]byte{byte(i)}, 100)
	}
	return bytes.Repeat([]byte(fmt.Sprintf("<%05d", i)), 2048/6+1)[:2048]
}

// TestRollbackKeepsNothingOfTheScan: the drain copies every pair it
// merges into the Main-LSM before the next chunk lands, so a device that
// overwrites each chunk's values once the drain is done with it leaves
// the drained Main-LSM reading every pair right — the folded values the
// chunks landed in buffers of their own, the small ones and a redirected
// delete of a key the Main-LSM held.
func TestRollbackKeepsNothingOfTheScan(t *testing.T) {
	const n = 1200 // ~2 MiB of values: several Dev-LSM runs and both buffers in use
	opt := DefaultOptions()
	opt.Rollback = RollbackDisabled
	clk := vclock.New()
	cfg := testSSDConfig(4, 256<<20, 64<<20)
	cfg.DevLSM.MemtableBytes = 256 << 10
	dev := ssd.New(clk, cfg)
	main := lsm.Open(clk, fs.New(dev.BlockNamespace(0, 0)), testLSMOptions())
	sd := &scribblingDevice{KVDevice: dev.KVRegionFull()}
	db := Open(clk, main, sd, opt)
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		if err := db.Put(r, key(n), []byte("main")); err != nil {
			t.Fatal(err)
		}
		db.det.SetOverride(true)
		for i := 0; i < n; i++ {
			if err := db.Put(r, key(i), scribbleValue(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Delete(r, key(n)); err != nil {
			t.Fatal(err)
		}
		db.det.SetOverride(false)
		if err := db.RollbackNow(r); err != nil {
			t.Fatal(err)
		}
		if want := n*2048*4/5 + n/5*100; sd.scribbled != want {
			t.Fatalf("the device overwrote %d value bytes, want %d", sd.scribbled, want)
		}
		for i := 0; i < n; i++ {
			v, ok, err := main.Get(r, key(i))
			if err != nil || !ok || !bytes.Equal(v, scribbleValue(i)) {
				t.Fatalf("key %d in the drained Main-LSM: ok=%v err=%v, %d bytes %.12q", i, ok, err, len(v), v)
			}
		}
		if _, ok, err := main.Get(r, key(n)); ok || err != nil {
			t.Errorf("the redirected delete of key %d did not drain: ok=%v err=%v", n, ok, err)
		}
	})
	clk.Wait()
	if s := db.Stats(); s.Rollbacks != 1 || s.RollbackPairs != n+1 {
		t.Fatalf("%d rollbacks of %d pairs, want 1 of %d", s.Rollbacks, s.RollbackPairs, n+1)
	}
}
