package ssd

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"kvaccel/internal/faults"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// TestBackgroundFlushFaultSurfacesOnNextPut: a NAND program fault in the
// Dev-LSM's background flush completes the next KV_PUT with the media
// error, once, and every record stays readable: the flushed run is
// installed anyway, the controller retrying the program out of band.
func TestBackgroundFlushFaultSurfacesOnNextPut(t *testing.T) {
	cfg := testConfig()
	cfg.DevLSM.MemtableBytes = 64 << 10 // ~60 of these puts fill it
	clk := vclock.New()
	d := New(clk, cfg)
	plan := faults.NewPlan(1)
	plan.AddRule(faults.Rule{Op: "NAND_PROG", Class: faults.MediaError, Every: 1, Count: 1})
	d.SetFaultPlan(plan) // only the flush programs pages: its first one fails
	kv := d.KVRegionFull()
	val := bytes.Repeat([]byte("v"), 1000)
	const n = 100
	runOn(t, clk, func(r *vclock.Runner) {
		for i := 0; i < n; i++ {
			if err := kv.KVPut(r, memtable.KindPut, key(i), val); err != nil {
				t.Fatalf("put %d, issued while the flush runs: %v", i, err)
			}
		}
		if got := d.Dev.Stats().Flushes; got != 0 {
			t.Fatalf("%d flushes ended during the puts; the test needs the flush still running", got)
		}
		r.Sleep(time.Second)
		if got := d.Dev.Stats().Flushes; got != 1 {
			t.Fatalf("%d flushes after a second, want 1", got)
		}
		if err := kv.KVPut(r, memtable.KindPut, key(n), val); !errors.Is(err, faults.ErrMedia) {
			t.Errorf("the put after the faulty flush completed with %v, want the media error", err)
		}
		if err := kv.KVPut(r, memtable.KindPut, key(n+1), val); err != nil {
			t.Errorf("the put after that completed with %v, want success", err)
		}
		for i := 0; i < n+2; i++ {
			v, kind, ok, err := kv.KVGet(r, key(i))
			if err != nil || !ok || kind != memtable.KindPut || !bytes.Equal(v, val) {
				t.Fatalf("key %d: ok=%v kind=%v err=%v", i, ok, kind, err)
			}
		}
	})
}
