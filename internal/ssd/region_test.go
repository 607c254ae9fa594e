package ssd

import (
	"fmt"
	"testing"

	"kvaccel/internal/ftl"
	"kvaccel/internal/memtable"
	"kvaccel/internal/vclock"
)

// TestKVRegionSlicesAreDisjoint checks that per-shard slices partition
// the KV region: each slice sees only its own pairs, and the slice page
// ranges tile the region without overlap.
func TestKVRegionSlicesAreDisjoint(t *testing.T) {
	d, clk := newTestDev()
	slices := d.KVRegionSlices(3)
	if len(slices) != 3 {
		t.Fatalf("got %d slices, want 3", len(slices))
	}
	total := d.FTL.RegionPages(ftl.KVRegion)
	covered := 0
	prevEnd := 0
	for i, s := range slices {
		off, pages := s.DevLSM().Region()
		if off != prevEnd {
			t.Errorf("slice %d starts at page %d, want %d (no gaps/overlap)", i, off, prevEnd)
		}
		prevEnd = off + pages
		covered += pages
	}
	if covered != total {
		t.Errorf("slices cover %d pages, region has %d", covered, total)
	}

	runOn(t, clk, func(r *vclock.Runner) {
		for i, s := range slices {
			s.KVPut(r, memtable.KindPut, []byte(fmt.Sprintf("slice%d-key", i)), []byte("v"))
		}
		for i, s := range slices {
			if _, _, found, _ := s.KVGet(r, []byte(fmt.Sprintf("slice%d-key", i))); !found {
				t.Errorf("slice %d lost its own pair", i)
			}
			other := (i + 1) % len(slices)
			if _, _, found, _ := s.KVGet(r, []byte(fmt.Sprintf("slice%d-key", other))); found {
				t.Errorf("slice %d can read slice %d's pair", i, other)
			}
		}
	})
}

// TestOneKVRegionSliceIsTheFullRegion: a one-shard machine buffers into
// the device's one Dev-LSM through the one "kv" queue, not into a second
// Dev-LSM beside an idle full-region one.
func TestOneKVRegionSliceIsTheFullRegion(t *testing.T) {
	d, _ := newTestDev()
	slices := d.KVRegionSlices(1)
	if len(slices) != 1 || slices[0] != d.KVRegionFull() || slices[0].DevLSM() != d.Dev {
		t.Fatalf("KVRegionSlices(1) = %v, want the full-region view over the device's Dev-LSM", slices)
	}
	var names []string
	for _, q := range d.QueueStats() {
		names = append(names, q.Name)
	}
	if len(names) != 1 || names[0] != "kv" {
		t.Errorf("queue pairs %v, want just [kv]", names)
	}
}

// TestKVRegionSlicesSplitTheReadCache: slicing divides the controller's
// DRAM, read cache included, so the slices of a 4-way device together
// cache no more pages than the unsharded device does.
func TestKVRegionSlicesSplitTheReadCache(t *testing.T) {
	cfg := testConfig()
	cfg.DevLSM.ReadCacheBytes = 64 << 10
	whole := New(vclock.New(), cfg).KVRegionFull().DevLSM().CachePages()
	sliced := 0
	for _, s := range New(vclock.New(), cfg).KVRegionSlices(4) {
		sliced += s.DevLSM().CachePages()
	}
	if whole == 0 || sliced > whole {
		t.Errorf("4 slices cache %d pages, the unsharded device %d", sliced, whole)
	}
}

// TestKVRegionSliceResetIsScoped checks the sharding safety property:
// KVReset on one slice must not disturb pairs buffered in another.
func TestKVRegionSliceResetIsScoped(t *testing.T) {
	d, clk := newTestDev()
	slices := d.KVRegionSlices(2)
	runOn(t, clk, func(r *vclock.Runner) {
		slices[0].KVPut(r, memtable.KindPut, []byte("a"), []byte("va"))
		slices[1].KVPut(r, memtable.KindPut, []byte("b"), []byte("vb"))

		slices[0].KVReset(r)
		if !slices[0].KVEmpty() {
			t.Error("reset slice not empty")
		}
		if slices[1].KVEmpty() {
			t.Fatal("reset of slice 0 wiped slice 1")
		}
		if v, _, found, _ := slices[1].KVGet(r, []byte("b")); !found || string(v) != "vb" {
			t.Errorf("slice 1 pair damaged by sibling reset: found=%v v=%q", found, v)
		}

		// The reset slice must keep working (free LPNs rebuilt correctly).
		slices[0].KVPut(r, memtable.KindPut, []byte("a2"), []byte("va2"))
		if _, _, found, _ := slices[0].KVGet(r, []byte("a2")); !found {
			t.Error("slice 0 unusable after reset")
		}
	})
}

// TestKVRegionFullDelegation checks the full-region view and the
// device's Dev-LSM are the same store.
func TestKVRegionFullDelegation(t *testing.T) {
	d, clk := newTestDev()
	runOn(t, clk, func(r *vclock.Runner) {
		d.KVRegionFull().KVPut(r, memtable.KindPut, []byte("k"), []byte("v"))
		if v, _, found, _ := d.Dev.Get(r, []byte("k")); !found || string(v) != "v" {
			t.Fatalf("the device's Dev-LSM missed the full-region put: found=%v v=%q", found, v)
		}
		entries, bytes := d.KVRegionFull().KVUsage()
		if entries != 1 || bytes <= 0 {
			t.Fatalf("usage = (%d, %d), want (1, >0)", entries, bytes)
		}
	})
}
