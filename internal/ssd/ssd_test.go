package ssd

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"kvaccel/internal/devlsm"
	"kvaccel/internal/memtable"
	"kvaccel/internal/nand"
	"kvaccel/internal/nvme"
	"kvaccel/internal/pcie"
	"kvaccel/internal/vclock"
)

func testConfig() Config {
	return Config{
		Geometry:          nand.Geometry{Channels: 2, Ways: 2, BlocksPerDie: 128, PagesPerBlock: 32, PageSize: 4096},
		Timing:            nand.Timing{ReadPage: 50 * time.Microsecond, ProgramPage: 400 * time.Microsecond, ChannelMBps: 200},
		PCIe:              pcie.Config{BandwidthMBps: 1000, Latency: 2 * time.Microsecond, Lanes: 2},
		BlockRegionBytes:  16 << 20,
		KVRegionBytes:     8 << 20,
		NVMe:              nvme.Config{QueueDepth: 1, Slots: 1},
		DevLSM:            devlsm.DefaultConfig(),
		KVCommandOverhead: 5 * time.Microsecond,
		DMAChunkSize:      64 << 10,
		IOQueues:          1,
	}
}

// newTestDev builds a device on a fresh clock; runOn drives one runner to
// completion on that clock.
func newTestDev() (*Device, *vclock.Clock) {
	clk := vclock.New()
	return New(clk, testConfig()), clk
}

func runOn(t *testing.T, clk *vclock.Clock, fn func(r *vclock.Runner)) {
	t.Helper()
	clk.Go("test", fn)
	clk.Wait()
}

func key(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }

func TestBlockNamespaceIO(t *testing.T) {
	d, clk := newTestDev()
	ns := d.BlockNamespace(0, 0)
	if ns.Pages() != int((16<<20)/4096) {
		t.Fatalf("pages = %d", ns.Pages())
	}
	runOn(t, clk, func(r *vclock.Runner) {
		ns.WritePages(r, []int{0, 1, 2})
		ns.ReadPages(r, []int{1})
		ns.TrimPages(r, []int{2})
	})
}

func TestPCIeTrafficCountedForBlockIO(t *testing.T) {
	d, clk := newTestDev()
	ns := d.BlockNamespace(0, 0)
	runOn(t, clk, func(r *vclock.Runner) {
		ns.WritePages(r, []int{0, 1})
	})
	if got := d.Link.BytesTransferred(pcie.HostToDevice); got != 2*4096 {
		t.Fatalf("h2d bytes = %d, want 8192", got)
	}
}

func TestNamespaceIsolation(t *testing.T) {
	d, clk := newTestDev()
	nsA := d.BlockNamespace(0, 1024)
	nsB := d.BlockNamespace(1024, 1024)
	if nsA.Pages() != 1024 || nsB.Pages() != 1024 {
		t.Fatal("namespace sizing wrong")
	}
	runOn(t, clk, func(r *vclock.Runner) {
		nsA.WritePages(r, []int{0})
		nsB.WritePages(r, []int{0}) // same namespace-relative LPN, distinct physical mapping
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-namespace I/O did not panic")
				}
			}()
			// Translation panics before anything is queued, so the device
			// is untouched and the runner can keep going.
			nsA.WritePages(r, []int{5000})
		}()
	})
}

func TestKVPutGetThroughInterface(t *testing.T) {
	d, clk := newTestDev()
	runOn(t, clk, func(r *vclock.Runner) {
		d.KVRegionFull().KVPut(r, memtable.KindPut, key(1), []byte("hello"))
		v, kind, ok, _ := d.KVRegionFull().KVGet(r, key(1))
		if !ok || kind != memtable.KindPut || !bytes.Equal(v, []byte("hello")) {
			t.Fatalf("kv get: ok=%v", ok)
		}
		if _, _, ok, _ := d.KVRegionFull().KVGet(r, key(2)); ok {
			t.Fatal("absent KV key found")
		}
	})
	if d.Link.TotalBytes() == 0 {
		t.Fatal("KV commands moved no PCIe bytes")
	}
}

func TestKVBulkScanStreamsChunks(t *testing.T) {
	d, clk := newTestDev()
	runOn(t, clk, func(r *vclock.Runner) {
		val := bytes.Repeat([]byte("v"), 1024)
		for i := 0; i < 200; i++ {
			d.KVRegionFull().KVPut(r, memtable.KindPut, key(i), val)
		}
		before := d.Link.BytesTransferred(pcie.DeviceToHost)
		n := 0
		d.KVRegionFull().KVBulkScan(r, func(entries []memtable.Entry) { n += len(entries) })
		if n != 200 {
			t.Fatalf("bulk scan returned %d entries, want 200", n)
		}
		moved := d.Link.BytesTransferred(pcie.DeviceToHost) - before
		if moved < 200*1024 {
			t.Fatalf("bulk scan DMA'd %d bytes, want >= 204800", moved)
		}
	})
}

func TestKVIteratorSeekNext(t *testing.T) {
	d, clk := newTestDev()
	runOn(t, clk, func(r *vclock.Runner) {
		for i := 0; i < 100; i++ {
			d.KVRegionFull().KVPut(r, memtable.KindPut, key(i), []byte("v"))
		}
		it := d.KVRegionFull().NewKVIterator(r)
		it.Seek(key(50))
		for i := 50; i < 60; i++ {
			if !it.Valid() || !bytes.Equal(it.Entry().Key, key(i)) {
				t.Fatalf("at %d: valid=%v key=%q", i, it.Valid(), it.Entry().Key)
			}
			it.Next()
		}
	})
}

func TestKVResetClearsDevLSM(t *testing.T) {
	d, clk := newTestDev()
	runOn(t, clk, func(r *vclock.Runner) {
		for i := 0; i < 50; i++ {
			d.KVRegionFull().KVPut(r, memtable.KindPut, key(i), []byte("v"))
		}
		d.KVRegionFull().KVReset(r)
		if !d.Dev.Empty() {
			t.Fatal("Dev-LSM not empty after KVReset")
		}
	})
}

func TestDualInterfaceSharesDevice(t *testing.T) {
	// Block and KV traffic on the same device must both appear in the
	// same NAND stats — the single-device property.
	d, clk := newTestDev()
	ns := d.BlockNamespace(0, 0)
	runOn(t, clk, func(r *vclock.Runner) {
		ns.WritePages(r, []int{0, 1, 2, 3})
		val := bytes.Repeat([]byte("v"), 4096)
		for i := 0; i < 20; i++ {
			d.KVRegionFull().KVPut(r, memtable.KindPut, key(i), val)
		}
		d.Dev.Flush(r)
	})
	s := d.Array.Stats()
	if s.PagesProgrammed < 4+20 {
		t.Fatalf("NAND pages programmed = %d; both interfaces should hit the same array", s.PagesProgrammed)
	}
}
