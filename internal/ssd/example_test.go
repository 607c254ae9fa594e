package ssd_test

import (
	"fmt"

	"kvaccel/internal/cpu"
	"kvaccel/internal/fs"
	"kvaccel/internal/lsm"
	"kvaccel/internal/machine"
	"kvaccel/internal/memtable"
	"kvaccel/internal/ssd"
	"kvaccel/internal/vclock"
)

// Example_multitenant is §V-D's multi-tenancy: one dual-interface SSD
// carved into per-tenant views on both interfaces. Each tenant runs its
// own Main-LSM on half of the block region and buffers pairs in its own
// slice of the KV region, with a Dev-LSM and a queue pair of its own; the
// tenants share dies, PCIe link and controller core, never each other's
// data.
func Example_multitenant() {
	clk := vclock.New()
	cfg := machine.DeviceConfig(10)
	dev := ssd.New(clk, cfg)
	half := int(cfg.BlockRegionBytes) / cfg.Geometry.PageSize / 2
	kv := dev.KVRegionSlices(2)
	tenants := []struct {
		name  string
		block *ssd.BlockNS
		kv    *ssd.KVRegion
	}{
		{"tenant-A", dev.BlockNamespace(0, half), kv[0]},
		{"tenant-B", dev.BlockNamespace(half, half), kv[1]},
	}
	pool := cpu.NewPool(8, "host")
	clk.Go("tenants", func(r *vclock.Runner) {
		for _, ten := range tenants {
			opt := machine.LSMOptions(10)
			opt.CPU = pool
			db := lsm.Open(clk, fs.New(ten.block), opt)
			for i := 0; i < 500; i++ {
				_ = db.Put(r, []byte(fmt.Sprintf("key%04d", i)), []byte(ten.name))
			}
			_ = db.Flush(r)
			v, _, _ := db.Get(r, []byte("key0042"))
			db.Close()
			fmt.Printf("%s block read: %s\n", ten.name, v)
			for i := 0; i < 100; i++ {
				_ = ten.kv.KVPut(r, memtable.KindPut, []byte(fmt.Sprintf("buf%03d", i)), []byte(ten.name))
			}
		}
		for _, ten := range tenants {
			own, other := 0, 0
			_ = ten.kv.KVBulkScan(r, func(entries []memtable.Entry) {
				for _, e := range entries {
					if string(e.Value) == ten.name {
						own++
					} else {
						other++
					}
				}
			})
			fmt.Printf("%s KV scan: %d own pairs, %d of the other tenant's\n", ten.name, own, other)
		}
	})
	clk.Wait()
	// Output:
	// tenant-A block read: tenant-A
	// tenant-B block read: tenant-B
	// tenant-A KV scan: 100 own pairs, 0 of the other tenant's
	// tenant-B KV scan: 100 own pairs, 0 of the other tenant's
}
