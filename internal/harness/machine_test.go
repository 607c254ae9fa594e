package harness

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"kvaccel"
	"kvaccel/internal/core"
	"kvaccel/internal/lsm"
	"kvaccel/internal/machine"
	"kvaccel/internal/ssd"
)

// scalars lists every scalar field of v as path=value, nested structs
// flattened; pointers, funcs, interfaces, slices and maps are references
// to other parts of the machine, not its configuration, and are left out.
func scalars(v any) []string {
	var out []string
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Bool, reflect.String, reflect.Float32, reflect.Float64,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			out = append(out, fmt.Sprintf("%s=%v", path, v))
		}
	}
	walk(reflect.TypeOf(v).Name(), reflect.ValueOf(v))
	return out
}

// rendered is everything the machine under m was configured with: the
// device, then each shard's Main-LSM and KVACCEL module, then the queue
// pairs the device carries.
func (m *rig) rendered() []string {
	out := scalars(m.Dev.Config())
	if m.db == nil {
		out = append(out, scalars(m.Main.Options())...)
	} else {
		for i := range m.db.NumShards() {
			kv := m.db.Shard(i)
			out = append(out, scalars(kv.Main().(*lsm.DB).Options())...)
			out = append(out, scalars(kv.Options())...)
		}
	}
	for _, q := range m.Dev.QueueStats() {
		out = append(out, "queue="+q.Name)
	}
	return out
}

// shutdown closes an opened rig without running a workload on it.
func (m *rig) shutdown() {
	m.Close()
	m.Clk.Wait()
}

// The SHA-256 digests of the machines the five benchmark workloads run
// on (the set-up in bench/engine.go and bench/serve.go), rendered field by
// field. The fill digests were pinned when the calibration moved into
// internal/machine, the other three before the package defaults became
// the paper's scale-1 numbers: neither move changed a rendered value.
// (The fill digests have since lost one line,
// Options.VLogReadCacheBytes=8388608, with the value-log read cache. Every
// digest then lost, per shard, the lines of the options deleted with
// snapshots, parallel replay and the front cache's negative entries:
// Options.ReplayShards=4 and Options.DisableWAL=false on every machine,
// and on the KVACCEL ones Options.DetectorCost=1.37µs,
// Options.MetadataShards=16, the three Options.Retry fields,
// Options.FrontCacheShards=0, Options.FrontCacheNegative=false and
// Options.FrontCacheDoorkeeper=false.)
// mixed_w8 differs from fill_stall only in its workload — key space,
// value size, writer count — none of which is machine configuration, so
// the two hash alike.
const (
	fillStallSHA256   = "74858134f15636171eb2c4b8d9378bc3d7d87d44d4e55ff76919bead6e8c313f"
	fillStockSHA256   = "2dfac4e04a98b6be8c23c6f0fbf54da48dc9216568d980a65d60841de1067e3f"
	mixedW8SHA256     = "74858134f15636171eb2c4b8d9378bc3d7d87d44d4e55ff76919bead6e8c313f"
	ycsbBHotSHA256    = "0c11cb5a2fb802dbde97af168ef16ae70a8e24c287d97096fb1d0995572c35b5"
	serveClosedSHA256 = "c2dbc8b81256de981aedb9974e6e2abf2bd7c0b11b252eeb0075d7249a3a0324"
)

// benchEngine renders the machine of one of bench/engine.go's workloads.
func benchEngine(spec EngineSpec, set func(*Params)) []string {
	p := DefaultParams()
	p.LingerMicros = 30
	set(&p)
	m := p.open(spec, 1)
	defer m.shutdown()
	return m.rendered()
}

// serveMachine renders serve_closed's machine: four KVACCEL shards at
// scale 1 behind kvaccel.OpenSharded, as bench/serve.go opens them.
func serveMachine() []string {
	opt := kvaccel.DefaultShardedOptions()
	opt.Shards = 4
	opt.Scale = 1
	db := kvaccel.OpenSharded(opt)
	out := scalars(db.Device().Config())
	for i := 0; i < db.NumShards(); i++ {
		out = append(out, scalars(db.Shard(i).Main().(*lsm.DB).Options())...)
		out = append(out, scalars(db.Shard(i).Options())...)
	}
	for _, q := range db.QueueStats() {
		out = append(out, "queue="+q.Name)
	}
	db.Close()
	db.Wait()
	return out
}

// runServeMachine renders the machine RunServe opens with its defaults.
func runServeMachine() []string {
	m := DefaultServeParams().open()
	defer m.shutdown()
	return m.rendered()
}

func TestBenchMachinesKeepTheirCalibration(t *testing.T) {
	lazy := EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackLazy}
	for _, c := range []struct {
		name, want string
		render     func() []string
	}{
		{"fill_stall", fillStallSHA256, func() []string {
			return benchEngine(lazy, func(p *Params) { p.KeySpace, p.Writers = 300_000, 1 })
		}},
		{"fill_stock", fillStockSHA256, func() []string {
			return benchEngine(EngineSpec{Kind: KindRocksDB, Threads: 1, Slowdown: true},
				func(p *Params) { p.KeySpace, p.Writers = 300_000, 1 })
		}},
		{"mixed_w8", mixedW8SHA256, func() []string {
			return benchEngine(lazy, func(p *Params) { p.KeySpace, p.Writers, p.ValueSize = 100_000, 8, 128 })
		}},
		{"ycsb_b_hot", ycsbBHotSHA256, func() []string {
			return benchEngine(EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackEager}, func(p *Params) {
				p.KeySpace, p.Writers, p.ValueThreshold, p.FrontCacheBytes = 100_000, 1, 1024, 32<<20
			})
		}},
		{"serve_closed", serveClosedSHA256, serveMachine},
		{"RunServe", serveClosedSHA256, runServeMachine},
	} {
		fields := c.render()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(fields, "\n")))); got != c.want {
			t.Errorf("%s renders a machine with digest %s, want %s:\n%s", c.name, got, c.want, strings.Join(fields, "\n"))
		}
	}
}

// TestMachineScaleOneIsTheDefaults: the package defaults are the paper's
// scale-1 numbers, so rendering the machine at scale 1 changes nothing.
func TestMachineScaleOneIsTheDefaults(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"Main-LSM", machine.LSMOptions(1), lsm.DefaultOptions(nil)},
		{"device", machine.DeviceConfig(1), ssd.CosmosConfig()},
	} {
		got, want := scalars(c.got), scalars(c.want)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("the scale-1 %s is not the package default:\n%s\n---\n%s",
				c.name, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
