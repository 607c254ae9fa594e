package harness

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"kvaccel/internal/core"
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
	for i, main := range m.mains {
		out = append(out, scalars(main.Options())...)
		if m.kvs != nil {
			out = append(out, scalars(m.kvs[i].Options())...)
		}
	}
	for _, q := range m.Dev.QueueStats() {
		out = append(out, "queue="+q.Name)
	}
	return out
}

// shutdown closes an opened rig without running a workload on it.
func (m *rig) shutdown() {
	m.close()
	m.release()
	m.Clk.Wait()
}

// TestOneShardIsTheUnshardedMachine: RunSharded with one shard and Run
// open the same machine — device, Main-LSM and KVACCEL configuration down
// to the last scalar, and the same queue pairs (one Dev-LSM, one "kv"
// queue) — for every option a sharded run used to drop or render apart.
func TestOneShardIsTheUnshardedMachine(t *testing.T) {
	spec := EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackLazy}
	rows := []struct {
		name string
		set  func(*Params)
	}{
		{"defaults", func(p *Params) {}},
		{"linger", func(p *Params) { p.LingerMicros = 30 }},
		{"no-block-cache", func(p *Params) { p.DisableBlockCache = true }},
		{"value-threshold", func(p *Params) { p.ValueThreshold = 1024 }},
		{"front-cache", func(p *Params) { p.FrontCacheBytes = 32 << 20 }},
		{"offload", func(p *Params) { p.OffloadCompaction = true }},
		{"queues", func(p *Params) { p.QueueDepth = 8; p.IOQueues = 2 }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			p := DefaultParams()
			row.set(&p)
			single, sharded := p.open(spec, 1, false), p.open(spec, 1, true)
			want, got := single.rendered(), sharded.rendered()
			single.shutdown()
			sharded.shutdown()
			if len(got) != len(want) {
				t.Fatalf("RunSharded renders %d fields, Run %d:\n%s\n---\n%s",
					len(got), len(want), strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("RunSharded(spec, 1) has %s, Run has %s", got[i], want[i])
				}
			}
		})
	}
}

// The digests of the rendered machines of the benchmark's two stall
// workloads (bench/engine.go's fill_stall and fill_stock Params), as the
// parent of the machine builder rendered them: moving the calibration
// into internal/machine moved it without changing it. The one line since
// dropped is Options.VLogReadCacheBytes=8388608, with the value-log read
// cache; the rest hashes as before.
const (
	fillStallSHA256 = "0043accf827ce50bae6cd725bb2bfee4f9c125507ff9cf80948e4a8f517fd43f"
	fillStockSHA256 = "c280ca960655523b59904fbb14c9aebe7c5c7454634ac5e097e4c2e81bc4fd9c"
)

func TestBenchFillMachinesKeepTheirCalibration(t *testing.T) {
	for _, c := range []struct {
		name, want string
		spec       EngineSpec
	}{
		{"fill_stall", fillStallSHA256, EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackLazy}},
		{"fill_stock", fillStockSHA256, EngineSpec{Kind: KindRocksDB, Threads: 1, Slowdown: true}},
	} {
		p := DefaultParams()
		p.KeySpace = 300_000
		p.LingerMicros = 30
		p.Writers = 1
		m := p.open(c.spec, 1, false)
		fields := m.rendered()
		m.shutdown()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(fields, "\n")))); got != c.want {
			t.Errorf("%s renders a machine with digest %s, want %s:\n%s", c.name, got, c.want, strings.Join(fields, "\n"))
		}
	}
}
