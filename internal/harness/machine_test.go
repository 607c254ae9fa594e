package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
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

// The machines the five benchmark workloads run on (the set-up in
// bench/engine.go and bench/serve.go), rendered field by field, are
// committed as testdata/calibration/<workload>.txt. mixed_w8 differs from
// fill_stall only in its workload — key space, value size, writer count —
// none of which is machine configuration, so the two listings are equal;
// RunServe's defaults open serve_closed's machine. A deliberate change of
// calibration rewrites the listings with
//
//	go test -run TestBenchMachinesKeepTheirCalibration ./internal/harness -update
var update = flag.Bool("update", false, "rewrite testdata/calibration from the rendered machines")

// benchEngine renders the machine of one of bench/engine.go's workloads.
func benchEngine(spec EngineSpec, set func(*Params)) []string {
	p := DefaultParams()
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
		name, listing string
		render        func() []string
	}{
		{"fill_stall", "fill_stall", func() []string {
			return benchEngine(lazy, func(p *Params) { p.KeySpace, p.Writers = 300_000, 1 })
		}},
		{"fill_stock", "fill_stock", func() []string {
			return benchEngine(EngineSpec{Kind: KindRocksDB, Threads: 1, Slowdown: true},
				func(p *Params) { p.KeySpace, p.Writers = 300_000, 1 })
		}},
		{"mixed_w8", "mixed_w8", func() []string {
			return benchEngine(lazy, func(p *Params) { p.KeySpace, p.Writers, p.ValueSize = 100_000, 8, 128 })
		}},
		{"ycsb_b_hot", "ycsb_b_hot", func() []string {
			return benchEngine(EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackEager}, func(p *Params) {
				p.KeySpace, p.Writers, p.ValueThreshold, p.FrontCacheBytes = 100_000, 1, 1024, 32<<20
			})
		}},
		{"serve_closed", "serve_closed", serveMachine},
		{"RunServe", "serve_closed", runServeMachine},
	} {
		got := c.render()
		path := filepath.Join("testdata", "calibration", c.listing+".txt")
		if *update && c.name == c.listing {
			if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
		if diff := listingDiff(got, want); diff != "" {
			t.Errorf("%s renders a machine other than %s (- listing, + rendered):\n%s", c.name, path, diff)
		}
	}
}

// listingDiff returns the lines only want has ("- ") and the lines only
// got has ("+ "), in order, by a longest-common-subsequence alignment, or
// "" when the two are equal.
func listingDiff(got, want []string) string {
	// lcs[i][j] is the common-subsequence length of want[i:] and got[j:].
	lcs := make([][]int, len(want)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(got)+1)
	}
	for i := len(want) - 1; i >= 0; i-- {
		for j := len(got) - 1; j >= 0; j-- {
			if want[i] == got[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var b strings.Builder
	i, j := 0, 0
	for i < len(want) || j < len(got) {
		switch {
		case i < len(want) && j < len(got) && want[i] == got[j]:
			i, j = i+1, j+1
		case j == len(got) || (i < len(want) && lcs[i+1][j] >= lcs[i][j+1]):
			fmt.Fprintf(&b, "- %s\n", want[i])
			i++
		default:
			fmt.Fprintf(&b, "+ %s\n", got[j])
			j++
		}
	}
	return b.String()
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
