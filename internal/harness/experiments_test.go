package harness

import (
	"io"
	"strings"
	"testing"
	"time"

	"kvaccel/internal/core"
)

func TestTableVIOverheadsWithinOrderOfMagnitude(t *testing.T) {
	p := DefaultParams()
	res := p.TableVI(io.Discard)
	// The paper's numbers (1.37/0.45/0.20/0.28 µs) were measured on a
	// 2.9 GHz Xeon; ours must land within the same order of magnitude.
	if res.Detector <= 0 || res.Detector > 15*time.Microsecond {
		t.Errorf("detector check = %v, want sub-15µs", res.Detector)
	}
	if res.KeyInsert <= 0 || res.KeyInsert > 5*time.Microsecond {
		t.Errorf("key insert = %v, want sub-5µs", res.KeyInsert)
	}
	if res.KeyCheck <= 0 || res.KeyCheck > 2*time.Microsecond {
		t.Errorf("key check = %v, want sub-2µs", res.KeyCheck)
	}
	if res.KeyDelete <= 0 || res.KeyDelete > 3*time.Microsecond {
		t.Errorf("key delete = %v, want sub-3µs", res.KeyDelete)
	}
}

func TestRecoveryExperimentRestoresPairs(t *testing.T) {
	p := DefaultParams()
	var buf strings.Builder
	res := p.Recovery(&buf)
	if res.Pairs != 10000 {
		t.Fatalf("pairs = %d", res.Pairs)
	}
	if res.Elapsed <= 0 || res.Elapsed > 30*time.Second {
		t.Fatalf("recovery elapsed = %v, want (0, 30s]", res.Elapsed)
	}
	if !strings.Contains(buf.String(), "restored 10000 pairs") {
		t.Fatalf("report missing: %q", buf.String())
	}
}

func TestEngineSpecNames(t *testing.T) {
	cases := map[string]EngineSpec{
		"RocksDB(1)":      {Kind: KindRocksDB, Threads: 1, Slowdown: true},
		"RocksDB-noSD(4)": {Kind: KindRocksDB, Threads: 4, Slowdown: false},
		"ADOC(2)":         {Kind: KindADOC, Threads: 2, Slowdown: true},
		"KVAccel-L(4)":    {Kind: KindKVAccel, Threads: 4, Rollback: core.RollbackLazy},
		"KVAccel-E(1)":    {Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackEager},
		"KVAccel(1)":      {Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackDisabled},
		"RocksDB(10)":     {Kind: KindRocksDB, Threads: 10, Slowdown: true},
	}
	for want, spec := range cases {
		if got := spec.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
	lazy := EngineSpec{Kind: KindKVAccel, Threads: 1, Rollback: core.RollbackLazy}
	if got, want := lazy.ShardedName(4), "KVAccel-L-sharded(4)"; got != want {
		t.Errorf("ShardedName(4) = %q, want %q", got, want)
	}
}

func TestWorkloadKindStrings(t *testing.T) {
	for _, k := range []WorkloadKind{WorkloadA, WorkloadB, WorkloadC, WorkloadD} {
		if k.String() == "" {
			t.Errorf("workload %d has empty name", k)
		}
	}
}

func TestRunResultDerivedMetrics(t *testing.T) {
	p := DefaultParams()
	p.Duration = 5 * time.Second
	p.KeySpace = 20_000
	res := p.Run(EngineSpec{Kind: KindRocksDB, Threads: 1, Slowdown: true}, WorkloadA)
	if res.WriteKops() <= 0 {
		t.Fatal("no throughput measured")
	}
	if res.WriteMBps() <= 0 {
		t.Fatal("no bandwidth measured")
	}
	if res.CPUAvg <= 0 || res.Efficiency() <= 0 {
		t.Fatalf("cpu=%v efficiency=%v", res.CPUAvg, res.Efficiency())
	}
	if res.Rec.WriteSeries.Len() == 0 || res.PCIeSeries.Len() == 0 {
		t.Fatal("sampler produced no series")
	}
	if len(res.StallFlags) != res.PCIeSeries.Len() {
		t.Fatal("stall flags misaligned with samples")
	}
}
