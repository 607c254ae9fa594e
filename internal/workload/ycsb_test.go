package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"kvaccel/internal/vclock"
)

func TestMixPresets(t *testing.T) {
	for _, name := range MixNames() {
		spec, ok := Mix(name)
		if !ok {
			t.Fatalf("preset %s missing", name)
		}
		sum := spec.ReadPct + spec.UpdatePct + spec.InsertPct + spec.ScanPct + spec.RMWPct
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s fractions sum to %v", name, sum)
		}
	}
	if _, ok := Mix("ycsb-q"); ok {
		t.Error("unknown preset accepted")
	}
	// Short aliases resolve too.
	if spec, ok := Mix("b"); !ok || spec.Name != "ycsb-b" {
		t.Errorf("alias b -> %+v ok=%v", spec, ok)
	}
}

func TestWithReadPct(t *testing.T) {
	spec, _ := Mix("ycsb-a")
	m := spec.WithReadPct(0.8)
	if m.ReadPct != 0.8 || m.UpdatePct < 0.199 || m.UpdatePct > 0.201 {
		t.Fatalf("rescaled mix: %+v", m)
	}
	// Pure-read spec grows an update share.
	c, _ := Mix("ycsb-c")
	m = c.WithReadPct(0.9)
	if m.ReadPct != 0.9 || m.UpdatePct < 0.099 || m.UpdatePct > 0.101 {
		t.Fatalf("pure-read rescale: %+v", m)
	}
}

// TestZipfianSkew: with theta 0.99 over 10k ranks, the hottest ~100
// ranks must absorb well over a third of the draws, and every draw must
// stay in range.
func TestZipfianSkew(t *testing.T) {
	const n, draws = 10_000, 200_000
	z := newZipf(n, 0.99)
	rng := rand.New(rand.NewSource(42))
	var top int
	for i := 0; i < draws; i++ {
		r := z.next(rng)
		if r < 0 || r >= n {
			t.Fatalf("rank %d out of range", r)
		}
		if r < 100 {
			top++
		}
	}
	if frac := float64(top) / draws; frac < 0.35 {
		t.Fatalf("top-100 ranks got %.2f of draws, want >= 0.35", frac)
	}
}

// TestZipfDrawsMatchTheFormula: next's rank-1 bound, computed once in
// newZipf, draws the same ranks as the Gray formula evaluated per draw.
func TestZipfDrawsMatchTheFormula(t *testing.T) {
	for _, theta := range []float64{0.99, 0.5} {
		const n = 100_000
		z := newZipf(n, theta)
		formula := func(u float64) int {
			uz := u * z.zetan
			if uz < 1 {
				return 0
			}
			if uz < 1+math.Pow(0.5, theta) {
				return 1
			}
			return min(int(float64(z.n)*math.Pow(z.eta*u-z.eta+1, z.alpha)), z.n-1)
		}
		rng, ref := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		for i := 0; i < 100_000; i++ {
			if got, want := z.next(rng), formula(ref.Float64()); got != want {
				t.Fatalf("theta %v, draw %d: rank %d, the formula gives %d", theta, i, got, want)
			}
		}
	}
}

// TestScrambleSpreads: scrambled hot ranks must not collapse to a
// contiguous prefix and must be collision-free for small rank sets.
func TestScrambleSpreads(t *testing.T) {
	const n = 100_000
	seen := map[int]bool{}
	var inPrefix int
	for r := 0; r < 64; r++ {
		k := scramble(r, n)
		if k < 0 || k >= n {
			t.Fatalf("scrambled key %d out of range", k)
		}
		if seen[k] {
			t.Fatalf("collision at rank %d", r)
		}
		seen[k] = true
		if k < 1000 {
			inPrefix++
		}
	}
	if inPrefix > 8 {
		t.Fatalf("%d of 64 hot keys landed in the first 1%% of the keyspace", inPrefix)
	}
}

// TestRunMixedOpRatios runs ycsb-a against the fake engine and checks
// the realized op mix tracks the spec.
func TestRunMixedOpRatios(t *testing.T) {
	clk := vclock.New()
	eng := newFakeEngine(10 * time.Microsecond)
	cfg := Config{KeySpace: 1000, ValueSize: 64, Duration: time.Second, Seed: 7}
	spec, _ := Mix("ycsb-a")
	state := NewMixedState(cfg.KeySpace)
	rec := NewRecorder("test")
	clk.Go("load", func(r *vclock.Runner) {
		FillSequential(r, eng, cfg, cfg.KeySpace)
		if err := RunMixed(r, eng, cfg, spec, state, rec); err != nil {
			t.Errorf("RunMixed: %v", err)
		}
	})
	clk.Wait()
	total := rec.Reads() + rec.Writes()
	if total < 1000 {
		t.Fatalf("only %d ops in 2 virtual seconds", total)
	}
	frac := float64(rec.Reads()) / float64(total)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("read fraction %.2f, want ~0.5", frac)
	}
	if rec.ReadLatency.Count() == 0 || rec.WriteLatency.Count() == 0 {
		t.Fatal("latency histograms empty")
	}
}

// TestRunMixedScansAndInserts runs ycsb-e (scan-heavy with inserts) and
// ycsb-d (latest-distribution reads) for basic liveness.
func TestRunMixedScansAndInserts(t *testing.T) {
	clk := vclock.New()
	eng := newFakeEngine(10 * time.Microsecond)
	cfg := Config{KeySpace: 100, ValueSize: 32, Duration: 100 * time.Millisecond, Seed: 3}
	state := NewMixedState(cfg.KeySpace)
	rec := NewRecorder("test")
	specE, _ := Mix("ycsb-e")
	specD, _ := Mix("ycsb-d")
	clk.Go("load", func(r *vclock.Runner) {
		FillSequential(r, eng, cfg, cfg.KeySpace)
		if err := RunMixed(r, eng, cfg, specE, state, rec); err != nil {
			t.Errorf("ycsb-e: %v", err)
		}
		if err := RunMixed(r, eng, cfg, specD, state, rec); err != nil {
			t.Errorf("ycsb-d: %v", err)
		}
	})
	clk.Wait()
	if rec.Scans() == 0 {
		t.Fatal("ycsb-e produced no scans")
	}
	if int64(rec.ScanLatency.Count()) != rec.Scans() {
		t.Fatalf("scan histogram count %d != scans %d", rec.ScanLatency.Count(), rec.Scans())
	}
	if state.Inserted() <= int64(cfg.KeySpace) {
		t.Fatal("no inserts advanced the frontier")
	}
	if rec.Reads() == 0 {
		t.Fatal("ycsb-d produced no reads")
	}
}

// TestRunMixedMultiClient shares one state across two client runners;
// insert frontiers must never collide (atomic claim).
func TestRunMixedMultiClient(t *testing.T) {
	clk := vclock.New()
	eng := newFakeEngine(10 * time.Microsecond)
	cfg := Config{KeySpace: 200, ValueSize: 32, Duration: 200 * time.Millisecond, Seed: 11}
	spec, _ := Mix("ycsb-d")
	state := NewMixedState(cfg.KeySpace)
	rec := NewRecorder("test")
	clk.Go("load", func(r *vclock.Runner) {
		FillSequential(r, eng, cfg, cfg.KeySpace)
		for c := 0; c < 2; c++ {
			c := c
			clk.Go("client", func(r *vclock.Runner) {
				ccfg := cfg
				ccfg.Seed += int64(c * 101)
				if err := RunMixed(r, eng, ccfg, spec, state, rec); err != nil {
					t.Errorf("client %d: %v", c, err)
				}
			})
		}
	})
	clk.Wait()
	if rec.Reads() == 0 || rec.Writes() == 0 {
		t.Fatal("multi-client run idle")
	}
}

func TestDistributionString(t *testing.T) {
	for _, row := range []struct {
		d    Distribution
		want string
	}{
		{DistUniform, "uniform"},
		{DistZipfian, "zipfian"},
		{DistLatest, "latest"},
		{Distribution(-1), "unknown"},
		{DistLatest + 1, "unknown"},
	} {
		if got := row.d.String(); got != row.want {
			t.Errorf("Distribution(%d).String() = %q, want %q", int(row.d), got, row.want)
		}
	}
}

// TestEffectiveTheta: an unset or non-positive ZipfTheta means the YCSB
// default 0.99; any other is used as given.
func TestEffectiveTheta(t *testing.T) {
	for _, row := range []struct {
		theta, want float64
	}{
		{0, 0.99},
		{-0.5, 0.99},
		{0.5, 0.5},
		{0.99, 0.99},
		{1.2, 1.2},
	} {
		if got := (MixSpec{ZipfTheta: row.theta}).EffectiveTheta(); got != row.want {
			t.Errorf("EffectiveTheta with ZipfTheta %v = %v, want %v", row.theta, got, row.want)
		}
	}
	// The presets leave it unset.
	for _, name := range MixNames() {
		if spec, _ := Mix(name); spec.EffectiveTheta() != 0.99 {
			t.Errorf("%s: EffectiveTheta %v, want the default 0.99", name, spec.EffectiveTheta())
		}
	}
}
