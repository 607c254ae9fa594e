package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"kvaccel/internal/vclock"
	"kvaccel/internal/workload"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// benchmarkFile is BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadRow `json:"workloads"`
	EndToEnd   []metricSpec  `json:"end_to_end"`
	PerLayer   []layerRow    `json:"per_layer"`
}

type workloadRow struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type layerRow struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func specAsBenchmarkFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadRow{w.Name, w.Why})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, layerRow{m.Name, m.Unit, m.Better})
	}
	return f
}

// TestSpecMatchesBenchmarkJSON pins the names, units, directions, bounds
// and workloads the binary emits to the contract file, and the contract's
// own limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want := specAsBenchmarkFile()
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from spec.go; run go test -run TestSpecMatches -update")
	}

	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	seen := map[string]bool{}
	name := func(s string) {
		if s == "" || len(s) > 64 || seen[s] || strings.Trim(s, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") != "" || strings.ContainsAny(s[:1], "_.-") {
			t.Errorf("bad or repeated name %q", s)
		}
		seen[s] = true
	}
	hasSetup := false
	for _, w := range want.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range want.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	for _, m := range perLayer {
		name(m.Name)
		if m.Better != higher && m.Better != lower {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}

// smokeSpec shrinks a workload's preload so a smoke run stays under a
// couple of seconds; everything else goes through the frozen code path.
func smokeSpec(w workloadSpec) (workloadSpec, float64) {
	switch w.Kind {
	case kindYCSB:
		w.Keys = 4000
		return w, 1
	case kindServe:
		w.Keys = 2000
		return w, 1
	}
	return w, 0.5
}

func checkNames(t *testing.T, res *result) {
	t.Helper()
	for _, side := range []struct {
		specs []metricSpec
		got   map[string]float64
	}{{endToEnd, res.EndToEnd}, {perLayer, res.PerLayer}} {
		if len(side.got) != len(side.specs) {
			t.Errorf("%s: %d metrics emitted, spec has %d", res.Workload, len(side.got), len(side.specs))
		}
		for _, m := range side.specs {
			v, ok := side.got[m.Name]
			if !ok {
				t.Errorf("%s: metric %s not emitted", res.Workload, m.Name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", res.Workload, m.Name, v)
			}
		}
	}
	if !res.Correct {
		t.Errorf("%s: not correct: %v", res.Workload, res.Problems)
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: attempted %d failed %d", res.Workload, res.Attempted, res.Failed)
	}
}

// TestSmokeEveryWorkload drives all five workloads at a tiny duration and
// checks that what is emitted is exactly what BENCHMARK.json names, that
// every value is finite and no check fails; then that -compare of the
// resulting document with itself is all ok.
func TestSmokeEveryWorkload(t *testing.T) {
	doc := &suiteDoc{Seed: 1, Runs: 1, Workloads: map[string]*suiteEntry{}}
	for _, w := range workloads {
		spec, seconds := smokeSpec(w)
		res, err := runWorkload(spec, runOpts{Seed: 1, Seconds: seconds})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkNames(t, res)
		line, err := json.Marshal(contractLine(res))
		if err != nil {
			t.Fatal(err)
		}
		var back map[string]json.RawMessage
		if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
			t.Errorf("%s: contract line has keys %v (%v)", w.Name, back, err)
		}
		e := &suiteEntry{Correct: res.Correct, EndToEnd: map[string]metricRuns{}, PerLayer: res.PerLayer}
		for _, m := range endToEnd {
			v := res.EndToEnd[m.Name]
			e.EndToEnd[m.Name] = metricRuns{Unit: m.Unit, Values: []float64{v}, Median: v}
		}
		doc.Workloads[w.Name] = e
	}

	path := filepath.Join(t.TempDir(), "a.json")
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	regressed, err := compareFiles(&out, path, path)
	if err != nil || regressed {
		t.Fatalf("compare with itself: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if n := strings.Count(out.String(), "  ok\n"); n != len(workloads)*len(endToEnd) {
		t.Errorf("compare with itself: %d ok rows, want %d\n%s", n, len(workloads)*len(endToEnd), out.String())
	}
}

// TestSmokeTraced runs the traced pass on the stock fill: the CPU profile
// decodes into shares that sum to 1, the tracer-fed rows are filled, and
// the blocking-path closure holds.
func TestSmokeTraced(t *testing.T) {
	spec, _ := findWorkload("fill_stock")
	res, err := runWorkload(spec, runOpts{Seed: 1, Seconds: 1, Trace: true, TraceDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	checkNames(t, res)
	var sum float64
	for name, v := range res.PerLayer {
		if strings.HasPrefix(name, "host.share.") {
			sum += v
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("host.share.* sum to %v", sum)
	}
	for _, name := range []string{"lsm.write_group_us_mean", "lsm.memtable_insert_us_mean", "nvme.exec_vs", "nand.prog_vs", "trace.events", "trace.put_closure"} {
		if res.PerLayer[name] <= 0 {
			t.Errorf("%s = %v in a traced run", name, res.PerLayer[name])
		}
	}
}

// TestWatchdogFiresOnParkedRunner: a simulation that can never finish (a
// runner asleep behind a clock hold nobody releases) is reported in well
// under two seconds, with the last progress note.
func TestWatchdogFiresOnParkedRunner(t *testing.T) {
	note("parked on purpose")
	start := time.Now()
	err := watchdog(200*time.Millisecond, func() error {
		clk := vclock.New()
		clk.Hold() // never released: virtual time cannot advance
		clk.Go("parked", func(r *vclock.Runner) { r.Sleep(time.Hour) })
		clk.Wait()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "parked on purpose") {
		t.Fatalf("watchdog error = %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("watchdog took %v", d)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Fatalf("spread = %v", s)
	}
}

func TestValueCheckInvertsWorkloadGenerators(t *testing.T) {
	for _, n := range []int{0, 1, 299_999} {
		k, ok := keyNumber(workload.Key(n))
		if !ok || k != n {
			t.Fatalf("keyNumber(Key(%d)) = %d, %v", n, k, ok)
		}
		if !valueOK(workload.MakeValue(n, 4096), n, 4096) {
			t.Fatalf("valueOK rejects MakeValue(%d)", n)
		}
		if valueOK(workload.MakeValue(n+1, 4096), n, 4096) {
			t.Fatalf("valueOK accepts the value of key %d for key %d", n+1, n)
		}
	}
}
